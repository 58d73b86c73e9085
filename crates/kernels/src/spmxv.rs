//! Sparse matrix–vector multiply (paper §V).
//!
//! "Matrices are specified in a row-oriented format alike to the
//! Harwell-Boeing format." The kernel computes `y = A·x` with recursive
//! row-block task decomposition; rows are independent, so parallelism is
//! abundant and regular — the paper's SpMxV "scales well up to 64 cores
//! and then suddenly tops, essentially because of the size of the datasets
//! we used".
//!
//! Workloads: deterministic random CSR matrices (the paper's generated set
//! has 50 or 100 non-zeros per row); user matrices can be loaded through
//! the Matrix-Market parser in [`crate::workloads`].

use crate::annotate::sweep;
use crate::shape::{run_tasks, Placement};
use crate::workloads::{random_csr, CsrMatrix};
use crate::{DwarfKernel, KernelResult, Scale};
use simany_runtime::{GroupId, ProgramSpec, SimError, TaskCtx};
use simany_time::BlockCost;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Default matrix: 2000 rows with ~20 nnz/row (the paper's 10^6-row
/// matrices are reachable by cranking `Scale`, at commensurate host cost).
const BASE_N: usize = 2000;
const BASE_NNZ_PER_ROW: usize = 20;
/// Row-block size below which a task computes directly.
const ROW_BLOCK: usize = 8;
/// Simulated address spaces.
const VALS_BASE: u64 = 0x5000_0000;
const X_BASE: u64 = 0x6000_0000;
const Y_BASE: u64 = 0x6800_0000;
/// Distributed memory: `x` is partitioned into cells of this many entries.
const X_CELL_ELEMS: usize = 64;

/// The SpMxV kernel.
pub struct SpMxV;

/// What every task of one run shares.
struct Product {
    m: CsrMatrix,
    x: Vec<f64>,
    y: RefCell<Vec<f64>>,
    /// Where `x` lives.
    x_at: Placement,
}

impl DwarfKernel for SpMxV {
    fn name(&self) -> &'static str {
        "SpMxV"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        seed: u64,
    ) -> Result<KernelResult, SimError> {
        let n = scale.apply(BASE_N, 128);
        Self::run_with_matrix(spec, random_csr(n, BASE_NNZ_PER_ROW, seed), None)
    }

    fn run_native(&self, scale: Scale, seed: u64) -> (Duration, u64) {
        let n = scale.apply(BASE_N, 128);
        let matrix = random_csr(n, BASE_NNZ_PER_ROW, seed);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let t0 = Instant::now();
        let y = matrix.multiply(&x);
        let checksum = y.iter().sum::<f64>().to_bits();
        (t0.elapsed(), checksum)
    }
}

impl SpMxV {
    /// Run the kernel on an explicit matrix (e.g. one loaded from a Matrix
    /// Market file via [`crate::workloads::parse_matrix_market`], or the
    /// structured generators). `x` defaults to `sin(i)` when `None`.
    pub fn run_with_matrix(
        spec: ProgramSpec,
        matrix: CsrMatrix,
        x: Option<Vec<f64>>,
    ) -> Result<KernelResult, SimError> {
        let n = matrix.n;
        let x = x.unwrap_or_else(|| (0..n).map(|i| (i as f64).sin()).collect());
        assert_eq!(x.len(), n, "x length must match the matrix dimension");
        let expected = matrix.multiply(&x);
        let nnz = matrix.nnz() as u64;
        let (out, run) = run_tasks(
            spec,
            move |tc| Product {
                m: matrix,
                x,
                y: RefCell::new(vec![0.0; n]),
                x_at: Placement::new(tc, X_BASE, 8, n, X_CELL_ELEMS),
            },
            move |tc, run, group| rows_task(tc, run, 0, n, group),
        )?;
        // Row-parallel decomposition preserves per-row summation order:
        // results must match the sequential product bit-for-bit.
        let verified = *run.y.borrow() == expected;
        Ok(KernelResult {
            out,
            verified,
            work_items: nnz,
        })
    }
}

/// Per-non-zero compute: one fp multiply, one fp add, index arithmetic.
fn nnz_cost() -> BlockCost {
    BlockCost::new().fp_mul(1).fp_add(1).int_alu(2)
}

fn rows_task(tc: &mut TaskCtx<'_>, run: &Rc<Product>, lo: usize, hi: usize, group: GroupId) {
    if hi - lo > ROW_BLOCK {
        let mid = lo + (hi - lo) / 2;
        let right = Rc::clone(run);
        tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
            rows_task(tc, &right, mid, hi, group);
        });
        rows_task(tc, run, lo, mid, group);
        return;
    }
    let m = &run.m;
    tc.scope(|tc| {
        for r in lo..hi {
            let (start, end) = (m.row_ptr[r], m.row_ptr[r + 1]);
            // Stream vals+cols for the row (12 bytes per nnz), charge the
            // multiply-accumulate per element.
            let k = (end - start) as u64;
            sweep(tc, VALS_BASE + start as u64 * 12, k, 12, false, &nnz_cost());
            // Gather x[col]: random accesses, or each distinct x block the
            // row needs fetched once.
            let cols = &m.cols[start..end];
            run.x_at.read_each(tc, cols.iter().map(|&c| c as usize));
            let acc = (start..end).fold(0.0, |acc, i| acc + m.vals[i] * run.x[m.cols[i] as usize]);
            tc.store(Y_BASE + r as u64 * 8);
            run.y.borrow_mut()[r] = acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::RuntimeParams;
    use simany_topology::mesh_2d;

    fn small() -> Scale {
        Scale(0.1) // 200 rows
    }

    #[test]
    fn parallel_product_is_bit_exact() {
        let r = SpMxV
            .run_sim(ProgramSpec::new(mesh_2d(8)), small(), 13)
            .unwrap();
        assert!(r.verified);
        assert!(r.work_items > 0);
    }

    #[test]
    fn distributed_variant_fetches_x_blocks() {
        let mut spec = ProgramSpec::new(mesh_2d(8));
        spec.runtime = RuntimeParams::distributed_memory();
        let r = SpMxV.run_sim(spec, small(), 13).unwrap();
        assert!(r.verified);
        assert!(r.out.rt.cell_remote + r.out.rt.cell_local > 0);
    }

    #[test]
    fn explicit_matrix_paths() {
        use crate::workloads::{parse_matrix_market, stencil_5pt, tridiagonal};
        // Structured generators.
        let r =
            SpMxV::run_with_matrix(ProgramSpec::new(mesh_2d(8)), tridiagonal(256), None).unwrap();
        assert!(r.verified);
        let r =
            SpMxV::run_with_matrix(ProgramSpec::new(mesh_2d(8)), stencil_5pt(16), None).unwrap();
        assert!(r.verified);
        // A hand-written Matrix Market file.
        let mm = "%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n1 1 2.0\n2 2 2.0\n3 3 2.0\n4 4 2.0\n2 1 -1.0\n";
        let m = parse_matrix_market(mm).unwrap();
        let r =
            SpMxV::run_with_matrix(ProgramSpec::new(mesh_2d(4)), m, Some(vec![1.0; 4])).unwrap();
        assert!(r.verified);
    }

    #[test]
    fn scales_with_core_count() {
        // 1000 rows = ~31 leaf row-blocks: enough parallelism for 16 cores.
        let base = SpMxV
            .run_sim(ProgramSpec::new(mesh_2d(1)), Scale(0.5), 4)
            .unwrap();
        let par = SpMxV
            .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(0.5), 4)
            .unwrap();
        let speedup = base.cycles() as f64 / par.cycles() as f64;
        assert!(speedup > 3.0, "speedup only {speedup:.2} on 16 cores");
    }
}
