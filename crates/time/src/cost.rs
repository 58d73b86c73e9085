//! Instruction-class cost model and block timing annotations.
//!
//! SiMany does not emulate an ISA. Instead, every *instruction block* (a
//! stretch of code with no interaction with other components) carries a
//! timing annotation computed from per-class instruction counts (paper §II.A
//! and §V). The paper groups the PowerPC 405 ISA into classes — unconditional
//! branches, conditional branches, common integer arithmetic, integer
//! multiply, simple floating-point arithmetic, and floating-point
//! multiply/divide — with one fixed cost per class.

use crate::vtime::VDuration;

/// Instruction classes distinguished by the cost model.
///
/// Mirrors the grouping of paper §V: loads/stores are *not* in this table —
/// memory accesses are interactions, timed by the simulator from the memory
/// and network models, never by block annotations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstrClass {
    /// Common integer arithmetic/logic (add, sub, shifts, compares, moves).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Simple floating-point arithmetic (add/sub).
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Unconditional branch / statically predictable branch (loop back-edge):
    /// outcome known at compile time, so its effect is folded into the
    /// annotation directly.
    Branch,
    /// Conditional branch with a statically unknown outcome; subject to the
    /// probabilistic branch predictor.
    CondBranch,
}

/// Number of distinct instruction classes (table size).
pub const INSTR_CLASS_COUNT: usize = 8;

impl InstrClass {
    /// Dense table index.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            InstrClass::IntAlu => 0,
            InstrClass::IntMul => 1,
            InstrClass::IntDiv => 2,
            InstrClass::FpAdd => 3,
            InstrClass::FpMul => 4,
            InstrClass::FpDiv => 5,
            InstrClass::Branch => 6,
            InstrClass::CondBranch => 7,
        }
    }

    /// All classes, in table order.
    pub const ALL: [InstrClass; INSTR_CLASS_COUNT] = [
        InstrClass::IntAlu,
        InstrClass::IntMul,
        InstrClass::IntDiv,
        InstrClass::FpAdd,
        InstrClass::FpMul,
        InstrClass::FpDiv,
        InstrClass::Branch,
        InstrClass::CondBranch,
    ];
}

/// Per-class cycle costs for one core model.
///
/// The defaults approximate a scalar 5-stage PowerPC-405-like pipeline: one
/// cycle for simple integer work, several for multiplies, tens for divides.
/// The paper notes that the effect of functional-unit choices can be mimicked
/// by varying these per-class costs, which is exactly what architecture
/// exploration does.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Cost in cycles for one instruction of each class (indexed by
    /// [`InstrClass::index`]).
    pub cycles: [u32; INSTR_CLASS_COUNT],
    /// Pipeline depth; the branch misprediction penalty equals this (paper:
    /// depth 5, 5-cycle penalty).
    pub pipeline_depth: u32,
    /// Branch-predictor success probability for statically unknown branches
    /// (paper: at least 90 %).
    pub branch_accuracy: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cycles: [
                1,  // IntAlu
                4,  // IntMul
                32, // IntDiv
                4,  // FpAdd
                6,  // FpMul
                30, // FpDiv
                1,  // Branch (statically predicted; penalty folded in when
                //     the compiler knows it mispredicts, cf. paper §V)
                1, // CondBranch base cost, predictor adds penalty on a miss
            ],
            pipeline_depth: 5,
            branch_accuracy: 0.90,
        }
    }
}

impl CostModel {
    /// Cost of one instruction of class `class`, in cycles.
    #[inline]
    pub fn cost_of(&self, class: InstrClass) -> u32 {
        self.cycles[class.index()]
    }

    /// Branch misprediction penalty in cycles (the pipeline depth).
    #[inline]
    pub fn mispredict_penalty(&self) -> u32 {
        self.pipeline_depth
    }

    /// Total cost of a block annotation in cycles (excluding dynamic branch
    /// penalties, which depend on predictor state/randomness).
    pub fn block_cycles(&self, block: &BlockCost) -> u64 {
        let mut total = block.extra_cycles;
        for class in InstrClass::ALL {
            total += u64::from(self.cost_of(class)) * block.counts[class.index()];
        }
        total
    }
}

/// Timing annotation for one instruction block: instruction counts per class
/// plus an optional flat extra cost.
///
/// Built with a fluent API:
/// ```
/// use simany_time::{BlockCost, CostModel};
/// let block = BlockCost::new().int_alu(10).fp_mul(2).cond_branches(1);
/// let model = CostModel::default();
/// assert_eq!(model.block_cycles(&block), 10 + 2 * 6 + 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockCost {
    /// Instruction counts per class (indexed by [`InstrClass::index`]).
    pub counts: [u64; INSTR_CLASS_COUNT],
    /// Flat additional cycles (coarse annotations "attributed to coarse
    /// program parts at once", paper §II.A).
    pub extra_cycles: u64,
}

macro_rules! block_builder {
    ($($method:ident => $class:expr),* $(,)?) => {
        $(
            #[doc = concat!("Add `n` instructions of the corresponding class.")]
            #[inline]
            pub fn $method(mut self, n: u64) -> Self {
                self.counts[$class.index()] += n;
                self
            }
        )*
    };
}

impl BlockCost {
    /// Empty annotation (zero cost).
    pub fn new() -> Self {
        Self::default()
    }

    block_builder! {
        int_alu => InstrClass::IntAlu,
        int_mul => InstrClass::IntMul,
        int_div => InstrClass::IntDiv,
        fp_add => InstrClass::FpAdd,
        fp_mul => InstrClass::FpMul,
        fp_div => InstrClass::FpDiv,
        branches => InstrClass::Branch,
        cond_branches => InstrClass::CondBranch,
    }

    /// Add a flat number of extra cycles.
    #[inline]
    pub fn extra(mut self, cycles: u64) -> Self {
        self.extra_cycles += cycles;
        self
    }

    /// Add `n` instructions of class `class`.
    #[inline]
    pub fn instr(mut self, class: InstrClass, n: u64) -> Self {
        self.counts[class.index()] += n;
        self
    }

    /// Number of statically unknown conditional branches in the block (each
    /// is submitted to the branch predictor by the executing core).
    #[inline]
    pub fn cond_branch_count(&self) -> u64 {
        self.counts[InstrClass::CondBranch.index()]
    }

    /// The annotation of `n` back-to-back repetitions of this block (e.g.
    /// one loop chunk): all counts and the extra cost multiplied by `n`.
    pub fn times(&self, n: u64) -> BlockCost {
        let mut out = BlockCost::default();
        for i in 0..INSTR_CLASS_COUNT {
            out.counts[i] = self.counts[i] * n;
        }
        out.extra_cycles = self.extra_cycles * n;
        out
    }

    /// Merge another block annotation into this one.
    pub fn merge(&mut self, other: &BlockCost) {
        for i in 0..INSTR_CLASS_COUNT {
            self.counts[i] += other.counts[i];
        }
        self.extra_cycles += other.extra_cycles;
    }

    /// True iff the annotation is empty.
    pub fn is_empty(&self) -> bool {
        self.extra_cycles == 0 && self.counts.iter().all(|&c| c == 0)
    }
}

/// Rational per-core speed factor, `num/den` relative to a base core.
///
/// Polymorphic architectures (paper §V) mix cores "twice slower" (1/2) and
/// "faster by a factor of 3/2" (3/2) so that aggregate computing power equals
/// the uniform machine. Elapsed time for a block of `c` base cycles on a core
/// of speed `num/den` is `c * den / num`, rounded up so that a slow core is
/// never accidentally free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CoreSpeed {
    /// Speed numerator.
    pub num: u32,
    /// Speed denominator.
    pub den: u32,
}

impl CoreSpeed {
    /// Base speed (1/1).
    pub const BASE: CoreSpeed = CoreSpeed { num: 1, den: 1 };
    /// Half-speed core of the polymorphic architectures.
    pub const HALF: CoreSpeed = CoreSpeed { num: 1, den: 2 };
    /// 1.5×-speed core of the polymorphic architectures.
    pub const THREE_HALVES: CoreSpeed = CoreSpeed { num: 3, den: 2 };

    /// Construct a speed `num/den`; both must be non-zero.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0, "CoreSpeed terms must be non-zero");
        CoreSpeed { num, den }
    }

    /// Scale a base-cycle count into elapsed ticks on this core (rounded up
    /// to a whole tick).
    ///
    /// Every annotation comes through here, so a base-speed core takes one
    /// checked multiply and any other speed divides in 64 bits; 128 bits
    /// are used only when the 64-bit product overflows.
    #[inline]
    pub fn scale_cycles(self, base_cycles: u64) -> VDuration {
        // ticks = cycles * TICKS_PER_CYCLE * den / num, rounded up.
        const TPC: u64 = crate::vtime::TICKS_PER_CYCLE;
        if self.num == self.den {
            return VDuration(
                base_cycles
                    .checked_mul(TPC)
                    .expect("scaled duration overflow"),
            );
        }
        let ticks = match base_cycles.checked_mul(TPC * u64::from(self.den)) {
            Some(t) => t.div_ceil(u64::from(self.num)),
            None => wide_div_ceil(
                u128::from(base_cycles) * u128::from(TPC) * u128::from(self.den),
                self.num,
            ),
        };
        VDuration(ticks)
    }

    /// Scale a base duration into elapsed time on this core (rounded up to
    /// a whole tick). Identity for the base speed.
    #[inline]
    pub fn scale_duration(self, d: VDuration) -> VDuration {
        if self.num == self.den {
            return d;
        }
        let ticks = match d.ticks().checked_mul(u64::from(self.den)) {
            Some(t) => t.div_ceil(u64::from(self.num)),
            None => wide_div_ceil(u128::from(d.ticks()) * u128::from(self.den), self.num),
        };
        VDuration(ticks)
    }

    /// Speed as a float (reporting only).
    pub fn as_f64(self) -> f64 {
        f64::from(self.num) / f64::from(self.den)
    }
}

/// `n / d` rounded up, for products that overflowed 64 bits; panics if the
/// quotient does not fit a tick count either.
#[cold]
fn wide_div_ceil(n: u128, d: u32) -> u64 {
    u64::try_from(n.div_ceil(u128::from(d))).expect("scaled duration overflow")
}

impl Default for CoreSpeed {
    fn default() -> Self {
        CoreSpeed::BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_match_paper_classes() {
        let m = CostModel::default();
        assert_eq!(m.cost_of(InstrClass::IntAlu), 1);
        assert!(m.cost_of(InstrClass::IntDiv) > m.cost_of(InstrClass::IntMul));
        assert!(m.cost_of(InstrClass::FpDiv) > m.cost_of(InstrClass::FpMul));
        assert_eq!(m.mispredict_penalty(), 5);
        assert!((m.branch_accuracy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn block_cost_accumulates() {
        let b = BlockCost::new()
            .int_alu(3)
            .int_mul(1)
            .fp_div(1)
            .cond_branches(2)
            .extra(10);
        let m = CostModel::default();
        assert_eq!(m.block_cycles(&b), 3 + 4 + 30 + 2 + 10);
        assert_eq!(b.cond_branch_count(), 2);
        assert!(!b.is_empty());
        assert!(BlockCost::new().is_empty());
    }

    #[test]
    fn block_merge() {
        let mut a = BlockCost::new().int_alu(1);
        let b = BlockCost::new().int_alu(2).extra(5);
        a.merge(&b);
        assert_eq!(a.counts[InstrClass::IntAlu.index()], 3);
        assert_eq!(a.extra_cycles, 5);
    }

    #[test]
    fn instr_builder_equivalent_to_named() {
        let a = BlockCost::new().instr(InstrClass::FpMul, 4);
        let b = BlockCost::new().fp_mul(4);
        assert_eq!(a, b);
    }

    #[test]
    fn speed_scaling_half_and_fast() {
        // 100 base cycles on a half-speed core take 200 cycles.
        assert_eq!(
            CoreSpeed::HALF.scale_cycles(100),
            VDuration::from_cycles(200)
        );
        // On a 1.5x core: 100 * 2/3 = 66.66.. cycles = 133.33.. ticks -> 134.
        assert_eq!(CoreSpeed::THREE_HALVES.scale_cycles(100).ticks(), 134);
        // Base core is identity.
        assert_eq!(CoreSpeed::BASE.scale_cycles(77), VDuration::from_cycles(77));
    }

    #[test]
    fn polymorphic_pair_has_equal_aggregate_power() {
        // One half-speed and one 1.5x core together match two base cores.
        let agg = CoreSpeed::HALF.as_f64() + CoreSpeed::THREE_HALVES.as_f64();
        assert!((agg - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scale_rounds_up_not_down() {
        // 1 cycle on a 3/2-speed core: 2/3 cycle = 1.33 ticks -> 2 ticks.
        assert_eq!(CoreSpeed::THREE_HALVES.scale_cycles(1).ticks(), 2);
        // Never zero for non-zero work.
        assert!(CoreSpeed::new(1000, 1).scale_cycles(1).ticks() > 0);
    }

    /// The 64-bit scaling paths agree with the 128-bit formula everywhere,
    /// overflow included: the same ticks, or a panic exactly where the
    /// formula's quotient does not fit a tick count.
    #[test]
    fn scaling_matches_the_wide_formula() {
        use crate::vtime::TICKS_PER_CYCLE as TPC;
        let wide = |x: u64, mul: u128, s: CoreSpeed| {
            u64::try_from((u128::from(x) * mul * u128::from(s.den)).div_ceil(u128::from(s.num)))
                .ok()
        };
        let check = |cycles: u64, s: CoreSpeed| {
            let want = wide(cycles, u128::from(TPC), s);
            let got = std::panic::catch_unwind(|| s.scale_cycles(cycles).ticks()).ok();
            assert_eq!(got, want, "scale_cycles({cycles}) at {}/{}", s.num, s.den);
            let want = wide(cycles, 1, s);
            let got = std::panic::catch_unwind(|| s.scale_duration(VDuration(cycles)).ticks()).ok();
            assert_eq!(got, want, "scale_duration({cycles}) at {}/{}", s.num, s.den);
        };
        let mut rng = crate::Xoshiro256StarStar::seeded(0x5ca1e);
        let edge = u64::MAX / TPC;
        for _ in 0..20_000 {
            let term = |rng: &mut crate::Xoshiro256StarStar| match rng.next_below(3) {
                0 => 1 + rng.next_below(8) as u32,
                1 => 1 + rng.next_below(u64::from(u32::MAX)) as u32,
                _ => u32::MAX - rng.next_below(4) as u32,
            };
            let num = term(&mut rng);
            let den = if rng.next_below(4) == 0 {
                num
            } else {
                term(&mut rng)
            };
            let s = CoreSpeed::new(num, den);
            // Where the 64-bit product and the final quotient overflow.
            let near = |rng: &mut crate::Xoshiro256StarStar, x: u64| {
                x.saturating_sub(64).saturating_add(rng.next_below(129))
            };
            let cycles = match rng.next_below(5) {
                0 => rng.next_below(1 << 20),
                1 => near(&mut rng, edge),
                2 => near(&mut rng, edge / u64::from(den)),
                3 => near(
                    &mut rng,
                    (edge / u64::from(den)).saturating_mul(u64::from(num)),
                ),
                _ => rng.next_u64(),
            };
            check(cycles, s);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_speed_rejected() {
        let _ = CoreSpeed::new(0, 1);
    }
}
