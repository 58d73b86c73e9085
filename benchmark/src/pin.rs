//! CPU affinity: the ledger pins every measured process to as many CPUs as
//! its workload has simulator threads. The scheduler <-> worker condvar
//! hand-off costs 3-4x more when the two threads land on different CPUs,
//! so unpinned numbers do not repeat (see README, "Why runs are pinned").

/// `cpu_set_t` on Linux: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs this process may run on, ascending. Empty where affinity cannot be
/// read (non-Linux hosts): every workload is then reported `unmeasured`.
pub fn allowed_cpus() -> Vec<u32> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable cpu_set_t-sized buffer and its
        // exact size is passed; pid 0 means the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc == 0 {
            return (0..1024u32)
                .filter(|&c| set[(c / 64) as usize] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restrict the calling thread — and every thread or process it later
/// creates — to `cpus`.
#[cfg(target_os = "linux")]
pub fn pin_to(cpus: &[u32]) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        let word = set
            .get_mut((c / 64) as usize)
            .ok_or_else(|| format!("cpu {c} does not fit a cpu_set_t"))?;
        *word |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t-sized buffer and its exact size is
    // passed; pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpus:?}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(cpus: &[u32]) -> Result<(), String> {
    Err(format!("cannot pin to {cpus:?}: affinity needs Linux"))
}
