//! Worker-process management: launching `simulate` for a job and
//! classifying how it exited.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use crate::scenario::Scenario;

/// How a worker process finished, derived from its typed exit code
/// (see `SimError::exit_code` in `simany-core`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitClass {
    /// Exit 0: the simulation completed.
    Success,
    /// Exit 15: the engine hit its external-preemption budget and wrote a
    /// resumable checkpoint. Re-enqueue, don't count as failure.
    Preempted,
    /// Exit 10: the stall watchdog fired.
    Stalled,
    /// Exit 11: resume replay diverged from the checkpoint.
    CheckpointMismatch,
    /// Exit 12: checkpoint I/O or format error.
    CheckpointError,
    /// Exit 13: a simulated task panicked.
    TaskPanic,
    /// Exit 14: deadlock detected.
    Deadlock,
    /// Exit 16: the host refused a resource the run needs (a task stack
    /// mapping).
    HostResources,
    /// Exit 2: the worker rejected its own command line — a service bug.
    Usage,
    /// Killed by a signal or an unrecognized code.
    Other(i32),
}

impl ExitClass {
    /// Short status token used in journals and result records.
    pub fn status(&self) -> String {
        match self {
            ExitClass::Success => "ok".into(),
            ExitClass::Preempted => "preempted".into(),
            ExitClass::Stalled => "stalled".into(),
            ExitClass::CheckpointMismatch => "checkpoint-mismatch".into(),
            ExitClass::CheckpointError => "checkpoint-error".into(),
            ExitClass::TaskPanic => "task-panic".into(),
            ExitClass::Deadlock => "deadlock".into(),
            ExitClass::HostResources => "host-resources".into(),
            ExitClass::Usage => "usage-error".into(),
            ExitClass::Other(code) => format!("exit-{code}"),
        }
    }
}

/// Map a worker's exit status to an [`ExitClass`]. `None` (signal death,
/// e.g. the operator's kill during shutdown) maps to `Other(-1)`.
pub fn classify_exit(code: Option<i32>) -> ExitClass {
    match code {
        Some(0) => ExitClass::Success,
        Some(2) => ExitClass::Usage,
        Some(10) => ExitClass::Stalled,
        Some(11) => ExitClass::CheckpointMismatch,
        Some(12) => ExitClass::CheckpointError,
        Some(13) => ExitClass::TaskPanic,
        Some(14) => ExitClass::Deadlock,
        Some(15) => ExitClass::Preempted,
        Some(16) => ExitClass::HostResources,
        Some(other) => ExitClass::Other(other),
        None => ExitClass::Other(-1),
    }
}

/// Everything the service needs to launch one worker run of a job.
pub struct Launch<'a> {
    /// The scenario defining the command line (any fanout member works —
    /// they share a digest).
    pub scenario: &'a Scenario,
    /// 16-hex digest, used for per-job file names.
    pub digest_hex: &'a str,
    /// The `simulate` binary.
    pub simulate_bin: &'a Path,
    /// Output directory; per-run files land under `runs/`.
    pub out_dir: &'a Path,
    /// `--checkpoint-every` value for preemptable runs.
    pub checkpoint_every: Option<u64>,
    /// `--preempt-after-checkpoints` budget, if the service preempts.
    pub preempt_after: Option<u64>,
}

impl Launch<'_> {
    /// Per-job JSON result path (`runs/<digest>.json`).
    pub fn json_path(&self) -> PathBuf {
        self.out_dir
            .join("runs")
            .join(format!("{}.json", self.digest_hex))
    }

    /// Per-job checkpoint path (`checkpoints/<digest>.checkpoint`).
    pub fn checkpoint_path(&self) -> PathBuf {
        self.out_dir
            .join("checkpoints")
            .join(format!("{}.checkpoint", self.digest_hex))
    }

    /// Per-job stderr capture path (`runs/<digest>.stderr`).
    pub fn stderr_path(&self) -> PathBuf {
        self.out_dir
            .join("runs")
            .join(format!("{}.stderr", self.digest_hex))
    }

    /// Spawn the worker. If a checkpoint from an earlier (preempted or
    /// interrupted) attempt exists, the run resumes against it — replayed
    /// and bit-verified by the engine.
    pub fn spawn(&self) -> Result<Child, String> {
        let mut cmd = Command::new(self.simulate_bin);
        cmd.args(self.scenario.to_simulate_args());
        cmd.arg("--json").arg(self.json_path());
        let ckpt = self.checkpoint_path();
        if let Some(every) = self.checkpoint_every {
            cmd.arg("--checkpoint-every").arg(every.to_string());
            cmd.arg("--checkpoint-file").arg(&ckpt);
        }
        if let Some(budget) = self.preempt_after {
            cmd.arg("--preempt-after-checkpoints")
                .arg(budget.to_string());
        }
        if self.checkpoint_every.is_some() && ckpt.is_file() {
            cmd.arg("--resume").arg(&ckpt);
        }
        let stderr = std::fs::File::create(self.stderr_path())
            .map_err(|e| format!("cannot create stderr capture: {e}"))?;
        cmd.stdout(Stdio::null())
            .stderr(stderr)
            .stdin(Stdio::null());
        cmd.spawn().map_err(|e| {
            format!(
                "cannot spawn {} for job {}: {e}",
                self.simulate_bin.display(),
                self.digest_hex
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_classify() {
        assert_eq!(classify_exit(Some(0)), ExitClass::Success);
        assert_eq!(classify_exit(Some(15)), ExitClass::Preempted);
        assert_eq!(classify_exit(Some(10)), ExitClass::Stalled);
        assert_eq!(classify_exit(Some(11)), ExitClass::CheckpointMismatch);
        assert_eq!(classify_exit(Some(13)), ExitClass::TaskPanic);
        assert_eq!(classify_exit(Some(16)).status(), "host-resources");
        assert_eq!(classify_exit(None), ExitClass::Other(-1));
        assert_eq!(classify_exit(Some(77)).status(), "exit-77");
    }
}
