//! Deterministic job queue with priority + FIFO ordering and digest dedup.
//!
//! Scenarios with the same identity digest are one *job*: the job runs
//! once and the result fans out to every scenario label that mapped to it.
//! Ready jobs are ordered by (priority descending, enqueue sequence
//! ascending) — a pure function of the spec, so two runs of the same sweep
//! launch in the same order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::scenario::Scenario;

/// A deduplicated unit of work: one digest, one or more scenario labels.
#[derive(Debug)]
pub struct Job {
    /// Identity digest shared by every fanout scenario.
    pub digest: u64,
    /// The scenarios this job's result fans out to (first one defines the
    /// command line; all share the digest, so any would do).
    pub fanout: Vec<Scenario>,
    /// Effective priority: the max across fanout scenarios.
    pub priority: i64,
    /// Times this job has been preempted and re-enqueued.
    pub preempts: u64,
}

#[derive(Eq, PartialEq)]
struct Entry {
    priority: i64,
    seq: u64,
    job: usize,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then lower sequence (FIFO).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The scheduler's queue state.
pub struct Queue {
    /// All jobs, indexed by the `job` field of heap entries.
    pub jobs: Vec<Job>,
    ready: BinaryHeap<Entry>,
    by_digest: HashMap<u64, usize>,
    next_seq: u64,
    /// Scenarios that mapped onto an already-enqueued digest.
    pub dedup_hits: u64,
}

impl Queue {
    /// Build the queue from an expanded scenario list. Scenario digests are
    /// computed here; an invalid scenario (bad machine/sync name) is an
    /// error for the whole sweep rather than a runtime surprise.
    pub fn build(scenarios: Vec<Scenario>) -> Result<Queue, String> {
        let mut q = Queue {
            jobs: Vec::new(),
            ready: BinaryHeap::new(),
            by_digest: HashMap::new(),
            next_seq: 0,
            dedup_hits: 0,
        };
        for s in scenarios {
            let digest = s
                .digest()
                .map_err(|e| format!("scenario '{}': {e}", s.label))?;
            match q.by_digest.get(&digest) {
                Some(&idx) => {
                    q.dedup_hits += 1;
                    let job = &mut q.jobs[idx];
                    job.priority = job.priority.max(s.priority);
                    job.fanout.push(s);
                    // Raising a queued job's priority must reorder it; the
                    // stale heap entry is ignored at pop (lazy deletion).
                    let seq = q.next_seq;
                    q.next_seq += 1;
                    q.ready.push(Entry {
                        priority: q.jobs[idx].priority,
                        seq,
                        job: idx,
                    });
                }
                None => {
                    let idx = q.jobs.len();
                    let seq = q.next_seq;
                    q.next_seq += 1;
                    q.by_digest.insert(digest, idx);
                    q.ready.push(Entry {
                        priority: s.priority,
                        seq,
                        job: idx,
                    });
                    q.jobs.push(Job {
                        digest,
                        priority: s.priority,
                        fanout: vec![s],
                        preempts: 0,
                    });
                }
            }
        }
        Ok(q)
    }

    /// Total unique jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Pop the next ready job index, honoring priority-then-FIFO order.
    /// Stale heap entries (from priority raises or re-enqueues) are
    /// skipped via the `taken` filter supplied by the caller.
    pub fn pop_ready(&mut self, taken: impl Fn(usize) -> bool) -> Option<usize> {
        while let Some(entry) = self.ready.pop() {
            if !taken(entry.job) {
                return Some(entry.job);
            }
        }
        None
    }

    /// Put a preempted job back at the tail of its priority class.
    pub fn requeue(&mut self, job: usize) {
        self.jobs[job].preempts += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ready.push(Entry {
            priority: self.jobs[job].priority,
            seq,
            job,
        });
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn scenario(label: &str, seed: u64, priority: i64) -> Scenario {
        let mut s = Scenario::default();
        s.label = label.into();
        s.seed = seed;
        s.priority = priority;
        s
    }

    #[test]
    fn dedup_merges_fanout_and_counts_hits() {
        // Two labels, identical identity → one job with fanout 2.
        let q = Queue::build(vec![
            scenario("a", 1, 0),
            scenario("b", 1, 0),
            scenario("c", 2, 0),
        ])
        .unwrap();
        assert_eq!(q.n_jobs(), 2);
        assert_eq!(q.dedup_hits, 1);
        let merged = q.jobs.iter().find(|j| j.fanout.len() == 2).unwrap();
        let labels: HashSet<&str> = merged.fanout.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, HashSet::from(["a", "b"]));
    }

    #[test]
    fn pop_order_is_priority_then_fifo() {
        let mut q = Queue::build(vec![
            scenario("low1", 1, 0),
            scenario("hi", 2, 5),
            scenario("low2", 3, 0),
        ])
        .unwrap();
        let mut done = HashSet::new();
        let mut order = Vec::new();
        while let Some(idx) = q.pop_ready(|j| done.contains(&j)) {
            done.insert(idx);
            order.push(q.jobs[idx].fanout[0].label.clone());
        }
        assert_eq!(order, vec!["hi", "low1", "low2"]);
    }

    #[test]
    fn dedup_hit_can_raise_priority() {
        // "late" shares seed 1 with "early" but carries priority 9: the
        // merged job must outrank the priority-5 job.
        let mut q = Queue::build(vec![
            scenario("early", 1, 0),
            scenario("mid", 2, 5),
            scenario("late", 1, 9),
        ])
        .unwrap();
        let first = q.pop_ready(|_| false).unwrap();
        assert_eq!(q.jobs[first].fanout[0].label, "early");
        assert_eq!(q.jobs[first].priority, 9);
    }

    #[test]
    fn requeue_goes_to_tail_of_priority_class() {
        let mut q = Queue::build(vec![scenario("a", 1, 0), scenario("b", 2, 0)]).unwrap();
        let a = q.pop_ready(|_| false).unwrap();
        assert_eq!(q.jobs[a].fanout[0].label, "a");
        // Preempt A: it must come back after B (tail of its priority class).
        q.requeue(a);
        let next = q.pop_ready(|_| false).unwrap();
        assert_eq!(q.jobs[next].fanout[0].label, "b");
        let last = q.pop_ready(|_| false).unwrap();
        assert_eq!(last, a);
        assert_eq!(q.jobs[a].preempts, 1);
    }
}
