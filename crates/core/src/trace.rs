//! Optional event tracing.
//!
//! Architecture exploration lives and dies by visibility: install a
//! [`Tracer`] in [`crate::EngineConfig`] and the engine reports every
//! scheduling-relevant event — task starts and ends, synchronization
//! stalls and resumes, message sends and (possibly out-of-order)
//! processing, blocks and wakes — stamped with virtual time.
//!
//! [`MemoryTracer`] collects events in memory and renders chronological
//! dumps, per-core summaries and a coarse ASCII activity timeline; custom
//! tracers (streaming to disk, counting, filtering) implement the
//! one-method trait.

use simany_time::VirtualTime;
use simany_topology::{CoreId, LinkId};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One engine event, stamped with the virtual time at which it happened on
/// its core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An activity's closure starts executing.
    ActivityStart {
        /// Virtual time on the core.
        t: VirtualTime,
        /// Core.
        core: CoreId,
        /// Engine activity id.
        aid: u64,
        /// Debug name of the activity.
        name: &'static str,
    },
    /// An activity's closure returned.
    ActivityEnd {
        /// Virtual time on the core.
        t: VirtualTime,
        /// Core.
        core: CoreId,
        /// Engine activity id.
        aid: u64,
        /// Debug name.
        name: &'static str,
    },
    /// The synchronization policy stalled the core.
    Stall {
        /// Core clock at the stall.
        t: VirtualTime,
        /// Core.
        core: CoreId,
    },
    /// A stalled core resumed.
    Resume {
        /// Core clock at resume.
        t: VirtualTime,
        /// Core.
        core: CoreId,
    },
    /// A message entered the network.
    Send {
        /// Departure stamp.
        t: VirtualTime,
        /// Sender.
        src: CoreId,
        /// Receiver.
        dst: CoreId,
        /// Architectural size.
        bytes: u32,
    },
    /// A message was processed by its destination. `late_by` is the
    /// virtual lateness when the receiver's clock had already passed the
    /// arrival stamp (the paper's out-of-order processing).
    Process {
        /// Arrival stamp of the message.
        arrival: VirtualTime,
        /// Receiver clock when processed.
        t: VirtualTime,
        /// Receiver.
        core: CoreId,
        /// Ticks of lateness (0 = in order).
        late_by: u64,
    },
    /// An activity suspended waiting for a wake.
    Block {
        /// Core clock.
        t: VirtualTime,
        /// Core.
        core: CoreId,
        /// Wait reason (e.g. "probe", "join").
        reason: &'static str,
    },
    /// A blocked activity was woken.
    Wake {
        /// Virtual time from which the woken activity may resume.
        t: VirtualTime,
        /// Core of the woken activity.
        core: CoreId,
    },
    /// A link failed (fault-plan epoch boundary).
    LinkDown {
        /// Virtual time of the failure.
        t: VirtualTime,
        /// The failed directed link.
        link: LinkId,
        /// Link source core.
        src: CoreId,
        /// Link destination core.
        dst: CoreId,
    },
    /// A failed link recovered.
    LinkUp {
        /// Virtual time of the recovery.
        t: VirtualTime,
        /// The recovered directed link.
        link: LinkId,
        /// Link source core.
        src: CoreId,
        /// Link destination core.
        dst: CoreId,
    },
    /// A core failed permanently (stops accepting new work).
    CoreFailed {
        /// Virtual time of the failure.
        t: VirtualTime,
        /// The failed core.
        core: CoreId,
    },
    /// A message was lost in flight (dropped, corrupted or unroutable).
    MsgDropped {
        /// Departure stamp of the lost message.
        t: VirtualTime,
        /// Sender.
        src: CoreId,
        /// Intended receiver.
        dst: CoreId,
        /// Architectural size.
        bytes: u32,
    },
    /// A lost message was retried by the runtime (timeout + backoff).
    MsgRetried {
        /// Virtual time of the retry attempt.
        t: VirtualTime,
        /// Sender.
        src: CoreId,
        /// Intended receiver.
        dst: CoreId,
    },
    /// The online sanitizer observed an invariant violation (an engine
    /// bug, or deliberately injected corruption in sanitizer tests).
    SanitizerViolation {
        /// Clock of the offending core when the violation was detected.
        t: VirtualTime,
        /// The core whose invariant was violated.
        core: CoreId,
        /// The other endpoint of the offending edge, for pairwise
        /// invariants (neighbor drift, per-sender FIFO, causality).
        peer: Option<CoreId>,
        /// Which invariant, as a stable name (e.g. "neighbor-drift").
        invariant: &'static str,
        /// Clocks and bounds, human-readable.
        detail: String,
    },
}

impl TraceEvent {
    /// The virtual time stamp of the event.
    pub fn time(&self) -> VirtualTime {
        match *self {
            TraceEvent::ActivityStart { t, .. }
            | TraceEvent::ActivityEnd { t, .. }
            | TraceEvent::Stall { t, .. }
            | TraceEvent::Resume { t, .. }
            | TraceEvent::Send { t, .. }
            | TraceEvent::Process { t, .. }
            | TraceEvent::Block { t, .. }
            | TraceEvent::Wake { t, .. }
            | TraceEvent::LinkDown { t, .. }
            | TraceEvent::LinkUp { t, .. }
            | TraceEvent::CoreFailed { t, .. }
            | TraceEvent::MsgDropped { t, .. }
            | TraceEvent::MsgRetried { t, .. }
            | TraceEvent::SanitizerViolation { t, .. } => t,
        }
    }

    /// The core the event belongs to.
    pub fn core(&self) -> CoreId {
        match *self {
            TraceEvent::ActivityStart { core, .. }
            | TraceEvent::ActivityEnd { core, .. }
            | TraceEvent::Stall { core, .. }
            | TraceEvent::Resume { core, .. }
            | TraceEvent::Process { core, .. }
            | TraceEvent::Block { core, .. }
            | TraceEvent::Wake { core, .. }
            | TraceEvent::CoreFailed { core, .. }
            | TraceEvent::SanitizerViolation { core, .. } => core,
            TraceEvent::Send { src, .. }
            | TraceEvent::LinkDown { src, .. }
            | TraceEvent::LinkUp { src, .. }
            | TraceEvent::MsgDropped { src, .. }
            | TraceEvent::MsgRetried { src, .. } => src,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::ActivityStart { t, core, aid, name } => {
                write!(f, "{t} {core} START {name}#{aid}")
            }
            TraceEvent::ActivityEnd { t, core, aid, name } => {
                write!(f, "{t} {core} END {name}#{aid}")
            }
            TraceEvent::Stall { t, core } => write!(f, "{t} {core} STALL"),
            TraceEvent::Resume { t, core } => write!(f, "{t} {core} RESUME"),
            TraceEvent::Send { t, src, dst, bytes } => {
                write!(f, "{t} {src} SEND -> {dst} ({bytes}B)")
            }
            TraceEvent::Process {
                arrival,
                t,
                core,
                late_by,
            } => {
                if late_by > 0 {
                    write!(f, "{t} {core} PROCESS (arrived {arrival}, late)")
                } else {
                    write!(f, "{t} {core} PROCESS (arrived {arrival})")
                }
            }
            TraceEvent::Block { t, core, reason } => write!(f, "{t} {core} BLOCK on {reason}"),
            TraceEvent::Wake { t, core } => write!(f, "{t} {core} WAKE"),
            TraceEvent::LinkDown { t, link, src, dst } => {
                write!(f, "{t} {src} LINK_DOWN {link:?} -> {dst}")
            }
            TraceEvent::LinkUp { t, link, src, dst } => {
                write!(f, "{t} {src} LINK_UP {link:?} -> {dst}")
            }
            TraceEvent::CoreFailed { t, core } => write!(f, "{t} {core} CORE_FAILED"),
            TraceEvent::MsgDropped { t, src, dst, bytes } => {
                write!(f, "{t} {src} DROP -> {dst} ({bytes}B)")
            }
            TraceEvent::MsgRetried { t, src, dst } => {
                write!(f, "{t} {src} RETRY -> {dst}")
            }
            TraceEvent::SanitizerViolation {
                t,
                core,
                peer,
                invariant,
                ref detail,
            } => {
                if let Some(peer) = peer {
                    write!(
                        f,
                        "{t} {core} SANITIZER {invariant} (peer {peer}): {detail}"
                    )
                } else {
                    write!(f, "{t} {core} SANITIZER {invariant}: {detail}")
                }
            }
        }
    }
}

/// Event sink installed in the engine configuration. The engine calls it
/// on the thread that runs the simulation, one event at a time, so a
/// tracer keeps its state in a `RefCell` or `Cell`.
pub trait Tracer {
    /// Record one event. Called while the simulator state is borrowed, in
    /// the middle of a pick or an `ExecCtx` call: keep it cheap.
    fn record(&self, event: TraceEvent);
}

/// In-memory tracer with reporting helpers.
#[derive(Default)]
pub struct MemoryTracer {
    events: RefCell<Vec<TraceEvent>>,
}

impl MemoryTracer {
    /// Fresh, empty tracer, shared with the engine config.
    pub fn new() -> Rc<Self> {
        Rc::new(MemoryTracer::default())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Snapshot of all events in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.borrow().clone()
    }

    /// Chronological text dump (sorted by virtual time, stable on ties).
    pub fn dump(&self) -> String {
        let mut evs = self.events();
        evs.sort_by_key(|e| e.time());
        let mut out = String::new();
        for e in evs {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Per-core event counts: `(starts, stalls, sends, late_processes)`.
    pub fn core_summary(&self, core: CoreId) -> (u64, u64, u64, u64) {
        let mut starts = 0;
        let mut stalls = 0;
        let mut sends = 0;
        let mut late = 0;
        for e in self.events().iter().filter(|e| e.core() == core) {
            match e {
                TraceEvent::ActivityStart { .. } => starts += 1,
                TraceEvent::Stall { .. } => stalls += 1,
                TraceEvent::Send { .. } => sends += 1,
                TraceEvent::Process { late_by, .. } if *late_by > 0 => late += 1,
                _ => {}
            }
        }
        (starts, stalls, sends, late)
    }

    /// Coarse ASCII activity timeline: one row per core, `columns` buckets
    /// of virtual time; `#` = activity started in the bucket, `~` = stall,
    /// `.` = other events, space = quiet.
    pub fn timeline(&self, n_cores: u32, columns: usize) -> String {
        let evs = self.events();
        let horizon = evs.iter().map(|e| e.time().ticks()).max().unwrap_or(0);
        let bucket = (horizon / columns as u64).max(1);
        let mut grid = vec![vec![b' '; columns]; n_cores as usize];
        for e in &evs {
            let c = e.core().index();
            if c >= grid.len() {
                continue;
            }
            let col = ((e.time().ticks() / bucket) as usize).min(columns - 1);
            let glyph = match e {
                TraceEvent::ActivityStart { .. } | TraceEvent::ActivityEnd { .. } => b'#',
                TraceEvent::Stall { .. } => b'~',
                _ => {
                    if grid[c][col] == b' ' {
                        b'.'
                    } else {
                        grid[c][col]
                    }
                }
            };
            // Priority: '#' > '~' > '.'.
            let cur = grid[c][col];
            let rank = |g: u8| match g {
                b'#' => 3,
                b'~' => 2,
                b'.' => 1,
                _ => 0,
            };
            if rank(glyph) > rank(cur) {
                grid[c][col] = glyph;
            }
        }
        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            out.push_str(&format!("core{i:<4}|"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push_str("|\n");
        }
        out
    }
}

impl Tracer for MemoryTracer {
    fn record(&self, event: TraceEvent) {
        self.events.borrow_mut().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> VirtualTime {
        VirtualTime::from_cycles(c)
    }

    #[test]
    fn records_and_dumps_in_time_order() {
        let tr = MemoryTracer::new();
        tr.record(TraceEvent::Stall {
            t: t(30),
            core: CoreId(1),
        });
        tr.record(TraceEvent::ActivityStart {
            t: t(10),
            core: CoreId(0),
            aid: 0,
            name: "a",
        });
        assert_eq!(tr.len(), 2);
        let dump = tr.dump();
        let first = dump.lines().next().unwrap();
        assert!(first.contains("START"), "dump not time-sorted: {dump}");
    }

    #[test]
    fn summary_counts_per_core() {
        let tr = MemoryTracer::new();
        tr.record(TraceEvent::ActivityStart {
            t: t(1),
            core: CoreId(0),
            aid: 0,
            name: "a",
        });
        tr.record(TraceEvent::Stall {
            t: t(2),
            core: CoreId(0),
        });
        tr.record(TraceEvent::Stall {
            t: t(3),
            core: CoreId(1),
        });
        tr.record(TraceEvent::Send {
            t: t(4),
            src: CoreId(0),
            dst: CoreId(1),
            bytes: 8,
        });
        tr.record(TraceEvent::Process {
            arrival: t(4),
            t: t(9),
            core: CoreId(1),
            late_by: 10,
        });
        assert_eq!(tr.core_summary(CoreId(0)), (1, 1, 1, 0));
        assert_eq!(tr.core_summary(CoreId(1)), (0, 1, 0, 1));
    }

    #[test]
    fn timeline_shape() {
        let tr = MemoryTracer::new();
        tr.record(TraceEvent::ActivityStart {
            t: t(0),
            core: CoreId(0),
            aid: 0,
            name: "a",
        });
        tr.record(TraceEvent::Stall {
            t: t(99),
            core: CoreId(1),
        });
        let tl = tr.timeline(2, 10);
        let lines: Vec<&str> = tl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('~'));
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::Send {
            t: t(7),
            src: CoreId(3),
            dst: CoreId(4),
            bytes: 1,
        };
        assert_eq!(e.time(), t(7));
        assert_eq!(e.core(), CoreId(3));
        assert!(format!("{e}").contains("SEND"));
    }
}
