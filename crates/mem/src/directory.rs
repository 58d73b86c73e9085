//! MSI directory coherence *timing* model.
//!
//! For the validation experiments the paper "enable\[s\] the timings of cache
//! coherence effects in SiMany" (§V) so that its results are comparable to
//! the fully coherent cycle-level reference. This model tracks the MSI
//! state of every touched line in a directory at the line's home node and
//! reports the message legs a real protocol would exchange; the caller
//! (runtime or cycle-level simulator) converts legs to latency via its
//! network model and charges the requesting core.

use crate::Addr;
use simany_time::IdHasher;
use simany_topology::CoreId;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// One protocol message leg: `(from, to, payload bytes)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoherenceLeg {
    /// Sender of this protocol message.
    pub from: CoreId,
    /// Receiver.
    pub to: CoreId,
    /// Payload size in bytes (control = 8, data = line size).
    pub bytes: u32,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum LineState {
    /// Clean copies at the listed sharers.
    Shared(Vec<CoreId>),
    /// Dirty exclusive copy at one owner.
    Modified(CoreId),
}

/// Directory over all touched lines. Home node of line `l` is
/// `l % n_cores` (address-interleaved banks).
#[derive(Debug)]
pub struct DirectoryTiming {
    n_cores: u32,
    line_bytes: u32,
    lines: HashMap<u64, LineState, BuildHasherDefault<IdHasher>>,
    /// Control-message size in bytes.
    ctrl_bytes: u32,
    invalidations: u64,
    fetches_from_owner: u64,
}

impl DirectoryTiming {
    /// New directory for `n_cores` cores and the given line size.
    pub fn new(n_cores: u32, line_bytes: u32) -> Self {
        DirectoryTiming {
            n_cores,
            line_bytes,
            lines: HashMap::default(),
            ctrl_bytes: 8,
            invalidations: 0,
            fetches_from_owner: 0,
        }
    }

    /// Home node (directory location) of a line.
    pub fn home_of(&self, line: u64) -> CoreId {
        CoreId((line % u64::from(self.n_cores)) as u32)
    }

    /// Record a read of `addr` by `core`; returns the protocol legs that a
    /// real MSI directory would exchange (empty when the request is
    /// satisfied locally).
    pub fn read(&mut self, core: CoreId, addr: Addr) -> Vec<CoreLegs> {
        let line = crate::line_of(addr, self.line_bytes);
        let home = self.home_of(line);
        let mut legs = Vec::new();
        match self.lines.get_mut(&line) {
            Some(LineState::Shared(sharers)) => {
                if sharers.contains(&core) {
                    // Local clean copy: no traffic.
                } else {
                    // Request to home, data back.
                    legs.push(CoherenceLeg {
                        from: core,
                        to: home,
                        bytes: self.ctrl_bytes,
                    });
                    legs.push(CoherenceLeg {
                        from: home,
                        to: core,
                        bytes: self.line_bytes,
                    });
                    sharers.push(core);
                }
            }
            Some(LineState::Modified(owner)) => {
                if *owner == core {
                    // Our own dirty copy.
                } else {
                    // Request to home, forward to owner, owner writes back /
                    // sends data; line downgrades to shared.
                    self.fetches_from_owner += 1;
                    legs.push(CoherenceLeg {
                        from: core,
                        to: home,
                        bytes: self.ctrl_bytes,
                    });
                    legs.push(CoherenceLeg {
                        from: home,
                        to: *owner,
                        bytes: self.ctrl_bytes,
                    });
                    legs.push(CoherenceLeg {
                        from: *owner,
                        to: core,
                        bytes: self.line_bytes,
                    });
                    let prev = *owner;
                    self.lines.insert(line, LineState::Shared(vec![prev, core]));
                }
            }
            None => {
                // Cold miss: fetch from home bank.
                legs.push(CoherenceLeg {
                    from: core,
                    to: home,
                    bytes: self.ctrl_bytes,
                });
                legs.push(CoherenceLeg {
                    from: home,
                    to: core,
                    bytes: self.line_bytes,
                });
                self.lines.insert(line, LineState::Shared(vec![core]));
            }
        }
        legs
    }

    /// Record a write of `addr` by `core`; returns the protocol legs
    /// (invalidations fan out to every other sharer).
    pub fn write(&mut self, core: CoreId, addr: Addr) -> Vec<CoreLegs> {
        let line = crate::line_of(addr, self.line_bytes);
        let home = self.home_of(line);
        let mut legs = Vec::new();
        match self.lines.get_mut(&line) {
            Some(LineState::Modified(owner)) if *owner == core => {
                // Already exclusive: silent.
            }
            Some(LineState::Modified(owner)) => {
                self.fetches_from_owner += 1;
                legs.push(CoherenceLeg {
                    from: core,
                    to: home,
                    bytes: self.ctrl_bytes,
                });
                legs.push(CoherenceLeg {
                    from: home,
                    to: *owner,
                    bytes: self.ctrl_bytes,
                });
                legs.push(CoherenceLeg {
                    from: *owner,
                    to: core,
                    bytes: self.line_bytes,
                });
                *owner = core;
            }
            Some(LineState::Shared(sharers)) => {
                legs.push(CoherenceLeg {
                    from: core,
                    to: home,
                    bytes: self.ctrl_bytes,
                });
                for s in sharers.iter() {
                    if *s != core {
                        // Invalidate + ack.
                        self.invalidations += 1;
                        legs.push(CoherenceLeg {
                            from: home,
                            to: *s,
                            bytes: self.ctrl_bytes,
                        });
                        legs.push(CoherenceLeg {
                            from: *s,
                            to: home,
                            bytes: self.ctrl_bytes,
                        });
                    }
                }
                if !sharers.contains(&core) {
                    legs.push(CoherenceLeg {
                        from: home,
                        to: core,
                        bytes: self.line_bytes,
                    });
                }
                self.lines.insert(line, LineState::Modified(core));
            }
            None => {
                legs.push(CoherenceLeg {
                    from: core,
                    to: home,
                    bytes: self.ctrl_bytes,
                });
                legs.push(CoherenceLeg {
                    from: home,
                    to: core,
                    bytes: self.line_bytes,
                });
                self.lines.insert(line, LineState::Modified(core));
            }
        }
        legs
    }

    /// (invalidations sent, dirty fetches forwarded) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.invalidations, self.fetches_from_owner)
    }
}

/// Alias kept short in signatures above.
pub type CoreLegs = CoherenceLeg;

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> DirectoryTiming {
        DirectoryTiming::new(4, 32)
    }

    #[test]
    fn cold_read_fetches_from_home() {
        let mut d = dir();
        let legs = d.read(CoreId(1), 0x100);
        // Line 8, home = 8 % 4 = 0.
        assert_eq!(legs.len(), 2);
        assert_eq!(legs[0].to, CoreId(0));
        assert_eq!(legs[1].bytes, 32);
        // Second read is local.
        assert!(d.read(CoreId(1), 0x104).is_empty());
    }

    #[test]
    fn second_sharer_fetches_data() {
        let mut d = dir();
        d.read(CoreId(1), 0x100);
        let legs = d.read(CoreId(2), 0x100);
        assert_eq!(legs.len(), 2);
        assert!(d.read(CoreId(2), 0x100).is_empty());
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = dir();
        d.read(CoreId(1), 0x100);
        d.read(CoreId(2), 0x100);
        d.read(CoreId(3), 0x100);
        let legs = d.write(CoreId(1), 0x100);
        // Request + 2 × (inval + ack); writer already had the data.
        assert_eq!(legs.len(), 1 + 4);
        let (inv, _) = d.stats();
        assert_eq!(inv, 2);
        // Writer is now exclusive: silent upgrade on re-write.
        assert!(d.write(CoreId(1), 0x100).is_empty());
        assert!(d.read(CoreId(1), 0x100).is_empty());
    }

    #[test]
    fn read_of_dirty_line_forwards_from_owner() {
        let mut d = dir();
        d.write(CoreId(1), 0x100);
        let legs = d.read(CoreId(2), 0x100);
        assert_eq!(legs.len(), 3);
        // Request -> home, forward -> owner, data owner -> reader.
        assert_eq!(legs[1].to, CoreId(1));
        assert_eq!(legs[2].from, CoreId(1));
        assert_eq!(legs[2].to, CoreId(2));
        let (_, fwd) = d.stats();
        assert_eq!(fwd, 1);
        // Both now share cleanly.
        assert!(d.read(CoreId(1), 0x100).is_empty());
        assert!(d.read(CoreId(2), 0x100).is_empty());
    }

    #[test]
    fn write_steals_dirty_line() {
        let mut d = dir();
        d.write(CoreId(0), 0x200);
        let legs = d.write(CoreId(3), 0x200);
        assert_eq!(legs.len(), 3);
        assert!(d.write(CoreId(3), 0x200).is_empty());
        // Previous owner must re-fetch.
        assert!(!d.read(CoreId(0), 0x200).is_empty());
    }

    #[test]
    fn homes_are_interleaved() {
        let d = dir();
        assert_eq!(d.home_of(0), CoreId(0));
        assert_eq!(d.home_of(1), CoreId(1));
        assert_eq!(d.home_of(5), CoreId(1));
    }
}
