//! The paper's pessimistic private-L1 model.
//!
//! "Each core has a private L1 cache with 1-cycle latency. The associated
//! cache model is simple and pessimistic: Data do not stay in the cache
//! across function boundaries of the executed program." (§V)
//!
//! We model this as a stack of scope frames: entering a function pushes a
//! frame, touching a line records it in the current frame, and leaving the
//! function forgets everything the frame touched. The first touch of a line
//! within the current scope is a miss (pays the backing latency); repeats
//! are 1-cycle hits. Lines touched by an *outer* frame still count as
//! cached for inner frames — only crossing a function boundary *outward*
//! invalidates, which is exactly the paper's pessimism.

use crate::Addr;
use simany_time::IdHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// The lines one scope frame touched.
type Frame = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// Scope-tracked pessimistic L1.
#[derive(Debug, Clone)]
pub struct ScopedL1 {
    line_bytes: u32,
    frames: Vec<Frame>,
    hits: u64,
    misses: u64,
}

impl ScopedL1 {
    /// New model with the given line size; starts with one root frame.
    pub fn new(line_bytes: u32) -> Self {
        assert!(line_bytes > 0);
        ScopedL1 {
            line_bytes,
            frames: vec![Frame::default()],
            hits: 0,
            misses: 0,
        }
    }

    /// Enter a function scope.
    pub fn enter_scope(&mut self) {
        self.frames.push(Frame::default());
    }

    /// Leave a function scope, forgetting every line it touched.
    pub fn exit_scope(&mut self) {
        assert!(self.frames.len() > 1, "cannot exit the root scope");
        self.frames.pop();
    }

    /// Current scope depth (root = 1).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Touch `addr`; returns true on an L1 hit (line already touched in any
    /// live scope), false on a miss (records the line in the current
    /// scope).
    pub fn access(&mut self, addr: Addr) -> bool {
        let line = crate::line_of(addr, self.line_bytes);
        if self.frames.iter().any(|f| f.contains(&line)) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            self.frames.last_mut().expect("root frame").insert(line);
            false
        }
    }

    /// Drop a line from every live scope: its next access misses. Meant
    /// for a coherence model that invalidates lines; the run-time system
    /// does not call it (its scopes forget lines only at function exits).
    pub fn invalidate(&mut self, addr: Addr) {
        let line = crate::line_of(addr, self.line_bytes);
        for f in &mut self.frames {
            f.remove(&line);
        }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Default for ScopedL1 {
    fn default() -> Self {
        ScopedL1::new(crate::DEFAULT_LINE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut l1 = ScopedL1::new(32);
        assert!(!l1.access(100));
        assert!(l1.access(100));
        assert!(l1.access(101)); // same 32-byte line
        assert!(!l1.access(200)); // different line
        assert_eq!(l1.stats(), (2, 2));
    }

    #[test]
    fn scope_exit_forgets_lines() {
        let mut l1 = ScopedL1::new(32);
        l1.enter_scope();
        assert!(!l1.access(100));
        assert!(l1.access(100));
        l1.exit_scope();
        // Function boundary crossed: the data is gone.
        assert!(!l1.access(100));
    }

    #[test]
    fn outer_scope_lines_visible_inside() {
        let mut l1 = ScopedL1::new(32);
        assert!(!l1.access(100)); // touched at root
        l1.enter_scope();
        assert!(l1.access(100)); // still cached inside the call
        l1.exit_scope();
        assert!(l1.access(100)); // root's own touch persists
    }

    #[test]
    fn nested_scopes() {
        let mut l1 = ScopedL1::new(32);
        l1.enter_scope();
        l1.access(64);
        l1.enter_scope();
        assert_eq!(l1.depth(), 3);
        l1.access(128);
        assert!(l1.access(64)); // outer frame's line
        l1.exit_scope();
        assert!(!l1.access(128)); // inner frame's line is gone
        l1.exit_scope();
    }

    #[test]
    fn invalidate_removes_from_all_frames() {
        let mut l1 = ScopedL1::new(32);
        l1.access(100);
        l1.enter_scope();
        l1.access(100); // hit, recorded only in root
        l1.invalidate(100);
        assert!(!l1.access(100));
    }

    #[test]
    #[should_panic(expected = "root scope")]
    fn cannot_exit_root() {
        let mut l1 = ScopedL1::new(32);
        l1.exit_scope();
    }
}
