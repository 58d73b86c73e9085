//! Message envelopes and opaque payloads.
//!
//! The network layer is agnostic to message *content*: payloads are opaque
//! boxes owned by whichever layer sent them (the task run-time system sends
//! `PROBE`/`TASK_SPAWN`/`DATA_REQUEST`-style payloads, see
//! `simany-runtime`). The envelope carries everything the simulator itself
//! needs: endpoints, virtual timestamps, size and ordering information.

use simany_time::VirtualTime;
use simany_topology::CoreId;
use std::any::Any;
use std::fmt;

/// Opaque message payload. Layers above the network downcast it back.
pub struct Payload(Option<Box<dyn Any>>);

impl Payload {
    /// Wrap a typed payload.
    pub fn new<T: Any>(value: T) -> Self {
        Payload(Some(Box::new(value)))
    }

    /// Empty payload (pure control/timing messages in tests).
    pub fn none() -> Self {
        Payload(None)
    }

    /// True iff a value is present.
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// Take the payload as `T`; panics if the type does not match (a
    /// protocol bug, never a data-dependent condition).
    pub fn take<T: Any>(&mut self) -> T {
        let boxed = self.0.take().expect("payload already taken or empty");
        *boxed
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("payload type mismatch"))
    }

    /// Inspect the payload as `&T` without consuming it.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_deref().and_then(|b| b.downcast_ref())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({})", if self.0.is_some() { "..." } else { "-" })
    }
}

/// A message in flight (or delivered): endpoints, virtual timestamps,
/// payload and ordering metadata.
#[derive(Debug)]
pub struct Envelope {
    /// Sender core.
    pub src: CoreId,
    /// Destination core.
    pub dst: CoreId,
    /// Virtual time at which the sender emitted the message (the initiator
    /// stamp of paper §II.A).
    pub sent: VirtualTime,
    /// Virtual time at which the destination can observe the message (sender
    /// stamp plus all traversal delays).
    pub arrival: VirtualTime,
    /// Architectural size in bytes (drives serialization delays).
    pub size_bytes: u32,
    /// Global send sequence (monotonically increasing per network).
    pub seq: u64,
    /// Opaque content.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trip() {
        let mut p = Payload::new(42u32);
        assert!(p.is_some());
        assert_eq!(p.downcast_ref::<u32>(), Some(&42));
        assert_eq!(p.take::<u32>(), 42);
        assert!(!p.is_some());
    }

    #[test]
    fn empty_payload() {
        let p = Payload::none();
        assert!(!p.is_some());
        assert_eq!(p.downcast_ref::<u32>(), None);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_type_panics() {
        let mut p = Payload::new("hello");
        let _: u64 = p.take();
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn double_take_panics() {
        let mut p = Payload::new(1u8);
        let _: u8 = p.take();
        let _: u8 = p.take();
    }
}
