//! Offline stand-in for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves `parking_lot` to this crate. It wraps `std::sync::Mutex` and
//! reproduces the one semantic difference its users rely on:
//!
//! * no lock poisoning — a panic while holding the lock (a task body that
//!   panics, or is unwound at teardown, while it holds runtime or kernel
//!   state) must not wedge every later `lock()`.

use std::sync::PoisonError;

/// RAII guard returned by [`Mutex::lock`].
pub use std::sync::MutexGuard;

/// Mutual exclusion primitive (no poisoning).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until it is available. Unlike
    /// `std::sync::Mutex`, a panic in a previous holder is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn lock_survives_holder_panic() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() = 7; // must not panic
        assert_eq!(*m.lock(), 7);
    }
}
