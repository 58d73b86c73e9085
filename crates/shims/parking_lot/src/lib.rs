//! Offline stand-in for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves `parking_lot` to this crate. It wraps `std::sync` primitives
//! and reproduces the two semantic differences the engine relies on:
//!
//! * no lock poisoning — a panic while holding the lock (the engine's
//!   `ShutdownSignal` unwind path) must not wedge every later `lock()`;
//! * `Condvar::wait` takes `&mut MutexGuard` instead of consuming the
//!   guard;
//! * `MutexGuard::unlocked` releases the lock around a closure and takes it
//!   back afterwards, also when the closure unwinds.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Mutual exclusion primitive (no poisoning).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    inner: std::sync::MutexGuard<'a, T>,
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
        MutexGuard {
            mutex: self,
            inner: self.lock_std(),
        }
    }

    fn lock_std(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
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

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Temporarily unlock the mutex to execute `f`, then lock it again
    /// before returning. The lock is also re-taken if `f` unwinds, so the
    /// guard stays valid for whoever catches the panic.
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                // SAFETY: `inner` was moved out and dropped below, so the
                // slot holds no live guard; writing the re-acquired one
                // without dropping the stale bits is exactly right.
                // `lock_std` cannot panic (poisoning is mapped away), so
                // the slot is always refilled before `s` is usable again.
                unsafe { std::ptr::write(&mut self.0.inner, self.0.mutex.lock_std()) }
            }
        }
        // SAFETY: the std guard is moved out of its slot and dropped (which
        // unlocks); `Relock` — armed before `f` can run — refills the slot
        // on both the return and the unwind path, and the exclusive borrow
        // of `s` keeps anyone from observing it in between.
        unsafe { drop(std::ptr::read(&s.inner)) };
        let _relock = Relock(s);
        f()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable compatible with [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Block the current thread until notified. The guard is atomically
    /// released while waiting and re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // std's wait consumes the guard and returns a fresh one; move the
        // inner guard out and back without running destructors in between.
        // SAFETY: `inner` is moved out with `ptr::read` and unconditionally
        // replaced by `ptr::write` before anything can observe `guard`
        // again. `std::sync::Condvar::wait` only panics if the guard does
        // not belong to the condvar's associated mutex, which cannot happen
        // through this safe wrapper (and poisoning is mapped back to the
        // guard, not propagated as a panic).
        unsafe {
            let std_guard = std::ptr::read(&guard.inner);
            let reacquired = self
                .inner
                .wait(std_guard)
                .unwrap_or_else(PoisonError::into_inner);
            std::ptr::write(&mut guard.inner, reacquired);
        }
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        true
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
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

    #[test]
    fn unlocked_releases_and_relocks() {
        let m = Arc::new(Mutex::new(0u32));
        let mut g = m.lock();
        let m2 = Arc::clone(&m);
        // The other thread can only take the lock while `g` is unlocked.
        let r = MutexGuard::unlocked(&mut g, move || {
            std::thread::spawn(move || {
                *m2.lock() += 1;
            })
            .join()
            .unwrap();
            7
        });
        assert_eq!((r, *g), (7, 1));
        assert!(m.inner.try_lock().is_err(), "locked again on return");
    }

    #[test]
    fn unlocked_relocks_when_the_closure_unwinds() {
        let m = Mutex::new(1u32);
        let mut g = m.lock();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MutexGuard::unlocked(&mut g, || panic!("inside unlocked"))
        }));
        assert!(r.is_err());
        // The guard is valid and holds the lock: use it, drop it, re-lock.
        assert!(m.inner.try_lock().is_err(), "locked again after the unwind");
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        t.join().unwrap();
    }
}
