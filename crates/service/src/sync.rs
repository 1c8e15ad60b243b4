//! Poison-tolerant synchronization helpers for the serving path.
//!
//! `std`'s lock APIs return `Err` when another thread panicked while holding
//! the lock.  In a server that error is not actionable at the call site —
//! aborting the request (or the whole connection) over someone *else's* panic
//! just amplifies the failure — so serving code recovers the guard and
//! carries on.  Every state these locks protect is safe to observe after an
//! interrupted critical section: the scheduler's lanes and permit count, and
//! the HTTP server's registry of open connections, none of which have
//! multi-step invariants that a panic could leave half-applied.
//!
//! Centralizing the recovery here also keeps the `panic_free` lint rule
//! meaningful: the serving crates contain no `.lock().expect(…)` at all, and
//! `lcmsr-lint`'s `lock_nesting` rule counts calls to these helpers exactly
//! like raw `.lock()` calls, so routing through them never hides a
//! double-acquisition from the audit.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquires `mutex`, recovering the guard if a panicking thread poisoned it.
pub(crate) fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`], recovering the guard on poison.
pub(crate) fn wait_or_recover<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_or_recover_survives_poison() {
        let mutex = Arc::new(Mutex::new(7_u32));
        let poisoner = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.lock().is_err(), "the lock should be poisoned");
        assert_eq!(*lock_or_recover(&mutex), 7);
    }
}
