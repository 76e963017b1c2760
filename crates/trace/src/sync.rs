//! Poison-recovering mutex acquisition.
//!
//! A thread that panics while holding a [`Mutex`] poisons it; every later
//! `.lock().expect(..)` then aborts the process even though the panicking
//! frame has long unwound. For the long-lived prover substrate (scheduler
//! queues, the metrics registry, trace sinks) that turns one bad goal into
//! a process-wide outage. [`lock_recover`] instead clears the poison flag,
//! counts the recovery, and hands back the guard — callers that need
//! stronger invariants than "the data is structurally valid" layer their
//! own repair on top.
//!
//! Recoveries are counted in a plain process-wide atomic (surfaced as the
//! `cycleq_lock_poison_recoveries_total` counter family in
//! [`metrics()`](crate::metrics) snapshots) rather than a registry handle,
//! so the helper stays safe to use on the registry's own lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Prometheus family name under which [`poison_recoveries`] is exported.
pub(crate) const POISON_FAMILY: &str = "cycleq_lock_poison_recoveries_total";
pub(crate) const POISON_HELP: &str =
    "Poisoned mutexes recovered (poison cleared, guard handed back) instead of aborting.";

static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Locks `mutex`, recovering from poisoning instead of panicking.
///
/// On a poisoned lock the poison flag is cleared, the process-wide
/// [`poison_recoveries`] counter is bumped, and the inner guard is returned
/// as-is. The protected value is whatever the panicking thread left behind —
/// safe for monotone state (queues, memo tables, sinks) where a torn update
/// is at worst a lost entry, not a broken invariant.
///
/// ```
/// use std::sync::{Arc, Mutex};
///
/// let m = Arc::new(Mutex::new(0_u32));
/// let m2 = Arc::clone(&m);
/// let _ = std::thread::spawn(move || {
///     let _guard = m2.lock().unwrap();
///     panic!("poison the lock");
/// })
/// .join();
/// assert!(m.is_poisoned());
/// *cycleq_trace::lock_recover(&m) += 1;
/// assert!(!m.is_poisoned());
/// assert_eq!(*m.lock().unwrap(), 1);
/// ```
pub fn lock_recover<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            mutex.clear_poison();
            POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// Total poisoned-mutex recoveries performed by [`lock_recover`] since
/// process start.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;

    #[test]
    fn recovers_and_clears_poison() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let join = std::thread::spawn(move || {
            let mut g = m2.lock().expect("fresh lock");
            g.push(4);
            panic!("intentional test panic");
        })
        .join();
        assert!(join.is_err());
        assert!(m.is_poisoned());

        let before = poison_recoveries();
        {
            let g = lock_recover(&m);
            // The panicking thread's completed update is preserved.
            assert_eq!(*g, vec![1, 2, 3, 4]);
        }
        assert!(!m.is_poisoned());
        assert_eq!(poison_recoveries(), before + 1);

        // Subsequent plain locks succeed again.
        m.lock().expect("poison cleared").push(5);
    }

    #[test]
    fn unpoisoned_lock_is_untouched() {
        let m = Mutex::new(7_u8);
        let before = poison_recoveries();
        assert_eq!(*lock_recover(&m), 7);
        assert_eq!(poison_recoveries(), before);
    }

    #[test]
    fn recoveries_surface_in_snapshot() {
        let m = Arc::new(Mutex::new(()));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().expect("fresh lock");
            panic!("intentional test panic");
        })
        .join();
        let _g = lock_recover(&m);
        let snap = crate::metrics().snapshot();
        assert!(snap.value(POISON_FAMILY).is_some_and(|v| v >= 1));
    }
}
