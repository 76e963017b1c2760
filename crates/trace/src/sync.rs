//! Poison-recovering mutex acquisition.
//!
//! A thread that panics while holding a [`Mutex`] poisons it; every later
//! `.lock().expect(..)` then aborts the process even though the panicking
//! frame has long unwound. For the long-lived prover substrate (scheduler
//! slots, the trace sink, a session's last profile) that turns one bad goal
//! into a process-wide outage. [`lock_recover`] instead clears the poison
//! flag, counts the recovery, and hands back the guard — callers that need
//! stronger invariants than "the data is structurally valid" layer their
//! own repair on top.
//!
//! Recoveries are counted in one process-wide atomic, the only count in
//! this crate that is process-global by design: a poisoned lock may belong
//! to no particular call. [`Exposition::poison_recoveries`](crate::Exposition::poison_recoveries)
//! renders it as the `cycleq_lock_poison_recoveries_total` counter family.

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
    use std::sync::{Arc, Mutex, PoisonError};

    use super::*;

    /// The recovery counter is process-wide, so every test that reads or
    /// bumps it holds this lock; otherwise one test's recovery lands
    /// between another's before-and-after reads.
    static COUNTER_LOCK: Mutex<()> = Mutex::new(());

    fn hold_counter() -> MutexGuard<'static, ()> {
        COUNTER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn recovers_and_clears_poison() {
        let _counter = hold_counter();
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
        let _counter = hold_counter();
        let m = Mutex::new(7_u8);
        let before = poison_recoveries();
        assert_eq!(*lock_recover(&m), 7);
        assert_eq!(poison_recoveries(), before);
    }

    #[test]
    fn recoveries_surface_in_snapshot() {
        let _counter = hold_counter();
        let m = Arc::new(Mutex::new(()));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().expect("fresh lock");
            panic!("intentional test panic");
        })
        .join();
        let _g = lock_recover(&m);
        let mut out = crate::Exposition::default();
        out.poison_recoveries();
        let text = out.to_string();
        assert!(text.contains(&format!("# TYPE {POISON_FAMILY} counter\n")));
        let rendered: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{POISON_FAMILY} ")))
            .and_then(|v| v.parse().ok())
            .expect("one unlabeled sample");
        assert!(rendered >= 1);
    }
}
