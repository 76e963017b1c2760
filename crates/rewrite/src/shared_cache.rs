//! A program-scoped, store-independent normal-form cache shared across
//! workers and across `prove` calls.
//!
//! Each [`crate::MemoRewriter`] owns its own [`cycleq_term::TermStore`], so
//! `TermId`s cannot cross rewriter (or thread) boundaries. What *can* cross
//! is the canonical flat word encoding of a term
//! ([`cycleq_term::TermStore::canonical_words`]): it is α-invariant in the
//! term's variables and refers to function symbols by their stable
//! [`cycleq_term::SymId`] index, so it means the same thing to every
//! rewriter working over the same [`crate::Program`].
//!
//! An entry maps the canonical words of a subject term to the canonical
//! words of its `R`-normal form, *encoded against the subject's variable
//! numbering* (rule right-hand sides introduce no fresh variables, so the
//! normal form's variables are a subset of the subject's). A consumer that
//! interned an α-equivalent subject inverts its own rename map to decode
//! the cached normal form straight into its own store.
//!
//! The cache is safe to share between threads: entries are keyed purely by
//! program-relative structure, only *complete* normal forms are ever
//! published (fuel- or deadline-cut reductions never are), and on the
//! orthogonal systems of Remark 2.1 normal forms are unique, so two workers
//! racing to publish the same key write the same value.
//!
//! **Scope caveat:** keys do not name the program. Sharing one cache
//! between rewriters for *different* programs is unsound (the same `SymId`
//! index may denote different symbols); keep one cache per loaded program,
//! as `cycleq::Session` does.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cycleq_trace::{metrics, Counter, Gauge};

/// Process-wide registry handles, shared by every cache instance (the
/// metric families therefore aggregate across caches; `cycleq::Session`
/// keeps one cache per program, so in practice they describe that one).
#[derive(Debug, Clone)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    entries: Gauge,
    poison_recoveries: Counter,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: std::sync::OnceLock<CacheMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: metrics().counter(
            "cycleq_cache_hits_total",
            "Shared normal-form cache lookups that found an entry.",
        ),
        misses: metrics().counter(
            "cycleq_cache_misses_total",
            "Shared normal-form cache lookups that found nothing.",
        ),
        evictions: metrics().counter(
            "cycleq_cache_evictions_total",
            "Entries evicted from bounded shared normal-form caches.",
        ),
        entries: metrics().gauge(
            "cycleq_cache_entries",
            "Entries currently stored across shared normal-form caches.",
        ),
        poison_recoveries: metrics().counter(
            "cycleq_cache_poison_recoveries_total",
            "Poisoned cache shards recovered by dropping their entries.",
        ),
    })
}

/// Number of independently locked shards. Workers normalising unrelated
/// goals rarely contend on the same shard; 16 keeps the memory overhead
/// trivial while making lock contention negligible for realistic `--jobs`.
const SHARDS: usize = 16;

/// Entries whose subject-plus-normal-form node count exceeds this are not
/// published: encoding/decoding is linear in term size, and gigantic normal
/// forms (deep numeral towers) would bloat the cache for reductions that
/// are cheap to replay locally relative to their transfer cost.
const MAX_ENTRY_NODES: usize = 16_384;

/// Counters describing a cache's lifetime activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries evicted to stay under the configured capacity (zero for
    /// unbounded caches).
    pub evictions: u64,
    /// Poisoned shards recovered by dropping their entries (a panic while a
    /// shard lock was held; the cache is a pure memo, so losing the shard
    /// only costs warmth, never soundness).
    pub poison_recoveries: u64,
}

/// Canonical flat term encoding, as produced by
/// [`cycleq_term::TermStore::canonical_words`].
type Words = Box<[u32]>;

/// A stored normal form plus its second-chance reference bit.
#[derive(Debug)]
struct Entry {
    nf: Words,
    /// Set by every lookup hit; gives the entry one extra trip around the
    /// eviction clock.
    referenced: bool,
}

/// One shard: the entry map plus the clock queue driving second-chance
/// eviction. Both live under one mutex, so the queue and map never
/// disagree about membership.
#[derive(Debug, Default)]
struct ShardMap {
    map: HashMap<Words, Entry>,
    /// Keys in clock order. An entry is evicted when its key reaches the
    /// front with the reference bit clear; a set bit buys it one rotation.
    clock: VecDeque<Words>,
}

impl ShardMap {
    /// Evicts entries until the shard is under `cap`, returning how many
    /// were evicted. Second chance: a referenced entry at the clock hand is
    /// unmarked and pushed to the back instead of evicted. Terminates
    /// because every rotation clears bits: at most one full trip precedes
    /// each eviction.
    fn evict_to(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > cap {
            let Some(key) = self.clock.pop_front() else {
                break; // unreachable: clock and map stay in sync
            };
            match self.map.get_mut(&key) {
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.clock.push_back(key);
                }
                Some(_) => {
                    self.map.remove(&key);
                    evicted += 1;
                }
                None => {} // unreachable: eviction is the only removal
            }
        }
        evicted
    }
}

#[derive(Debug)]
struct Shard {
    map: Mutex<ShardMap>,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Shard>,
    /// Per-shard entry cap; `None` is unbounded.
    shard_cap: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl Inner {
    /// Locks a shard, recovering from poisoning by **dropping the shard's
    /// entries**. A panic while the shard lock was held may have torn the
    /// map/clock invariant (e.g. a key pushed to the clock but not yet
    /// inserted), so unlike a generic recovering lock this one resets the
    /// shard to empty. The cache is a pure memo over unique normal forms:
    /// losing a shard costs re-derivation work, never correctness.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> std::sync::MutexGuard<'a, ShardMap> {
        match shard.map.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                shard.map.clear_poison();
                let mut guard = poisoned.into_inner();
                let dropped = guard.map.len();
                guard.map.clear();
                guard.clock.clear();
                if dropped > 0 {
                    cache_metrics().entries.sub(dropped as u64);
                }
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                cache_metrics().poison_recoveries.inc();
                guard
            }
        }
    }
}

/// A thread-safe map from canonical subject words to canonical normal-form
/// words. Cheap to clone (clones share the same underlying map).
#[derive(Clone, Debug)]
pub struct SharedNormalFormCache {
    inner: Arc<Inner>,
}

impl Default for SharedNormalFormCache {
    fn default() -> SharedNormalFormCache {
        SharedNormalFormCache::new()
    }
}

impl SharedNormalFormCache {
    /// An empty, unbounded cache.
    pub fn new() -> SharedNormalFormCache {
        SharedNormalFormCache::bounded(None)
    }

    /// An empty cache holding at most roughly `capacity` entries, evicting
    /// with a second-chance (clock) policy once full: a hit marks its entry,
    /// a marked entry at the clock hand survives one extra rotation.
    ///
    /// The bound is enforced per shard (`capacity / 16`, floored at one
    /// entry per shard), so the total is approximate: tiny capacities round
    /// up to one entry per shard, and skewed key distributions can leave
    /// some shards below their share.
    pub fn with_capacity(capacity: usize) -> SharedNormalFormCache {
        SharedNormalFormCache::bounded(Some((capacity / SHARDS).max(1)))
    }

    fn bounded(shard_cap: Option<usize>) -> SharedNormalFormCache {
        // Register the cache's metric families eagerly so snapshots taken
        // before the first lookup already list them.
        let _ = cache_metrics();
        SharedNormalFormCache {
            inner: Arc::new(Inner {
                shards: (0..SHARDS)
                    .map(|_| Shard {
                        map: Mutex::new(ShardMap::default()),
                    })
                    .collect(),
                shard_cap,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                poison_recoveries: AtomicU64::new(0),
            }),
        }
    }

    /// The configured entry capacity (`None` when unbounded). Approximate:
    /// see [`SharedNormalFormCache::with_capacity`].
    pub fn capacity(&self) -> Option<usize> {
        self.inner.shard_cap.map(|c| c * SHARDS)
    }

    fn shard(&self, key: &[u32]) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.inner.shards[(h.finish() as usize) % SHARDS]
    }

    /// The cached normal-form words for a subject, counting the hit/miss
    /// and marking the entry's second-chance bit.
    pub fn lookup(&self, key: &[u32]) -> Option<Words> {
        let mut shard = self.inner.lock_shard(self.shard(key));
        let found = shard.map.get_mut(key).map(|e| {
            e.referenced = true;
            e.nf.clone()
        });
        drop(shard);
        match &found {
            Some(_) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                cache_metrics().hits.inc();
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                cache_metrics().misses.inc();
            }
        };
        found
    }

    /// Publishes a subject → normal-form entry. First writer wins (normal
    /// forms are unique on the systems we run, so racers agree anyway);
    /// oversized entries are silently dropped (see `MAX_ENTRY_NODES`),
    /// and on bounded caches the insert may evict the coldest entries.
    pub fn publish(&self, key: Words, nf: Words) {
        let mut shard = self.inner.lock_shard(self.shard(&key));
        if !shard.map.contains_key(&key) {
            // The clock (a second copy of every key) only exists on bounded
            // caches; an unbounded cache never evicts, so feeding its clock
            // would just duplicate key memory forever.
            if self.inner.shard_cap.is_some() {
                shard.clock.push_back(key.clone());
            }
            shard.map.insert(
                key,
                Entry {
                    nf,
                    referenced: false,
                },
            );
            cache_metrics().entries.add(1);
            if let Some(cap) = self.inner.shard_cap {
                let evicted = shard.evict_to(cap);
                if evicted > 0 {
                    self.inner.evictions.fetch_add(evicted, Ordering::Relaxed);
                    cache_metrics().evictions.add(evicted);
                    cache_metrics().entries.sub(evicted);
                }
            }
        }
    }

    /// Whether a subject/normal-form pair of this node count is small
    /// enough to publish.
    pub fn admits(subject_nodes: usize, nf_nodes: usize) -> bool {
        subject_nodes.saturating_add(nf_nodes) <= MAX_ENTRY_NODES
    }

    /// The number of entries currently stored.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| self.inner.lock_shard(s).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss/eviction counters and current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries: self.len(),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            poison_recoveries: self.inner.poison_recoveries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_lookup_round_trips() {
        let cache = SharedNormalFormCache::new();
        assert!(cache.is_empty());
        let key: Box<[u32]> = vec![1, 2, 3].into();
        let nf: Box<[u32]> = vec![4, 5].into();
        assert_eq!(cache.lookup(&key), None);
        cache.publish(key.clone(), nf.clone());
        assert_eq!(cache.lookup(&key), Some(nf));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn first_publish_wins() {
        let cache = SharedNormalFormCache::new();
        let key: Box<[u32]> = vec![9].into();
        cache.publish(key.clone(), vec![1].into());
        cache.publish(key.clone(), vec![2].into());
        assert_eq!(cache.lookup(&key).as_deref(), Some(&[1u32][..]));
    }

    #[test]
    fn clones_share_storage() {
        let a = SharedNormalFormCache::new();
        let b = a.clone();
        a.publish(vec![7].into(), vec![8].into());
        assert_eq!(b.lookup(&[7]).as_deref(), Some(&[8u32][..]));
        assert_eq!(b.stats().hits, 1);
    }

    #[test]
    fn size_guard_admits_small_rejects_huge() {
        assert!(SharedNormalFormCache::admits(100, 100));
        assert!(!SharedNormalFormCache::admits(MAX_ENTRY_NODES, 1));
        assert!(!SharedNormalFormCache::admits(usize::MAX, usize::MAX));
    }

    #[test]
    fn bounded_cache_evicts_to_capacity() {
        let cache = SharedNormalFormCache::with_capacity(64);
        assert_eq!(cache.capacity(), Some(64));
        for i in 0..1_000u32 {
            cache.publish(vec![i].into(), vec![i, i].into());
        }
        assert!(
            cache.len() <= 64,
            "cache grew past its capacity: {}",
            cache.len()
        );
        let s = cache.stats();
        assert!(s.evictions > 0, "expected evictions, got {s:?}");
        assert_eq!(s.entries, cache.len());
        // Every surviving entry still round-trips.
        let mut live = 0;
        for i in 0..1_000u32 {
            if let Some(nf) = cache.lookup(&[i]) {
                assert_eq!(nf.as_ref(), &[i, i]);
                live += 1;
            }
        }
        assert_eq!(live, cache.len());
    }

    #[test]
    fn second_chance_keeps_recently_used_entries() {
        // One shard-sized working set: keep hitting key A while flooding
        // with cold keys; the reference bit must keep A resident.
        let cache = SharedNormalFormCache::with_capacity(SHARDS * 4);
        let hot: Box<[u32]> = vec![42].into();
        cache.publish(hot.clone(), vec![1].into());
        for i in 100..400u32 {
            assert!(cache.lookup(&hot).is_some(), "hot entry evicted at i={i}");
            cache.publish(vec![i].into(), vec![2].into());
        }
        assert!(cache.lookup(&hot).is_some());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn unbounded_cache_never_evicts_and_keeps_no_clock() {
        let cache = SharedNormalFormCache::new();
        assert_eq!(cache.capacity(), None);
        for i in 0..500u32 {
            cache.publish(vec![i].into(), vec![i].into());
        }
        assert_eq!(cache.len(), 500);
        assert_eq!(cache.stats().evictions, 0);
        // No duplicated key memory: the eviction clock stays empty when
        // there is no capacity to enforce.
        let queued: usize = cache
            .inner
            .shards
            .iter()
            .map(|s| s.map.lock().unwrap().clock.len())
            .sum();
        assert_eq!(queued, 0);
    }

    #[test]
    fn poisoned_shard_recovers_and_stays_correct() {
        let cache = SharedNormalFormCache::new();
        let key: Box<[u32]> = vec![11, 22].into();
        let other: Box<[u32]> = vec![33].into();
        cache.publish(key.clone(), vec![1].into());
        cache.publish(other.clone(), vec![2].into());

        // Poison the shard holding `key` by panicking while its lock is
        // held — the failure mode a worker panic mid-publish would produce.
        std::thread::scope(|s| {
            let shard = cache.shard(&key);
            let handle = s.spawn(move || {
                let _guard = shard.map.lock().expect("fresh lock");
                panic!("intentional test panic");
            });
            assert!(handle.join().is_err());
        });
        assert!(cache.shard(&key).map.is_poisoned());

        // The next lookup recovers: the shard's entries are dropped (a pure
        // memo, so this is only a warmth loss) and the poison is cleared.
        assert_eq!(cache.lookup(&key), None);
        assert!(!cache.shard(&key).map.is_poisoned());
        assert!(cache.stats().poison_recoveries >= 1);

        // Subsequent publishes and lookups behave normally again.
        cache.publish(key.clone(), vec![9].into());
        assert_eq!(cache.lookup(&key).as_deref(), Some(&[9u32][..]));
        // Entries in *other* shards were untouched (distinct shard only if
        // the hashes differ; if they collide the entry was legitimately
        // dropped, so guard the assertion).
        if !std::ptr::eq(cache.shard(&other), cache.shard(&key)) {
            assert_eq!(cache.lookup(&other).as_deref(), Some(&[2u32][..]));
        }
        assert_eq!(cache.stats().entries, cache.len());
    }

    #[test]
    fn concurrent_publishes_and_lookups_are_consistent() {
        let cache = SharedNormalFormCache::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..200u32 {
                        let key: Box<[u32]> = vec![i % 50].into();
                        cache.publish(key.clone(), vec![(i % 50) * 2].into());
                        let got = cache.lookup(&key).expect("just published");
                        assert_eq!(got.as_ref(), &[(i % 50) * 2], "thread {t}");
                    }
                });
            }
        });
        assert_eq!(cache.len(), 50);
    }
}
