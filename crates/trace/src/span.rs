//! Hierarchical spans over thread-local buffers.
//!
//! Cost model:
//! - disabled (default): one relaxed atomic load per [`span`] call;
//! - enabled: two `Instant` reads plus one update of the ending thread's
//!   phase table (see [`crate::registry`]); no lock, no atomic;
//! - collecting: additionally one `Vec` push per span; buffers flush into
//!   the global sink under a mutex only when the thread's span stack
//!   returns to depth zero or the buffer reaches [`FLUSH_CHUNK`] records,
//!   so no span is ever dropped and the lock stays off the hot path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::chrome::Trace;

/// Flush threshold for per-thread span buffers while collecting.
const FLUSH_CHUNK: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Debug, Default)]
struct TraceSink {
    spans: Vec<SpanRecord>,
    threads: BTreeMap<u32, String>,
}

fn sink() -> &'static Mutex<TraceSink> {
    static SINK: OnceLock<Mutex<TraceSink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(TraceSink::default()))
}

/// One finished span, timestamped relative to the process trace epoch.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace-local thread ordinal (stable per thread, assigned on first use).
    pub tid: u32,
    /// Static span name.
    pub name: &'static str,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at the time the span was open (0 = top level).
    pub depth: u16,
}

struct ThreadState {
    tid: u32,
    label: Option<String>,
    depth: u32,
    buf: Vec<SpanRecord>,
}

impl ThreadState {
    fn new() -> ThreadState {
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            label: None,
            depth: 0,
            buf: Vec::new(),
        }
    }

    fn thread_name(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{}", self.tid), str::to_owned)
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = crate::sync::lock_recover(sink());
        sink.threads
            .entry(self.tid)
            .or_insert_with(|| self.thread_name());
        sink.spans.append(&mut self.buf);
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// Globally enables or disables span timing. Disabled spans cost one
/// relaxed atomic load. Enabling also fixes the trace epoch if it is not
/// set yet.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span timing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a trace collection is currently active.
pub fn collecting() -> bool {
    COLLECTING.load(Ordering::Relaxed)
}

/// Starts collecting finished spans into the process-wide trace sink
/// (clearing any previous collection) and enables span timing.
///
/// Collection is process-global: concurrent collections interleave, so
/// tests serialise access to this pair of functions.
pub fn start_collect() {
    let _ = epoch();
    {
        let mut sink = crate::sync::lock_recover(sink());
        sink.spans.clear();
        sink.threads.clear();
    }
    set_enabled(true);
    COLLECTING.store(true, Ordering::SeqCst);
}

/// Stops collecting and returns the gathered [`Trace`]. Span timing stays
/// enabled (call [`set_enabled`] to turn it off).
pub fn finish_collect() -> Trace {
    COLLECTING.store(false, Ordering::SeqCst);
    // Flush the calling thread's buffer: worker threads flush when their
    // span stacks unwind, but the caller may still hold an open span.
    let _ = TLS.try_with(|s| s.borrow_mut().flush());
    let mut sink = crate::sync::lock_recover(sink());
    let mut spans = std::mem::take(&mut sink.spans);
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns), s.tid));
    let threads = std::mem::take(&mut sink.threads).into_iter().collect();
    Trace { spans, threads }
}

/// Labels the calling thread in exported traces (e.g. `worker-3`).
/// Without a label the OS thread name (or `thread-<tid>`) is used.
pub fn set_thread_label(label: &str) {
    let _ = TLS.try_with(|s| {
        let mut st = s.borrow_mut();
        st.label = Some(label.to_owned());
        if collecting() {
            let name = st.thread_name();
            let tid = st.tid;
            let mut sink = crate::sync::lock_recover(sink());
            sink.threads.insert(tid, name);
        }
    });
}

/// Guard returned by [`span`] / [`span!`](crate::span!); records the span
/// when dropped. Hold it in a named local (`let _g = span!(...)`), not `_`.
#[must_use = "a span ends when its guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span; prefer the [`span!`](crate::span!) macro. When tracing is
/// disabled this is one relaxed atomic load.
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { name, start: None };
    }
    let _ = TLS.try_with(|s| s.borrow_mut().depth += 1);
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        crate::registry::record(self.name, dur);
        let _ = TLS.try_with(|s| {
            let mut st = s.borrow_mut();
            st.depth = st.depth.saturating_sub(1);
            if COLLECTING.load(Ordering::Relaxed) {
                let start_ns = start
                    .checked_duration_since(epoch())
                    .unwrap_or_default()
                    .as_nanos();
                let record = SpanRecord {
                    tid: st.tid,
                    name: self.name,
                    start_ns: u64::try_from(start_ns).unwrap_or(u64::MAX),
                    dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
                    depth: u16::try_from(st.depth).unwrap_or(u16::MAX),
                };
                st.buf.push(record);
                if st.depth == 0 || st.buf.len() >= FLUSH_CHUNK {
                    st.flush();
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collection state is process-global; every test that touches it takes
    /// this lock.
    fn collect_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = collect_lock().lock().expect("test lock");
        set_enabled(false);
        let _ = crate::take_profile();
        {
            let _g = crate::span!("test_disabled_phase");
        }
        assert!(crate::take_profile().phase("test_disabled_phase").is_none());
    }

    #[test]
    fn collected_spans_nest_and_flush() {
        let _guard = collect_lock().lock().expect("test lock");
        start_collect();
        let _ = crate::take_profile();
        set_thread_label("span-test-main");
        {
            let _outer = crate::span!("test_outer");
            {
                let _inner = crate::span!("test_inner");
            }
            {
                let _inner = crate::span!("test_inner");
            }
        }
        // A worker thread contributes its own track.
        std::thread::spawn(|| {
            set_thread_label("span-test-worker");
            let _g = crate::span!("test_worker_span");
        })
        .join()
        .expect("worker");
        let trace = finish_collect();
        let profile = crate::take_profile();
        set_enabled(false);

        assert_eq!(trace.count("test_outer"), 1);
        assert_eq!(trace.count("test_inner"), 2);
        assert_eq!(trace.count("test_worker_span"), 1);
        let outer = trace
            .spans
            .iter()
            .find(|s| s.name == "test_outer")
            .expect("outer span");
        let inner: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "test_inner")
            .collect();
        for i in &inner {
            assert_eq!(i.depth, outer.depth + 1);
            assert_eq!(i.tid, outer.tid);
            assert!(i.start_ns >= outer.start_ns);
            assert!(i.start_ns + i.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        let labels: Vec<&str> = trace.threads.iter().map(|(_, n)| n.as_str()).collect();
        assert!(labels.contains(&"span-test-main"));
        assert!(labels.contains(&"span-test-worker"));

        // The calling thread's phase table holds its own spans, not the
        // worker's.
        assert_eq!(profile.phase("test_inner").map(|p| p.count), Some(2));
        assert_eq!(profile.phase("test_outer").map(|p| p.count), Some(1));
        assert!(profile.phase("test_worker_span").is_none());
    }

    #[test]
    fn enabled_without_collection_feeds_histograms_only() {
        let _guard = collect_lock().lock().expect("test lock");
        set_enabled(true);
        let _ = crate::take_profile();
        {
            let _g = crate::span!("test_histogram_only");
        }
        set_enabled(false);
        let phase = crate::take_profile()
            .phase("test_histogram_only")
            .expect("the span fed this thread's table");
        assert_eq!(phase.count, 1);
        assert!(phase.max_seconds <= phase.total_seconds);
        // Nothing leaked into the sink.
        assert!(sink()
            .lock()
            .expect("sink")
            .spans
            .iter()
            .all(|s| s.name != "test_histogram_only"));
    }
}
