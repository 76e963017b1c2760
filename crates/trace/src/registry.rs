//! The per-thread phase registry, and the values read out of it.
//!
//! Every thread keeps its own table of span durations by phase name: a
//! [`span!`](crate::span!) guard adds its duration to the table of the
//! thread it ends on (while tracing is enabled), and [`take_profile`]
//! empties the calling thread's table into a [`Profile`]. No table is
//! shared between threads, so a caller that takes the table around each
//! unit of work it runs (`Session::prove_many_with` does so around each
//! goal) gets exactly that work's spans, whatever else the process runs.
//!
//! Counts and times are plain values: a [`Histogram`] of log₂ buckets,
//! merged by addition, and an [`Exposition`] that renders such values in
//! Prometheus text format.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// Bucket boundaries: `2^8 ns` (256 ns) doubling up to `2^34 ns` (~17.2 s),
/// plus `+Inf`. 27 finite buckets cover everything from a warm memo hit to a
/// timed-out goal.
const FIRST_EXP: u32 = 8;
const LAST_EXP: u32 = 34;
const FINITE_BUCKETS: usize = (LAST_EXP - FIRST_EXP + 1) as usize;
const NUM_BUCKETS: usize = FINITE_BUCKETS + 1;

/// The histogram family a [`Profile`] renders as, labeled
/// `phase="<span name>"`.
const PHASE_FAMILY: &str = "cycleq_phase_seconds";
const PHASE_HELP: &str = "Time spent per span phase (inclusive of child spans).";

/// A log₂-bucketed latency histogram (seconds, stored as ns).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    sum_ns: u64,
    count: u64,
    max_ns: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(ns)] += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds every observation of `other`.
    fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of observations.
    fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, in seconds.
    fn sum_seconds(&self) -> f64 {
        ns_to_seconds(self.sum_ns)
    }

    /// Largest single observation, in seconds (not exposed in Prometheus
    /// text format).
    fn max_seconds(&self) -> f64 {
        ns_to_seconds(self.max_ns)
    }
}

/// Maps a nanosecond observation to its bucket (last bucket is `+Inf`).
fn bucket_index(ns: u64) -> usize {
    if ns <= (1 << FIRST_EXP) {
        return 0;
    }
    // Ceil of log2(ns): number of bits needed to represent ns - 1.
    let ceil_log2 = 64 - (ns - 1).leading_zeros();
    usize::try_from(ceil_log2 - FIRST_EXP)
        .unwrap_or(NUM_BUCKETS - 1)
        .min(NUM_BUCKETS - 1)
}

/// Upper bound of finite bucket `idx`, in nanoseconds.
fn bucket_bound_ns(idx: usize) -> u64 {
    1u64 << (FIRST_EXP + u32::try_from(idx).unwrap_or(0))
}

#[allow(clippy::cast_precision_loss)]
fn ns_to_seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Span times by phase: what the spans of one piece of work added up to.
/// Obtained from [`take_profile`]; the profiles of several threads combine
/// with [`Profile::merge`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    phases: BTreeMap<&'static str, Histogram>,
}

impl Profile {
    /// Looks up a phase by span name.
    pub fn phase(&self, name: &str) -> Option<PhaseStat> {
        self.phases
            .get_key_value(name)
            .map(|(&phase, h)| PhaseStat::of(phase, h))
    }

    /// Every phase observed, sorted by name.
    pub fn phases(&self) -> impl Iterator<Item = PhaseStat> + '_ {
        self.phases
            .iter()
            .map(|(&phase, h)| PhaseStat::of(phase, h))
    }

    /// Adds the spans of `other`.
    pub fn merge(&mut self, other: &Profile) {
        for (&phase, h) in &other.phases {
            self.phases.entry(phase).or_default().merge(h);
        }
    }
}

/// Aggregate timing of one span name.
///
/// Totals are *inclusive* of child spans: a recursive `expand` span counts
/// its nested expansions' time again, so per-phase totals are attribution
/// weights, not a partition of wall-clock time.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    /// Span name (`prove_goal`, `round`, `normalize`, ...).
    pub phase: &'static str,
    /// Number of spans recorded.
    pub count: u64,
    /// Total time across those spans, seconds.
    pub total_seconds: f64,
    /// Longest single span, seconds.
    pub max_seconds: f64,
}

impl PhaseStat {
    fn of(phase: &'static str, h: &Histogram) -> PhaseStat {
        PhaseStat {
            phase,
            count: h.count(),
            total_seconds: h.sum_seconds(),
            max_seconds: h.max_seconds(),
        }
    }
}

thread_local! {
    static PHASES: RefCell<Profile> = const {
        RefCell::new(Profile {
            phases: BTreeMap::new(),
        })
    };
}

/// Adds one finished span to the calling thread's table.
pub(crate) fn record(phase: &'static str, dur: Duration) {
    let _ = PHASES.try_with(|t| t.borrow_mut().phases.entry(phase).or_default().observe(dur));
}

/// Empties the calling thread's phase table into a [`Profile`]: every span
/// that ended on this thread, while tracing was enabled, since the last
/// take.
///
/// ```
/// cycleq_trace::set_enabled(true);
/// let _ = cycleq_trace::take_profile(); // start from an empty table
/// {
///     let _g = cycleq_trace::span!("normalize");
/// }
/// let profile = cycleq_trace::take_profile();
/// assert_eq!(profile.phase("normalize").map(|p| p.count), Some(1));
/// assert!(cycleq_trace::take_profile().phase("normalize").is_none());
/// cycleq_trace::set_enabled(false);
/// ```
pub fn take_profile() -> Profile {
    PHASES
        .try_with(|t| std::mem::take(&mut *t.borrow_mut()))
        .unwrap_or_default()
}

/// Prometheus text exposition built from values. Families render sorted by
/// name, each with one `# HELP` and one `# TYPE` line and its samples in
/// the order they were added.
///
/// ```
/// let mut out = cycleq_trace::Exposition::default();
/// out.counter("doc_requests_total", "Requests served.", "", 3);
/// assert!(out.to_string().contains("doc_requests_total 3\n"));
/// ```
#[derive(Debug, Default)]
pub struct Exposition {
    families: BTreeMap<String, Family>,
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: &'static str,
    samples: String,
}

impl Exposition {
    fn family(&mut self, name: &str, help: &str, kind: &'static str) -> &mut String {
        let family = self
            .families
            .entry(name.to_owned())
            .or_insert_with(|| Family {
                help: help.to_owned(),
                kind,
                samples: String::new(),
            });
        debug_assert_eq!(family.kind, kind, "family `{name}` added with two kinds");
        &mut family.samples
    }

    /// Adds a counter sample; `labels` is the literal label string rendered
    /// inside `{...}`, e.g. `status="proved"` (empty for none).
    pub fn counter(&mut self, name: &str, help: &str, labels: &str, value: u64) {
        let out = self.family(name, help, "counter");
        write_sample(out, name, labels, &value.to_string());
    }

    /// Adds a gauge sample (see [`Exposition::counter`] for `labels`).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &str, value: u64) {
        let out = self.family(name, help, "gauge");
        write_sample(out, name, labels, &value.to_string());
    }

    /// Adds a histogram sample: its cumulative `_bucket` lines, `_sum` and
    /// `_count` (see [`Exposition::counter`] for `labels`).
    pub fn histogram(&mut self, name: &str, help: &str, labels: &str, h: &Histogram) {
        let out = self.family(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        let mut cumulative = 0;
        for (idx, n) in h.buckets[..FINITE_BUCKETS].iter().enumerate() {
            cumulative += n;
            let le = format_f64(ns_to_seconds(bucket_bound_ns(idx)));
            let labels = join_labels(labels, &format!("le=\"{le}\""));
            write_sample(out, &bucket, &labels, &cumulative.to_string());
        }
        let inf = join_labels(labels, "le=\"+Inf\"");
        write_sample(out, &bucket, &inf, &h.count.to_string());
        let sum = format_f64(h.sum_seconds());
        write_sample(out, &format!("{name}_sum"), labels, &sum);
        write_sample(out, &format!("{name}_count"), labels, &h.count.to_string());
    }

    /// Adds one `cycleq_phase_seconds{phase="…"}` histogram sample per
    /// phase of `profile`.
    pub fn profile(&mut self, profile: &Profile) {
        for (phase, h) in &profile.phases {
            self.histogram(PHASE_FAMILY, PHASE_HELP, &format!("phase=\"{phase}\""), h);
        }
    }

    /// Adds the process-wide [`poison_recoveries`](crate::poison_recoveries)
    /// count as `cycleq_lock_poison_recoveries_total`.
    pub fn poison_recoveries(&mut self) {
        self.counter(
            crate::sync::POISON_FAMILY,
            crate::sync::POISON_HELP,
            "",
            crate::sync::poison_recoveries(),
        );
    }
}

impl fmt::Display for Exposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, family) in &self.families {
            writeln!(f, "# HELP {name} {}", family.help)?;
            writeln!(f, "# TYPE {name} {}", family.kind)?;
            f.write_str(&family.samples)?;
        }
        Ok(())
    }
}

fn write_sample(out: &mut String, name: &str, labels: &str, value: &str) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

fn join_labels(a: &str, b: &str) -> String {
    if a.is_empty() {
        b.to_owned()
    } else {
        format!("{a},{b}")
    }
}

/// Formats an `f64` for Prometheus text: plain decimal, trailing zeros
/// trimmed (bucket bounds are exact powers of two in ns, so nine decimals
/// are always sufficient).
fn format_f64(v: f64) -> String {
    let s = format!("{v:.9}");
    let s = s.trim_end_matches('0');
    let s = s.strip_suffix('.').unwrap_or(s);
    if s.is_empty() {
        "0".to_owned()
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(256), 0);
        assert_eq!(bucket_index(257), 1);
        assert_eq!(bucket_index(512), 1);
        assert_eq!(bucket_index(1 << 34), FINITE_BUCKETS - 1);
        assert_eq!(bucket_index((1 << 34) + 1), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn labeled_counters_are_distinct_samples() {
        let mut out = Exposition::default();
        out.counter("test_labeled_total", "test", "kind=\"a\"", 1);
        out.counter("test_labeled_total", "test", "kind=\"b\"", 2);
        let text = out.to_string();
        assert_eq!(
            text.matches("# TYPE test_labeled_total counter\n").count(),
            1
        );
        assert!(text.contains("test_labeled_total{kind=\"a\"} 1\n"));
        assert!(text.contains("test_labeled_total{kind=\"b\"} 2\n"));
    }

    #[test]
    fn histogram_prometheus_shape() {
        let mut h = Histogram::default();
        h.observe(Duration::from_nanos(100));
        h.observe(Duration::from_micros(10));
        h.observe(Duration::from_secs(100)); // lands in +Inf
        assert_eq!(h.count(), 3);
        assert!(h.max_seconds() >= 100.0);
        let mut out = Exposition::default();
        out.histogram("test_hist_seconds", "test", "", &h);
        let text = out.to_string();
        assert!(text.contains("# TYPE test_hist_seconds histogram"));
        assert!(text.contains("test_hist_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("test_hist_seconds_count 3"));
        // First bucket (256 ns) holds exactly the 100 ns observation.
        assert!(text.contains("test_hist_seconds_bucket{le=\"0.000000256\"} 1"));
        // Cumulative counts are monotone.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("test_hist_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), NUM_BUCKETS);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merged_profiles_add_counts_and_keep_the_larger_maximum() {
        let mut a = Profile::default();
        a.phases
            .entry("round")
            .or_default()
            .observe(Duration::from_millis(2));
        let mut b = Profile::default();
        b.phases
            .entry("round")
            .or_default()
            .observe(Duration::from_millis(5));
        b.phases
            .entry("expand")
            .or_default()
            .observe(Duration::from_millis(1));
        a.merge(&b);
        let round = a.phase("round").unwrap();
        assert_eq!(round.count, 2);
        assert!((round.total_seconds - 0.007).abs() < 1e-12);
        assert!((round.max_seconds - 0.005).abs() < 1e-12);
        let names: Vec<&str> = a.phases().map(|p| p.phase).collect();
        assert_eq!(names, ["expand", "round"], "phases sorted by name");
    }

    #[test]
    fn format_f64_trims() {
        assert_eq!(format_f64(0.000000256), "0.000000256");
        assert_eq!(format_f64(1.0), "1");
        assert_eq!(format_f64(0.5), "0.5");
        assert_eq!(format_f64(0.0), "0");
    }
}
