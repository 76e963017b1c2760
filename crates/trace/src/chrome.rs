//! Chrome trace-event JSON export.
//!
//! The emitted document is the stable "JSON object format" understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of `ph:"X"` *complete events* (one per span, `ts` and
//! `dur` in microseconds) plus `ph:"M"` metadata events naming the process
//! and one track per worker thread. Event key order is pinned by
//! `crates/cli/tests/cli.rs::prove_alias_and_trace_out_write_perfetto_loadable_json`.

use crate::span::SpanRecord;

/// A finished span collection, returned by
/// [`finish_collect`](crate::finish_collect).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All recorded spans, sorted by start time (parents before children).
    pub spans: Vec<SpanRecord>,
    /// `(tid, name)` for every thread that contributed spans.
    pub threads: Vec<(u32, String)>,
}

impl Trace {
    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans with the given name.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Renders the trace as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::with_capacity(self.spans.len() + self.threads.len() + 1);
        events.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"cycleq\"}}"
                .to_owned(),
        );
        for (tid, name) in &self.threads {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid,
                escape(name)
            ));
        }
        for s in &self.spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"cycleq\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}}}",
                escape(s.name),
                micros(s.start_ns),
                micros(s.dur_ns),
                s.tid
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }
}

/// Formats nanoseconds as microseconds with sub-µs precision (`12.345`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tid: u32, name: &'static str, start_ns: u64, dur_ns: u64, depth: u16) -> SpanRecord {
        SpanRecord {
            tid,
            name,
            start_ns,
            dur_ns,
            depth,
        }
    }

    #[test]
    fn chrome_json_shape() {
        let trace = Trace {
            spans: vec![
                record(1, "prove_goal", 1_000, 500_500, 0),
                record(1, "round", 2_000, 400_000, 1),
            ],
            threads: vec![(1, "worker-0".to_owned())],
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"worker-0\"}}"
        ));
        assert!(json.contains(
            "{\"name\":\"prove_goal\",\"cat\":\"cycleq\",\"ph\":\"X\",\"ts\":1.000,\
             \"dur\":500.500,\"pid\":1,\"tid\":1}"
        ));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        // Balanced braces / brackets (cheap well-formedness check; the CLI
        // integration test does a structural parse).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn micros_formats_sub_microsecond() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_234_567), "1234.567");
    }
}
