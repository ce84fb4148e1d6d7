//! Per-layer attribution for traced runs.
//!
//! A traced run switches `m7_trace` on, so the spans the program already
//! records (`scen.generate`, `scen.evaluate`, `camp.campaign`, ...) land
//! in the flight recorder next to the benchmark's own spans around each
//! public call. [`SelfTimes`] folds the recorded begin/end events into
//! per-span inclusive and self times: a span's self time is its
//! duration minus the time its direct children cover.

use m7_trace::recorder::{self, Clock, EventKind};
use m7_trace::MetricClass;
use m7_trace::SpanSite;
use std::collections::BTreeMap;

/// The benchmark's root span around one operation. Its self time is the
/// benchmark's own glue: output checks and digesting.
pub static OP: SpanSite = SpanSite::new("bench.op", MetricClass::Diagnostic);

/// Sizes the flight-recorder ring so that no event is overwritten
/// before it is drained: the largest batch drained at once is one
/// campaign (about 17k events), or a whole `serve-dse` phase (about six
/// events per request per thread). Call before the first span records.
pub fn configure_recorder(seconds: f64) {
    let events = (seconds * 8192.0).max(65_536.0) as u64;
    std::env::set_var("M7_TRACE_EVENTS", events.to_string());
}

/// Clears everything recorded so far and starts tracing.
pub fn start() {
    m7_trace::reset();
    m7_trace::enable();
}

/// Inclusive and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub incl_ns: u64,
    /// Summed duration minus direct children, nanoseconds.
    pub self_ns: u64,
}

/// Span totals accumulated over drained recorder batches.
#[derive(Debug, Default)]
pub struct SelfTimes {
    spans: BTreeMap<&'static str, SpanTotals>,
    /// Events the recorder overwrote before they were drained.
    pub dropped: u64,
}

impl SelfTimes {
    /// Drains the recorder into the totals and clears it. Call between
    /// operations, when no span is open on any thread.
    pub fn drain(&mut self) {
        let drained = recorder::drain();
        recorder::clear();
        self.dropped += drained.dropped;
        // (name, start, time covered by children) per open span.
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut tid = None;
        for e in drained.events.iter().filter(|e| e.clock == Clock::Wall) {
            if tid != Some(e.tid) {
                stack.clear();
                tid = Some(e.tid);
            }
            match e.kind {
                EventKind::Begin => stack.push((e.name, e.ts_ns, 0)),
                EventKind::End => {
                    let Some((name, start, children)) = stack.pop() else { continue };
                    let dur = e.ts_ns.saturating_sub(start);
                    let totals = self.spans.entry(name).or_default();
                    totals.calls += 1;
                    totals.incl_ns += dur;
                    totals.self_ns += dur.saturating_sub(children);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                EventKind::Complete | EventKind::Instant => {}
            }
        }
    }

    /// Totals of one span name (zero when it never closed).
    #[must_use]
    pub fn get(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Inclusive seconds of `name`.
    #[must_use]
    pub fn incl_s(&self, name: &str) -> f64 {
        self.get(name).incl_ns as f64 * 1e-9
    }

    /// Self seconds of `name`.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 * 1e-9
    }

    /// Seconds the spans directly below the root [`OP`] cover: the
    /// program's spans around the public calls that carry one, the
    /// benchmark's spans around the rest.
    #[must_use]
    pub fn covered_s(&self) -> f64 {
        let op = self.get(OP.name());
        (op.incl_ns - op.self_ns) as f64 * 1e-9
    }
}

/// Records the trace-wide metrics and checks closure: the spans below
/// the operations must cover the public calls, as timed apart from any
/// span with `Instant`, to within [`crate::report::CLOSURE_TOLERANCE`],
/// and no event may have been dropped. The run is incorrect otherwise.
///
/// Where a public call carries a program span (`camp.campaign`,
/// `scen.generate`, `scen.evaluate`) this checks that the program's own
/// spans account for the call. Where only a benchmark span wraps the
/// call it can detect nothing beyond dropped or unclosed spans.
pub fn close(
    out: &mut crate::report::Outcome,
    covered_s: f64,
    calls_s: f64,
    traced_wall_s: f64,
    overhead_ratio: f64,
    dropped: u64,
) {
    let closure = covered_s / calls_s;
    out.set("trace.wall_s", traced_wall_s);
    out.set("trace.closure_ratio", closure);
    out.set("trace.dropped_events", dropped as f64);
    out.set("trace.overhead_ratio", overhead_ratio);
    let holds = dropped == 0 && (1.0 - closure).abs() <= crate::report::CLOSURE_TOLERANCE;
    if !holds {
        eprintln!(
            "trace closure failed: spans cover {covered_s:.6} s of {calls_s:.6} s in public \
             calls ({dropped} events dropped)"
        );
    }
    out.checks_hold &= holds;
}

#[cfg(test)]
mod tests {
    use super::*;

    static OUTER: SpanSite = SpanSite::new("test.outer", MetricClass::Diagnostic);
    static INNER: SpanSite = SpanSite::new("test.inner", MetricClass::Diagnostic);

    fn spin(d: std::time::Duration) {
        let t = std::time::Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        start();
        {
            let _outer = OUTER.enter();
            spin(std::time::Duration::from_millis(2));
            {
                let _inner = INNER.enter();
                spin(std::time::Duration::from_millis(3));
            }
        }
        m7_trace::disable();
        let mut times = SelfTimes::default();
        times.drain();
        let (outer, inner) = (times.get("test.outer"), times.get("test.inner"));
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.incl_ns, outer.self_ns + inner.incl_ns);
        assert!(inner.self_ns >= 3_000_000 && outer.self_ns >= 2_000_000);
        assert_eq!(times.dropped, 0);
    }
}
