//! Percentiles, output digests, memory and pass/fail tallies.

use std::time::Duration;

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a run needs before a timing is read at its fast decile: ten
/// of them then lie beyond it. With fewer it is read at the fast
/// quartile.
pub const DECILE_SAMPLES: usize = 100;

/// The share of samples that lies beyond the fast end of `n` of them.
fn fast_share(n: usize) -> f64 {
    if n >= DECILE_SAMPLES {
        0.1
    } else {
        0.25
    }
}

/// The fast end of `times` (smaller is faster): the fast decile when
/// there are [`DECILE_SAMPLES`] of them, else the fast quartile.
/// Contention on the shared benchmark host only ever slows the code
/// down and comes in bursts of seconds, so the fast end estimates what
/// the code costs when the host leaves it alone; the more samples a run
/// has, the further towards its quiet moments a timing can be read
/// while ten samples still lie beyond it.
#[must_use]
pub fn fast_time(times: &[f64]) -> f64 {
    percentile(times, fast_share(times.len()))
}

/// The fast end of `rates` (larger is faster), by the rule of
/// [`fast_time`].
#[must_use]
pub fn fast_rate(rates: &[f64]) -> f64 {
    percentile(rates, 1.0 - fast_share(rates.len()))
}

/// A percentile over consecutive windows of a sample stream, in fixed
/// memory: each full window is reduced to its percentile at once, so
/// the resident set does not grow with how many samples the host
/// managed to produce.
#[derive(Debug, Clone)]
pub struct Windows {
    size: usize,
    q: f64,
    current: Vec<f64>,
    per_window: Vec<f64>,
}

impl Windows {
    /// Windows of `size` samples, each reduced to its `q` percentile.
    #[must_use]
    pub fn new(size: usize, q: f64) -> Self {
        Self { size, q, current: Vec::with_capacity(size), per_window: Vec::with_capacity(1024) }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.current.push(v);
        if self.current.len() == self.size {
            self.per_window.push(percentile(&self.current, self.q));
            self.current.clear();
        }
    }

    /// The fast end ([`fast_time`]) of the full windows' percentiles;
    /// the partial window's percentile when no window filled.
    #[must_use]
    pub fn fast(&self) -> f64 {
        if self.per_window.is_empty() {
            percentile(&self.current, self.q)
        } else {
            fast_time(&self.per_window)
        }
    }
}

/// Latency windows (p50, p99) of the workloads that time tens of
/// thousands of operations a run: a p99 window of 3000 holds 30 samples
/// beyond its p99, which steadies the tail, and a run still has about
/// ten windows to read the fast quartile from.
pub const MANY_OPS_WINDOWS: (usize, usize) = (100, 3000);

/// Per-operation latency percentiles, in microseconds.
#[derive(Debug, Clone)]
pub struct Latency {
    p50: Windows,
    p99: Windows,
    samples: u64,
}

impl Latency {
    /// p50 over windows of `p50_window` operations, p99 over windows of
    /// `p99_window`; a p99 window of at least 1000 holds ten samples
    /// beyond its p99.
    #[must_use]
    pub fn new(p50_window: usize, p99_window: usize) -> Self {
        Self { p50: Windows::new(p50_window, 0.5), p99: Windows::new(p99_window, 0.99), samples: 0 }
    }

    /// Adds one operation's latency.
    pub fn push(&mut self, us: f64) {
        self.p50.push(us);
        self.p99.push(us);
        self.samples += 1;
    }

    /// Latencies added so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Window p50 at the fast end.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.p50.fast()
    }

    /// Window p99 at the fast end.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.p99.fast()
    }
}

/// The median of `values`; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Microseconds in `d`.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over the bits of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a float's exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Operations whose outputs the workload checked, and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Outputs that passed ÷ operations attempted.
    #[must_use]
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_report_the_fast_end_in_fixed_memory() {
        // Four windows of 0..1000; two of them stalled by a constant.
        let mut w = Windows::new(1000, 0.99);
        for window in 0..4 {
            let stall = if window % 2 == 1 { 1e6 } else { 0.0 };
            for i in 0..1000 {
                w.push(f64::from(i) + stall);
            }
        }
        assert_eq!(w.fast(), 989.0);
        assert_eq!(w.current.capacity(), 1000);
        // Too few samples for one window: the partial window's percentile.
        let mut short = Windows::new(1000, 0.5);
        for i in 0..10 {
            short.push(f64::from(i));
        }
        assert_eq!(short.fast(), 4.0);
        assert_eq!(fast_rate(&[1.0, 2.0, 3.0, 4.0]), 3.0);
        let many: Vec<f64> = (1..=DECILE_SAMPLES).map(|i| i as f64).collect();
        assert_eq!(fast_rate(&many), 90.0);
        assert_eq!(fast_time(&[1.0, 2.0, 3.0, 4.0]), 1.0);
        assert_eq!(fast_time(&many), 10.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(f64::from_bits(1.0f64.to_bits() ^ 1));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
