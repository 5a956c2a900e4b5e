//! The harness's own readers: exact-rank percentiles, the median, the
//! process's peak resident set, and the attempted/failed tally.
//!
//! Every figure the benchmark prints goes through one of these, so each
//! has a unit test against hand-computed values.

/// Samples that must lie strictly beyond a percentile before it is read
/// as a tail figure (fewer would make it the maximum in disguise).
pub const MIN_BEYOND: usize = 10;

/// Exact-rank (nearest-rank) percentile of `samples`: the smallest sample
/// such that at least `q` of all samples are at or below it, i.e. the
/// `ceil(q·n)`-th smallest. No interpolation and no bucketing, so the
/// value is always one of the measured samples.
///
/// Returns `None` for an empty slice or `q` outside `(0, 1]`.
pub fn exact_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.9 * 100` (= 90.00000000000001) at rank 90.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the exact-rank `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The exact-rank percentile, refused (`Err`) unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let past = beyond(samples.len(), q);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} over {} samples leaves {past} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            samples.len()
        ));
    }
    exact_rank(samples, q).ok_or_else(|| "no samples".to_string())
}

/// Median of `values` (mean of the middle pair for an even count), as
/// Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` (peak resident set) from the text of a `/proc/<pid>/status`
/// file, in bytes.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value * 1024),
        _ => None,
    }
}

/// This process's peak resident set in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Attempted and failed operation counts. A run is a whole number of
/// rounds of the same operations, so `failed / attempted` is the same in
/// every run of a workload whatever its length.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that hit their budget, got an error reply or produced a
    /// rejected certificate.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Folds in another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the readers must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn exact_rank_reads_a_sample() {
        let v = one_to(100);
        assert_eq!(exact_rank(&v, 0.5), Some(50.0));
        assert_eq!(exact_rank(&v, 0.9), Some(90.0));
        assert_eq!(exact_rank(&v, 1.0), Some(100.0));
        assert_eq!(exact_rank(&v, 0.001), Some(1.0));
        // ceil(0.9·7) = 7: the maximum.
        assert_eq!(
            exact_rank(&[3.0, 1.0, 2.0, 7.0, 5.0, 4.0, 6.0], 0.9),
            Some(7.0)
        );
        // ceil(0.5·4) = 2: the lower middle, never an average.
        assert_eq!(exact_rank(&[10.0, 40.0, 20.0, 30.0], 0.5), Some(20.0));
        assert_eq!(exact_rank(&[], 0.5), None);
        assert_eq!(exact_rank(&v, 0.0), None);
        assert_eq!(exact_rank(&v, 1.5), None);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        // 100 samples: p90 is rank 90, ten samples beyond it.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail_percentile(&one_to(100), 0.9), Ok(90.0));
        // 99 samples: rank ceil(89.1) = 90, only nine beyond.
        assert_eq!(beyond(99, 0.9), 9);
        assert!(tail_percentile(&one_to(99), 0.9).is_err());
        // 110 samples: rank 99, eleven beyond.
        assert_eq!(beyond(110, 0.9), 11);
        assert_eq!(tail_percentile(&one_to(110), 0.9), Ok(99.0));
        // p50 of 20 samples: rank 10, ten beyond.
        assert_eq!(tail_percentile(&one_to(20), 0.5), Ok(10.0));
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn vm_hwm_reads_kilobytes() {
        let status = "Name:\tqbf-perfbench\nVmPeak:\t  123456 kB\nVmHWM:\t    5120 kB\nVmRSS:\t    4096 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(5120 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 10 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t ten kB\n"), None);
        // The live reader sees this very process.
        let own = peak_rss_bytes().expect("procfs is mounted");
        assert!(
            own > 1024 * 1024,
            "a running test binary holds over 1 MiB: {own}"
        );
    }

    #[test]
    fn tally_counts_whole_rounds() {
        // Two failing ops out of 150 per round, over 7 rounds.
        let mut round = Tally::default();
        for i in 0..150 {
            round.record(i == 3 || i == 77);
        }
        assert_eq!(
            round,
            Tally {
                attempted: 150,
                failed: 2
            }
        );
        let mut run = Tally::default();
        for _ in 0..7 {
            run.add(round);
        }
        assert_eq!(
            run,
            Tally {
                attempted: 1050,
                failed: 14
            }
        );
        // The failed share is the per-round share, exactly.
        assert_eq!(run.failed * round.attempted, round.failed * run.attempted);
    }
}
