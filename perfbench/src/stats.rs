//! Small numeric helpers: order statistics, the tail-percentile rule, the
//! peak-RSS reader and the run digest.

use mint_memsys::RunReport;
use mint_redteam::OracleSummary;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles with the same method as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads computed here match the ones the benchmark contract checks.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    assert!(s.len() >= 2, "quartiles need at least two samples");
    let m = s.len() as f64 + 1.0;
    let at = |q: f64| {
        let pos = q * m;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(0.25), at(0.75))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`, and how many
/// samples lie beyond that rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(s.len());
    (s[rank - 1], s.len() - rank)
}

/// Whether `n` samples leave at least [`TAIL_BEYOND`] beyond percentile
/// `p` — the rule every reported tail obeys.
pub fn tail_ok(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n >= rank && n - rank >= TAIL_BEYOND
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    s
}

/// Peak resident set size in MiB, from the `VmHWM` line of a
/// `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a over 64-bit words: the digest every simulated output is
/// compared by.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of everything a run reports except wall-clock: duration, the
/// controller statistics, per-core outcomes, the energy bill to the last
/// bit, and the oracle's summary when one observed the run.
pub fn report_digest(report: &RunReport, oracle: Option<&OracleSummary>) -> String {
    let mut d = Digest::new();
    let r = &report.perf.result;
    d.word(report.perf.duration_ps);
    for w in [
        r.requests,
        r.row_hits,
        r.demand_acts,
        r.mitigative_acts,
        r.rfm_commands,
        r.drfm_commands,
        r.reads,
        r.writes,
        r.refs,
    ] {
        d.word(w);
    }
    d.word(report.cores.len() as u64);
    for c in &report.cores {
        d.word(c.finish_ps).word(c.requests);
    }
    d.word(report.energy.act_j.to_bits())
        .word(report.energy.non_act_j.to_bits());
    if let Some(o) = oracle {
        d.word(u64::from(o.max_hammers))
            .word(u64::from(o.hottest_row))
            .word(o.demand_acts)
            .word(o.victim_refreshes)
            .word(o.refs)
            .word(o.rfm_commands)
            .word(o.drfm_commands)
            .word(o.row_maxima.len() as u64);
        for &(row, max) in &o.row_maxima {
            d.word(u64::from(row)).word(u64::from(max));
        }
    }
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_memsys::{workload_by_name, MitigationScheme, Sim};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // Two samples clamp to the ends: [1.0, 1.5, 2.0]
        assert_eq!(quartiles(&[2.0, 1.0]), (1.0, 2.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), (90.0, 10));
        assert!(tail_ok(100, 90.0));
        // p91 of 100 samples leaves only nine beyond.
        assert_eq!(percentile(&xs, 91.0).1, 9);
        assert!(!tail_ok(100, 91.0));
        // Nineteen samples cannot support even the median.
        assert!(!tail_ok(19, 50.0));
        assert!(tail_ok(20, 50.0));
        assert_eq!(percentile(&xs, 50.0), (50.0, 50));
    }

    #[test]
    fn peak_rss_reader_parses_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        let own = peak_rss_mib().expect("this process has a status file");
        assert!(own > 0.0);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mcf = workload_by_name("mcf").expect("mcf");
        let run = |seed| {
            Sim::ddr5()
                .scheme(MitigationScheme::Mint)
                .workload(&[mcf; 4], 300)
                .seed(seed)
                .run()
        };
        let a = report_digest(&run(3), None);
        assert_eq!(a, report_digest(&run(3), None), "same run, same digest");
        assert_ne!(
            a,
            report_digest(&run(4), None),
            "another seed, another digest"
        );
        // A fixed word sequence always hashes to the same value.
        let mut d = Digest::new();
        d.word(1).word(2);
        assert_eq!(d.hex(), "7717980363c8e066");
    }
}
