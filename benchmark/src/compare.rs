//! `--compare A B`: judge two result sets (files written with `--out`, one
//! record per line) by the benchmark's own bounds.
//!
//! Per workload and end-to-end metric it prints both medians, the change,
//! the bound, and a verdict:
//!
//! * `unresolved` — the run-to-run spread (interquartile range over the
//!   median) of either set is wider than the bound, so the bound cannot be
//!   judged;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `ok` — otherwise.

use crate::metrics::{Better, MetricDef, Record, END_TO_END};
use crate::stats;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    pub median_a: f64,
    pub median_b: f64,
    /// B relative to A, signed so that positive is worse.
    pub worse_by: f64,
    /// The wider of the two sets' IQR / median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the values of two sets of runs.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Judged {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let change = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Judged {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

pub fn load(path: &str) -> Result<Vec<Record>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// Print the comparison; returns `true` when nothing regressed, no
/// operation count got worse and exactly repeatable values (digests) agree.
pub fn compare<'a>(a: &'a [Record], b: &'a [Record]) -> bool {
    let mut clean = true;
    println!(
        "{:<24} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    for w in &WORKLOADS {
        let of = |set: &'a [Record]| -> Vec<&'a Record> {
            set.iter()
                .filter(|r| r.workload == w.name && !r.trace)
                .collect()
        };
        let (ra, rb) = (of(a), of(b));
        if ra.is_empty() || rb.is_empty() {
            println!("{:<24} (no untraced runs in one of the sets)", w.name);
            continue;
        }
        for def in &END_TO_END {
            let values = |set: &[&Record]| -> Vec<f64> {
                set.iter().filter_map(|r| r.metric(def.name)).collect()
            };
            let j = judge(def, &values(&ra), &values(&rb));
            clean &= j.verdict != Verdict::Regressed;
            println!(
                "{:<24} {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>7.2}%  {}",
                w.name,
                def.name,
                j.median_a,
                j.median_b,
                j.worse_by * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                j.spread * 100.0,
                match j.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |set: &[&Record]| set.iter().map(|r| r.failed).max().unwrap_or(0);
        if failed(&rb) > failed(&ra) {
            clean = false;
            println!(
                "{:<24} failed operations rose from {} to {}",
                w.name,
                failed(&ra),
                failed(&rb)
            );
        }
        // Same seed, same bytes: the digests of equal seeds must agree.
        for x in &ra {
            for y in rb
                .iter()
                .filter(|y| y.seed == x.seed && y.seconds == x.seconds)
            {
                if x.digest != y.digest {
                    clean = false;
                    println!(
                        "{:<24} seed {} input digest differs: {} vs {}",
                        w.name, x.seed, x.digest, y.digest
                    );
                }
            }
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def_of;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lower = def_of("result_wall_p50_ms").unwrap(); // lower is better, 16 %
        let higher = def_of("ingest_events_per_s").unwrap(); // higher is better, 25 %
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(lower, &a, &slower).verdict, Verdict::Regressed);
        // A rise in a higher-is-better metric is a gain; a fall of 17 %
        // stays inside its 25 % bound, a fall of 35 % does not.
        assert_eq!(judge(higher, &a, &slower).verdict, Verdict::Ok);
        assert_eq!(judge(higher, &slower, &a).verdict, Verdict::Ok);
        let collapsed = [65.0, 66.0, 64.0, 65.5, 64.5];
        assert_eq!(judge(higher, &a, &collapsed).verdict, Verdict::Regressed);
        // Inside the bound.
        let near = [105.0, 106.0, 104.0, 105.5, 104.5];
        let j = judge(lower, &a, &near);
        assert_eq!(j.verdict, Verdict::Ok);
        assert!((j.worse_by - 0.05).abs() < 1e-9);
        // A spread wider than the bound cannot resolve the bound.
        let noisy = [80.0, 120.0, 100.0, 135.0, 70.0];
        assert_eq!(judge(lower, &a, &noisy).verdict, Verdict::Unresolved);
        // Single runs have no measurable spread and are judged on the change.
        assert_eq!(judge(lower, &[100.0], &[120.0]).verdict, Verdict::Regressed);
    }
}
