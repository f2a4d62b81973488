//! `--compare EXE_A EXE_B`: judge a change (B) against its parent (A).
//!
//! Both executables are built dagbench binaries, one per commit. For each
//! workload the two run in ten pairs of `BENCHMARK.json`'s `run_seconds`
//! each, alternating which side goes first, with the same seed within a
//! pair. Each (end-to-end metric, workload) is then:
//!
//! * `regressed` when B failed a larger share of its operations than A
//!   (a gain does not count when more operations fail);
//! * `improved` when B wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than A's quartile spread;
//! * `regressed` when B's median is worse than A's by more than the
//!   metric's bound;
//! * `unresolved` when A's own spread is wider than the bound, unless
//!   every B run reads better (`unchanged`) or worse (`regressed`) than
//!   every A run;
//! * `unchanged` otherwise.

use std::process::{Command, Stdio};

use dagscope_serve::Json as Doc;

use crate::harness::{median, quartiles};
use crate::spec::{Metric, Spec};

/// Pairs per workload: the fewest the 9-of-10 rule can be applied to.
const PAIRS: usize = 10;

struct Side {
    label: &'static str,
    exe: String,
}

/// Failed and attempted operations summed over one side's runs.
#[derive(Clone, Copy, Default)]
struct Tally {
    failed: u64,
    attempted: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.failed += other.failed;
        self.attempted += other.attempted;
    }

    /// True when `self` failed a larger share than `other`, compared
    /// exactly.
    fn fails_more_than(self, other: Tally) -> bool {
        u128::from(self.failed) * u128::from(other.attempted)
            > u128::from(other.failed) * u128::from(self.attempted)
    }
}

/// One run's end-to-end metrics and failure count.
struct Outcome {
    metrics: Vec<(String, f64)>,
    tally: Tally,
}

fn run_one(exe: &str, workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Doc::parse(last).map_err(|e| format!("{exe} {workload}: no result line ({e})"))?;
    if !output.status.success() || doc.get("correct") != Some(&Doc::Bool(true)) {
        return Err(format!(
            "{exe} {workload} seed {seed}: run failed or was incorrect"
        ));
    }
    let count = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Doc::as_num)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{exe} {workload}: result has no {key}"))
    };
    let tally = Tally {
        failed: count("failed")?,
        attempted: count("attempted")?,
    };
    let Some(Doc::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{exe} {workload}: result has no metrics"));
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
        .collect();
    Ok(Outcome { metrics, tally })
}

fn verdict(m: &Metric, a: &[f64], b: &[f64], fail_a: Tally, fail_b: Tally) -> &'static str {
    if fail_b.fails_more_than(fail_a) {
        return "regressed";
    }
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let spread = q3 - q1;
    let wins = a.iter().zip(b).filter(|(x, y)| m.better(**y, **x)).count();
    if 10 * wins >= 9 * a.len() && (mb - ma).abs() > spread && m.better(mb, ma) {
        return "improved";
    }
    if spread / ma.abs().max(f64::MIN_POSITIVE) > m.bound {
        let all_better = b.iter().all(|y| a.iter().all(|x| m.better(*y, *x)));
        let all_worse = b.iter().all(|y| a.iter().all(|x| m.better(*x, *y)));
        return if all_better {
            "unchanged"
        } else if all_worse {
            "regressed"
        } else {
            "unresolved"
        };
    }
    if m.worsening(ma, mb) > m.bound {
        "regressed"
    } else {
        "unchanged"
    }
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load()?;
    let mut positional = Vec::new();
    let mut seed = 42u64;
    let mut workloads = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--workload" => workloads.push(value()?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            exe => positional.push(exe.to_string()),
        }
    }
    let [a, b] = <[String; 2]>::try_from(positional)
        .map_err(|_| "--compare needs two dagbench executables: PARENT CHANGE")?;
    if workloads.is_empty() {
        workloads = spec.workloads.clone();
    }
    let sides = [Side { label: "A", exe: a }, Side { label: "B", exe: b }];

    println!(
        "{:<18} {:<12} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut regressed = false;
    for workload in &workloads {
        let mut values = [Vec::new(), Vec::new()];
        let mut tallies = [Tally::default(); 2];
        for pair in 0..PAIRS {
            // Alternate which side runs first, so drift on the host does
            // not favour one side.
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                eprintln!(
                    "dagbench: pair {}/{PAIRS} {workload} {}",
                    pair + 1,
                    sides[side].label
                );
                let s = seed + pair as u64;
                let outcome = run_one(&sides[side].exe, workload, s, spec.run_seconds)?;
                tallies[side].add(outcome.tally);
                values[side].push(outcome.metrics);
            }
        }
        let [fail_a, fail_b] = tallies;
        println!(
            "{workload:<18} {:<12} {:>30} {:>30}",
            "failed",
            format!("{}/{}", fail_a.failed, fail_a.attempted),
            format!("{}/{}", fail_b.failed, fail_b.attempted),
        );
        for m in &spec.end_to_end {
            let pick = |runs: &[Vec<(String, f64)>]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r.iter()
                            .find(|(n, _)| *n == m.name)
                            .map(|(_, v)| *v)
                            .ok_or_else(|| format!("a run reported no {}", m.name))
                    })
                    .collect()
            };
            let (va, vb) = (pick(&values[0])?, pick(&values[1])?);
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(x, y)| m.better(**y, **x))
                .count();
            let v = verdict(m, &va, &vb, fail_a, fail_b);
            regressed |= v == "regressed";
            let show = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
            };
            println!(
                "{workload:<18} {:<12} {:>30} {:>30} {:>4}/{PAIRS}  {v}",
                m.name,
                show(&va),
                show(&vb),
                wins
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "op_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    const CLEAN: Tally = Tally {
        failed: 0,
        attempted: 1000,
    };

    #[test]
    fn verdicts() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5,
        ];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        let m = lower(0.05);
        assert_eq!(verdict(&m, &a, &faster, CLEAN, CLEAN), "improved");
        assert_eq!(verdict(&m, &a, &slower, CLEAN, CLEAN), "regressed");
        assert_eq!(verdict(&m, &a, &same, CLEAN, CLEAN), "unchanged");
        let noisy = [
            50.0, 150.0, 100.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0,
        ];
        assert_eq!(verdict(&m, &noisy, &same, CLEAN, CLEAN), "unresolved");
    }

    #[test]
    fn failing_more_operations_regresses_whatever_the_latency() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5,
        ];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let m = lower(0.05);
        let one_failed = Tally {
            failed: 1,
            attempted: 1000,
        };
        assert_eq!(verdict(&m, &a, &a, CLEAN, one_failed), "regressed");
        assert_eq!(verdict(&m, &a, &faster, CLEAN, one_failed), "regressed");
        // The share decides, not the count: B failed as often per
        // operation as A did.
        let same_share = Tally {
            failed: 2,
            attempted: 2000,
        };
        assert_eq!(verdict(&m, &a, &a, one_failed, same_share), "unchanged");
        assert_eq!(verdict(&m, &a, &faster, one_failed, CLEAN), "improved");
    }
}
