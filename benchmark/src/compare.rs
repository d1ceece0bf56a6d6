//! `sms-benchmark compare A1.json[,A2.json,…] B1.json[,…]`
//!
//! Takes the per-metric median of each set of result files, applies the
//! bounds of `BENCHMARK.json` and prints one row per (workload, metric).
//! A row is `worse` when the new median is worse than the base by more
//! than the bound, `unresolved` when either set's own spread is wider
//! than the bound (unless every new run beats every base run), else `ok`.
//! Exact per-layer values must be equal in every file of both sets.

use crate::catalog::{self, Better};
use crate::host;
use crate::json::{self, Json};
use crate::stats::{median, spread};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges one metric on one workload from the two sets' values.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (median(base), median(new));
    let beats = |new: f64, base: f64| match better {
        Better::Lower => new < base,
        Better::Higher => new > base,
    };
    if spread(base) > bound || spread(new) > bound {
        let clean_win = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
        return if clean_win { Verdict::Ok } else { Verdict::Unresolved };
    }
    let worse_by = match better {
        Better::Lower => (n - b) / b,
        Better::Higher => (b - n) / b,
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

struct ResultFile {
    path: String,
    doc: Json,
}

impl ResultFile {
    fn value(&self, workload: &str, section: &str, metric: &str) -> Option<f64> {
        self.doc.get("workloads")?.get(workload)?.get(section)?.get(metric)?.as_f64()
    }

    fn seed(&self) -> Option<f64> {
        self.doc.get("header")?.get("seed")?.as_f64()
    }
}

fn load_set(list: &str) -> Result<Vec<ResultFile>, String> {
    list.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| Ok(ResultFile { path: p.to_owned(), doc: json::read_file(Path::new(p))? }))
        .collect()
}

/// `Ok(true)` when no row is `worse` and every exact value agrees.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let mut spec_path = host::repo_root().join("BENCHMARK.json");
    let mut sets = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            sets.push(load_set(arg)?);
        }
    }
    let [base, new] = <[Vec<ResultFile>; 2]>::try_from(sets)
        .map_err(|_| "compare needs exactly two comma-separated sets of result files".to_owned())?;
    if base.is_empty() || new.is_empty() {
        return Err("compare needs at least one result file on each side".to_owned());
    }
    let spec = json::read_file(&spec_path)?;
    let bound_of = |metric: &str| {
        spec.get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
            .and_then(|m| m.get("bound")?.as_f64())
            .ok_or_else(|| format!("{}: no bound for `{metric}`", spec_path.display()))
    };

    let mut clean = true;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "spr.b", "spr.n", "bound"
    );
    for workload in &catalog::WORKLOADS {
        for metric in &catalog::END_TO_END {
            let values = |set: &[ResultFile]| -> Vec<f64> {
                set.iter()
                    .filter_map(|f| f.value(workload.name, "end_to_end", metric.name))
                    .collect()
            };
            let (b, n) = (values(&base), values(&new));
            if b.is_empty() || n.is_empty() {
                continue; // a set of single-workload files need not cover every workload
            }
            let bound = bound_of(metric.name)?;
            let verdict = judge(&b, &n, metric.better, bound);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>8.4} {:>7.4} {:>7.4} {:>6.2}  {}",
                workload.name,
                metric.name,
                median(&b),
                median(&n),
                median(&n) / median(&b),
                spread(&b),
                spread(&n),
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }

    // Exact values repeat bit-for-bit only at one seed.
    let seeds: Vec<Option<f64>> = base.iter().chain(&new).map(ResultFile::seed).collect();
    if seeds.windows(2).any(|w| w[0] != w[1]) {
        println!(
            "exact metrics: not compared, the files were measured at different seeds {seeds:?}"
        );
        return Ok(clean);
    }
    let mut compared = 0;
    let mut equal = true;
    for workload in &catalog::WORKLOADS {
        for metric in catalog::PER_LAYER.iter().filter(|m| m.exact) {
            let values: Vec<(&str, f64)> = base
                .iter()
                .chain(&new)
                .filter_map(|f| {
                    Some((f.path.as_str(), f.value(workload.name, "per_layer", metric.name)?))
                })
                .collect();
            compared += usize::from(!values.is_empty());
            if values.windows(2).any(|w| w[0].1.to_bits() != w[1].1.to_bits()) {
                equal = false;
                println!("{:<12} {:<28} differs: {values:?}", workload.name, metric.name);
            }
        }
    }
    println!(
        "exact metrics: {compared} (workload, metric) pairs compared bit-for-bit over {} files: {}",
        base.len() + new.len(),
        if equal { "all equal" } else { "see the `differs` rows" }
    );
    Ok(clean && equal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_ok_in_either_direction() {
        let a = [100.0, 101.0, 99.0];
        let b = [104.0, 105.0, 103.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&b, &a, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_worse_only_in_the_bad_direction() {
        let a = [100.0, 101.0, 99.0];
        let b = [120.0, 121.0, 119.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(&b, &a, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&b, &a, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 130.0, 80.0];
        let similar = [105.0, 95.0, 110.0];
        assert_eq!(judge(&noisy, &similar, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&similar, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        let clear_win = [50.0, 60.0, 55.0];
        assert_eq!(judge(&noisy, &clear_win, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&noisy, &clear_win, Better::Higher, 0.10), Verdict::Unresolved);
    }
}
