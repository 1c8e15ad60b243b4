//! `compare <parent dir> <change dir>`: the verdict on a change, from two
//! result sets made with the same benchmark code and settings.
//!
//! A result set is a directory of files named `<workload>.<seed>.json`, each
//! holding one run's standard output (its last line is the result object).
//! Runs of the two sets with the same workload and seed form a pair.  For
//! every workload and end-to-end metric this prints both sides' medians and
//! quartiles, the share of pairs the change won, and a verdict:
//!
//! * `improved` — the change won at least 9 in 10 pairs (ties count for
//!   neither side) and the medians differ, in its favour, by more than the
//!   parent's own spread (the distance between its quartiles);
//! * `unresolved` — otherwise, when the parent's spread is wider than the
//!   metric's bound, unless every change run reads better than every parent
//!   run;
//! * `no worse` — the change's median is worse than the parent's by at most
//!   the bound;
//! * `WORSE` — by more than the bound.

use crate::stats;
use lcmsr_service::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's definition from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics and their bounds, as committed.
pub fn metric_defs() -> Result<Vec<MetricDef>, String> {
    let doc =
        parse(include_str!("../../BENCHMARK.json")).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `workload -> seed -> metric -> value` of one result set.
type ResultSet = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn load_set(dir: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot read {dir}: {e}"))?.path();
        let Some((workload, seed)) = parse_file_name(&path) else {
            continue;
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let metrics = parse_result(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        set.entry(workload).or_default().insert(seed, metrics);
    }
    Ok(set)
}

/// `solve_tiny.17.json` -> `("solve_tiny", 17)`.
fn parse_file_name(path: &Path) -> Option<(String, u64)> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".json")?;
    let (workload, seed) = stem.rsplit_once('.')?;
    Some((workload.to_string(), seed.parse().ok()?))
}

/// The metric values of a run's output (its last non-empty line).
pub fn parse_result(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty result")?;
    let doc = parse(line).map_err(|e| format!("result line does not parse: {e}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("run is not marked correct".into());
    }
    let Some(Json::Object(metrics)) = doc.get("metrics") else {
        return Err("result has no metrics object".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// Summary of one metric on one workload across both sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub parent: Vec<f64>,
    pub change: Vec<f64>,
    /// `(change wins, pairs)`.
    pub wins: (usize, usize),
    pub verdict: &'static str,
}

/// Applies the verdict rule to paired runs (`pairs`) plus each side's runs.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64], pairs: &[(f64, f64)]) -> Row {
    let better = |a: f64, b: f64| if def.lower_is_better { a < b } else { a > b };
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let (mp, mc) = (median(parent), median(change));
    let spread = stats::quartiles(parent).map_or(f64::INFINITY, |q| q[2] - q[0]);
    let worse_by = if def.lower_is_better {
        mc - mp
    } else {
        mp - mc
    } / mp.abs().max(f64::MIN_POSITIVE);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mc, mp)
        && (mc - mp).abs() > spread
    {
        "improved"
    } else if spread / mp.abs().max(f64::MIN_POSITIVE) > def.bound && !all_better {
        "unresolved"
    } else if worse_by <= def.bound {
        "no worse"
    } else {
        "WORSE"
    };
    Row {
        parent: parent.to_vec(),
        change: change.to_vec(),
        wins: (wins, pairs.len()),
        verdict,
    }
}

/// The median as `statistics.median` gives it (the mean of the middle two
/// of an even count), so it matches the quartiles printed beside it.
fn median(values: &[f64]) -> f64 {
    stats::quartiles(values).map_or_else(|| stats::median(values), |q| q[1])
}

fn describe(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:.4}", stats::median(values)),
    }
}

pub fn run(parent_dir: &str, change_dir: &str) -> Result<(), String> {
    let defs = metric_defs()?;
    let parent = load_set(parent_dir)?;
    let change = load_set(change_dir)?;
    if parent.is_empty() || change.is_empty() {
        return Err("a result set holds no <workload>.<seed>.json files".into());
    }
    println!(
        "{:<16} {:<16} {:>34} {:>34} {:>8}  verdict (bound)",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    let mut worse = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload:<16} (no runs in {change_dir})");
            continue;
        };
        for def in &defs {
            let values = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                runs.values()
                    .filter_map(|m| m.get(&def.name).copied())
                    .collect()
            };
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|(seed, p)| {
                    Some((*p.get(&def.name)?, *c_runs.get(seed)?.get(&def.name)?))
                })
                .collect();
            let row = judge(def, &values(p_runs), &values(c_runs), &pairs);
            worse |= row.verdict == "WORSE";
            println!(
                "{workload:<16} {:<16} {:>34} {:>34} {:>8}  {} ({})",
                def.name,
                describe(&row.parent),
                describe(&row.change),
                format!("{}/{}", row.wins.0, row.wins.1),
                row.verdict,
                def.bound
            );
        }
    }
    if worse {
        Err("the change is worse than its bound on at least one metric".into())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            lower_is_better: lower,
            bound,
        }
    }

    fn pairs(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn a_clear_win_is_improved() {
        let p: Vec<f64> = (0..10).map(|i| 10.0 + 0.1 * f64::from(i)).collect();
        let c: Vec<f64> = p.iter().map(|x| x - 2.0).collect();
        let row = judge(&def(true, 0.1), &p, &c, &pairs(&p, &c));
        assert_eq!(row.verdict, "improved");
        assert_eq!(row.wins, (10, 10));
        // The same numbers under "higher is better" are a regression.
        assert_eq!(
            judge(&def(false, 0.1), &p, &c, &pairs(&p, &c)).verdict,
            "WORSE"
        );
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let p: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let mut c: Vec<f64> = p.iter().map(|x| x - 1.0).collect();
        c[0] = 20.0;
        c[1] = 20.0;
        let row = judge(&def(true, 0.25), &p, &c, &pairs(&p, &c));
        assert_eq!(row.wins, (8, 10));
        assert_eq!(row.verdict, "no worse");
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let p = [5.0, 10.0, 15.0, 20.0, 8.0, 12.0, 18.0, 6.0, 14.0, 9.0];
        let c = [11.0, 9.0, 16.0, 19.0, 8.5, 12.5, 17.0, 7.0, 13.0, 10.0];
        let row = judge(&def(true, 0.1), &p, &c, &pairs(&p, &c));
        assert_eq!(row.verdict, "unresolved");
    }

    #[test]
    fn small_slowdowns_within_the_bound_are_no_worse() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + 0.1 * f64::from(i)).collect();
        let c: Vec<f64> = p.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            judge(&def(true, 0.1), &p, &c, &pairs(&p, &c)).verdict,
            "no worse"
        );
        let c: Vec<f64> = p.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&def(true, 0.1), &p, &c, &pairs(&p, &c)).verdict,
            "WORSE"
        );
    }

    #[test]
    fn result_files_parse() {
        assert_eq!(
            parse_file_name(Path::new("/x/solve_tiny.17.json")),
            Some(("solve_tiny".to_string(), 17))
        );
        assert_eq!(parse_file_name(Path::new("notes.txt")), None);
        let text = "table\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        let m = parse_result(text).expect("parses");
        assert_eq!(m.get("setup_s"), Some(&0.5));
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let defs = metric_defs().expect("BENCHMARK.json parses");
        assert!(defs
            .iter()
            .any(|d| d.name == "setup_s" && d.lower_is_better));
        assert!(defs.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }
}
