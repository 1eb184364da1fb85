//! `adpbench check-noise <a> <b>`: two result files of the same commit must
//! agree on every bounded metric within that metric's own bound. A file is
//! what `--out` appends to: one JSON line per run. Runs are grouped by
//! workload and compared median to median.

use crate::json::{self, Json};
use crate::report::Contract;
use crate::stats::median_f64;
use std::collections::BTreeMap;

/// Bounds of the metrics ISSUE 11 lists as end-to-end but which exist on
/// `update_mix` only (or are zero by construction) and so cannot sit in
/// `BENCHMARK.json`'s `end_to_end`, where every workload must report every
/// metric and none may be zero. Same bounds as the issue's table.
const EXTRA_BOUNDS: [(&str, f64); 5] = [
    ("failed_share", 0.0),
    ("bg_read_p50_us", 0.10),
    ("reopen_s", 0.10),
    ("log_bytes_per_user_byte", 0.005),
    ("durable_ok", 0.0),
];

type Medians = BTreeMap<(String, String), f64>;

fn medians(path: &str) -> Result<Medians, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values
        .into_iter()
        .map(|(k, mut v)| (k, median_f64(&mut v)))
        .collect())
}

/// Prints the comparison; `Ok(true)` when every bounded metric agrees.
pub fn check(contract: &Contract, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (medians(a_path)?, medians(b_path)?);
    let bounds: BTreeMap<&str, f64> = contract
        .end_to_end
        .iter()
        .filter_map(|d| Some((d.name.as_str(), d.bound?)))
        .chain(EXTRA_BOUNDS)
        .collect();
    let mut all_within = true;
    let mut compared = 0;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>8}",
        "workload", "metric", "a", "b", "diff", "bound"
    );
    for ((workload, name), &va) in &a {
        let (Some(&vb), Some(&bound)) = (
            b.get(&(workload.clone(), name.clone())),
            bounds.get(name.as_str()),
        ) else {
            continue;
        };
        let diff = if va == vb {
            0.0
        } else {
            (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE)
        };
        let within = diff <= bound;
        all_within &= within;
        compared += 1;
        println!(
            "{workload:<12} {name:<26} {va:>14.4} {vb:>14.4} {:>8.3}% {:>7.1}%{}",
            diff * 100.0,
            bound * 100.0,
            if within { "" } else { "   EXCEEDED" }
        );
    }
    if compared == 0 {
        return Err("the two files share no bounded metric".into());
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(name: &str, lines: &[String]) -> String {
        let dir = crate::fixture::scratch_root().join("noise-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n")).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run(workload: &str, p50: f64, failed_share: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"traced\": false, \"metrics\": {{\
             \"op_p50_us\": {{\"value\": {p50}, \"unit\": \"us\"}}, \
             \"failed_share\": {{\"value\": {failed_share}, \"unit\": \"ratio\"}}}}, \"claim\": null}}"
        )
    }

    #[test]
    fn agreement_within_the_bound_passes_and_beyond_it_fails() {
        let contract = Contract::load().unwrap();
        let bound = contract.decl("op_p50_us").unwrap().bound.unwrap();
        let a = write(
            "a.jsonl",
            &[
                run("range_hot", 100.0, 0.0),
                run("range_hot", 102.0, 0.0),
                run("range_hot", 98.0, 0.0),
            ],
        );
        let near = write(
            "near.jsonl",
            &[run("range_hot", 100.0 * (1.0 + bound * 0.9), 0.0)],
        );
        let far = write(
            "far.jsonl",
            &[run("range_hot", 100.0 * (1.0 + bound * 1.5), 0.0)],
        );
        let failing = write("failing.jsonl", &[run("range_hot", 100.0, 0.001)]);
        let other = write("other.jsonl", &[run("sql_mix", 100.0, 0.0)]);
        assert_eq!(check(&contract, &a, &near), Ok(true));
        assert_eq!(check(&contract, &a, &far), Ok(false));
        // Any rise of a zero-bound metric fails.
        assert_eq!(check(&contract, &a, &failing), Ok(false));
        assert!(check(&contract, &a, &other).is_err());
    }
}
