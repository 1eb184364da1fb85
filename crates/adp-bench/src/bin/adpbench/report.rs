//! What a run prints: every metric as a `name unit value` line, the same
//! as JSON, and the one-line result the benchmark contract asks for. The
//! names, units, directions and bounds live in `BENCHMARK.json` at the
//! repository root, compiled in so this program and that file cannot
//! drift apart unnoticed (a unit test compares them both ways).

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// `BENCHMARK.json`, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// "lower" or "higher".
    pub better: String,
    /// End-to-end metrics only: the share of the baseline's value by which
    /// the metric may get worse.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let decls = |key: &str| -> Result<Vec<MetricDecl>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {f}"))
                    };
                    Ok(MetricDecl {
                        name: field("name")?,
                        unit: field("unit")?,
                        better: field("better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }

    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// One measured value with the context printed beside it (sample count,
/// minimum, window MAD ...).
#[derive(Clone, Debug, Default)]
pub struct Measured {
    pub value: f64,
    pub note: String,
}

/// The metrics of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Measured>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        self.0.insert(name.to_string(), Measured { value, note });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// What one run produced.
pub struct RunOutput {
    pub metrics: Metrics,
    /// Every answer verified and matched the reference; the canary caught
    /// both tamperings; `update_mix` ended with the three-way equality.
    pub correct: bool,
    /// The load generator kept its schedule and the tail had its samples.
    pub valid: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Context printed as `# ...` lines.
    pub comments: Vec<String>,
}

/// Formats a value with all the digits it was measured with.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `name unit value` lines of the declared metrics, in declared order.
pub fn lines(contract: &Contract, metrics: &Metrics) -> String {
    let mut out = String::new();
    for decl in contract.end_to_end.iter().chain(&contract.per_layer) {
        if let Some(m) = metrics.0.get(&decl.name) {
            out.push_str(&format!("{} {} {}", decl.name, decl.unit, number(m.value)));
            if !m.note.is_empty() {
                out.push_str(&format!("   # {}", m.note));
            }
            out.push('\n');
        }
    }
    out
}

fn metrics_object<'a>(
    contract: &Contract,
    metrics: &Metrics,
    names: impl Iterator<Item = &'a String>,
) -> String {
    let fields: Vec<String> = names
        .filter_map(|name| {
            let m = metrics.0.get(name)?;
            let unit = contract.decl(name).map_or("-", |d| d.unit.as_str());
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                number(m.value),
                json::quote(unit)
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, the metrics being every end-to-end metric of an untraced run
/// or every per-layer metric of a traced one.
pub fn result_line(contract: &Contract, out: &RunOutput, traced: bool) -> String {
    let decls = if traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics_object(contract, &out.metrics, decls.iter().map(|d| &d.name))
    )
}

/// Facts about the host that a number cannot be read without.
pub fn host_facts() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    #[cfg(target_arch = "x86_64")]
    let sha_ni = std::arch::is_x86_feature_detected!("sha");
    #[cfg(not(target_arch = "x86_64"))]
    let sha_ni = false;
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", model),
        ("sha_ni", sha_ni.to_string()),
        ("rustc", rustc),
        (
            "store_flush_policy",
            "sync_data per log append (product default)".to_string(),
        ),
    ]
}

/// One run as a single JSON line for `--out` files (what `check-noise`
/// reads back). Ends with `"claim": null`: this benchmark claims no gain.
pub fn run_record(
    contract: &Contract,
    out: &RunOutput,
    host: &[(&'static str, String)],
    workload: &str,
    seed: u64,
    traced: bool,
) -> String {
    let host: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \"valid\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"host\": {{{}}}, \"metrics\": {}, \"claim\": null}}",
        json::quote(workload),
        out.valid,
        out.correct,
        out.attempted,
        out.failed,
        host.join(", "),
        metrics_object(contract, &out.metrics, out.metrics.0.keys())
    )
}

/// A `/proc/self/status` memory field of this process in MiB: `VmRSS`
/// (resident now) or `VmHWM` (its high-water mark).
pub fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn benchmark_json_declares_exactly_the_workloads_this_program_runs() {
        let contract = Contract::load().unwrap();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workloads, ours);
        assert!(contract.workloads.iter().all(|w| well_formed(w)));
    }

    #[test]
    fn benchmark_json_names_are_well_formed_unique_and_bounded() {
        let contract = Contract::load().unwrap();
        let mut seen = std::collections::HashSet::new();
        for d in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(well_formed(&d.name), "bad metric name {}", d.name);
            assert!(seen.insert(&d.name), "metric {} declared twice", d.name);
            assert!(matches!(d.better.as_str(), "lower" | "higher"));
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit {:?} on {}",
                d.unit,
                d.name
            );
        }
        let setup = contract.decl("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let widest = contract
            .end_to_end
            .iter()
            .map(|d| d.bound.expect("end-to-end metrics carry a bound"))
            .fold(0.0, f64::max);
        assert!(widest <= 0.25);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!(contract.per_layer.iter().all(|d| d.bound.is_none()));
        assert!((1.0..=60.0).contains(&contract.run_seconds));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let contract = Contract::load().unwrap();
        let mut m = Metrics::default();
        for d in contract.end_to_end.iter().chain(&contract.per_layer) {
            m.set(&d.name, 1.25);
        }
        m.set("undeclared.extra", 3.0);
        let out = RunOutput {
            metrics: m,
            correct: true,
            valid: true,
            attempted: 10,
            failed: 0,
            comments: Vec::new(),
        };
        for traced in [false, true] {
            let line = result_line(&contract, &out, traced);
            let doc = json::parse(&line).unwrap();
            let Json::Obj(top) = &doc else { panic!() };
            assert_eq!(
                top.keys().map(String::as_str).collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            let Some(Json::Obj(got)) = doc.get("metrics") else {
                panic!()
            };
            let want = if traced {
                &contract.per_layer
            } else {
                &contract.end_to_end
            };
            assert_eq!(got.len(), want.len());
            for d in want {
                assert_eq!(got[&d.name].get("unit").unwrap().as_str(), Some(&*d.unit));
            }
        }
        let record = run_record(&contract, &out, &host_facts(), "range_hot", 1, false);
        assert!(record.ends_with("\"claim\": null}"));
        assert!(json::parse(&record).is_ok());
    }
}
