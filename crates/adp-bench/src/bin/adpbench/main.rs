//! `adpbench`: the one end-to-end benchmark of the adp workspace, with a
//! layered budget. Four workloads, metrics named in `BENCHMARK.json`, every
//! operation timed up to the moment the client has **verified** it.
//!
//! ```text
//! adpbench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!          [--smoke] [--out <file>]
//! adpbench check-noise <a.jsonl> <b.jsonl>
//! ```
//!
//! Prints every metric as a `name unit value` line (context after `#`),
//! then one JSON object as the last line of standard output: `correct`,
//! `attempted`, `failed`, `metrics`. Exits non-zero when any check failed.
//! See `README.md` beside this file for what is measured and why.
//!
//! Uses the product crates' public API only and nothing from the
//! `adp_bench` library it happens to be built next to.

mod client;
mod fixture;
mod gen;
mod json;
mod load;
mod noise;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use report::Contract;
use std::io::Write;
use std::process::ExitCode;
use workload::{RunConfig, Workload};

/// Full set-ups timed per untraced run (the median is `setup_s`).
const SETUPS: usize = 3;
/// Seconds a `--smoke` run measures for.
const SMOKE_SECONDS: f64 = 1.6;

struct Args {
    cfg: RunConfig,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: adpbench --workload <{}> --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke] [--out <file>]\n       \
         adpbench check-noise <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

fn parse_args(args: &[String], contract: &Contract) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, contract.run_seconds);
    let (mut trace, mut smoke, mut out) = (false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name)
                        .filter(|w| contract.workloads.iter().any(|d| d == w.name()))
                        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(Args {
        cfg: RunConfig {
            workload,
            seed: seed.ok_or_else(usage)?,
            seconds: if smoke { SMOKE_SECONDS } else { seconds },
            sizes: match (smoke, workload) {
                (true, _) => gen::Sizes::SMOKE,
                (false, Workload::UpdateMix) => gen::Sizes::FULL_UPDATE,
                (false, _) => gen::Sizes::FULL,
            },
            trace,
            setups: if smoke || trace { 1 } else { SETUPS },
        },
        out,
    })
}

/// Runs one workload and prints its report; `Ok(true)` when every check
/// passed.
fn run_and_report(args: &Args, contract: &Contract) -> Result<bool, String> {
    let cfg = args.cfg;
    let out = run::run(cfg, contract)?;
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let mut text = format!(
        "# adpbench workload={} seed={} seconds={} trace={}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let host = report::host_facts();
    for (k, v) in &host {
        text.push_str(&format!("# host {k}: {v}\n"));
    }
    text.push_str(&report::lines(contract, &out.metrics));
    for c in &out.comments {
        text.push_str(&format!("# {c}\n"));
    }
    text.push_str(&format!(
        "# run_valid {} correct {} claim null\n",
        u8::from(out.valid),
        u8::from(out.correct)
    ));
    text.push_str(&report::result_line(contract, &out, cfg.trace));
    writeln!(w, "{text}").map_err(|e| format!("stdout: {e}"))?;
    if let Some(path) = &args.out {
        let record = report::run_record(
            contract,
            &out,
            &host,
            cfg.workload.name(),
            cfg.seed,
            cfg.trace,
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(out.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = match Contract::load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("adpbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.first().map(String::as_str) == Some("check-noise") {
        match &args[1..] {
            [a, b] => noise::check(&contract, a, b),
            _ => Err(usage()),
        }
    } else {
        parse_args(&args, &contract).and_then(|a| run_and_report(&a, &contract))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("adpbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::canary;
    use std::collections::BTreeSet;

    fn smoke(workload: Workload, trace: bool) -> report::RunOutput {
        let contract = Contract::load().unwrap();
        let cfg = RunConfig {
            workload,
            seed: 7,
            seconds: SMOKE_SECONDS,
            sizes: gen::Sizes::SMOKE,
            trace,
            setups: 1,
        };
        let out = run::run(cfg, &contract)
            .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
        assert!(
            out.correct && out.failed == 0 && out.attempted > 0,
            "{} trace={trace}: {:?}",
            workload.name(),
            out.comments
        );
        out
    }

    /// All four workloads plus the traced path at a twentieth of the size,
    /// so the harness cannot rot without a CI edit; and every metric a run
    /// prints is declared in `BENCHMARK.json`, and every declared metric is
    /// printed by some run.
    #[test]
    fn smoke_runs_every_workload_and_prints_exactly_the_declared_metrics() {
        let contract = Contract::load().unwrap();
        let mut untraced = BTreeSet::new();
        let mut traced = BTreeSet::new();
        for workload in Workload::ALL {
            let out = smoke(workload, false);
            for d in &contract.end_to_end {
                let v = out.metrics.value(&d.name);
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{}: end-to-end metric {} is {v:?}",
                    workload.name(),
                    d.name
                );
            }
            untraced.extend(out.metrics.0.into_keys());
            let out = smoke(workload, true);
            traced.extend(out.metrics.0.into_keys());
        }
        let declared = |decls: &[report::MetricDecl]| -> BTreeSet<String> {
            decls.iter().map(|d| d.name.clone()).collect()
        };
        let all: BTreeSet<String> = declared(&contract.end_to_end)
            .union(&declared(&contract.per_layer))
            .cloned()
            .collect();
        assert!(untraced.is_subset(&all), "{:?}", untraced.difference(&all));
        assert!(untraced.is_superset(&declared(&contract.end_to_end)));
        assert_eq!(traced, declared(&contract.per_layer));
    }

    #[test]
    fn smoke_workloads_isolate_the_layers_they_were_chosen_for() {
        let hot = smoke(Workload::RangeHot, true);
        let cold = smoke(Workload::RangeCold, true);
        let v = |o: &report::RunOutput, n: &str| o.metrics.value(n).unwrap();
        assert!(v(&hot, "cache.hit_ratio") >= 0.95);
        assert!(v(&cold, "cache.hit_ratio") <= 0.05);
        // The publisher is idle on the hot path and busy on the cold one.
        assert_eq!(v(&hot, "publisher.answer_select_us"), 0.0);
        assert!(v(&cold, "publisher.answer_select_us") > 0.0);
        assert!(v(&hot, "verifier.verify_us") > 0.0);
        let update = smoke(Workload::UpdateMix, true);
        assert_eq!(v(&update, "durable_ok"), 1.0);
        assert!(v(&update, "cache.invalidations") > 0.0);
        assert!(v(&update, "owner.sigs_resigned_per_batch") > 0.0);
    }

    #[test]
    fn canary_aborts_when_the_verifier_is_stubbed_out() {
        let drop_last = |r: &[u8]| Some(r[..r.len() - 1].to_vec());
        // A verifier that accepts everything: the flipped VO byte is caught.
        let err = canary(b"result", b"proof", drop_last, |_, _| true).unwrap_err();
        assert!(err.contains("flipped"), "{err}");
        // One that checks the VO but not the result: the dropped row is.
        let err = canary(b"result", b"proof", drop_last, |_, vo| vo == b"proof").unwrap_err();
        assert!(err.contains("dropped"), "{err}");
        // One that rejects everything never gets to be timed either.
        assert!(canary(b"result", b"proof", drop_last, |_, _| false).is_err());
        // A real check passes.
        let honest = |r: &[u8], vo: &[u8]| r == b"result" && vo == b"proof";
        assert_eq!(canary(b"result", b"proof", drop_last, honest), Ok(()));
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let contract = Contract::load().unwrap();
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let a = parse_args(
            &argv("--workload range_cold --seed 42 --seconds 16 --trace 1"),
            &contract,
        )
        .unwrap();
        assert_eq!(a.cfg.workload, Workload::RangeCold);
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (42, 16.0, true));
        assert_eq!(a.cfg.setups, 1);
        let a = parse_args(&argv("--workload sql_mix --seed 1"), &contract).unwrap();
        assert_eq!(a.cfg.seconds, contract.run_seconds);
        assert_eq!(a.cfg.setups, SETUPS);
        assert!(parse_args(&argv("--workload nope --seed 1"), &contract).is_err());
        assert!(parse_args(&argv("--workload sql_mix"), &contract).is_err());
        assert!(parse_args(&argv("--workload sql_mix --seed 1 --trace 2"), &contract).is_err());
    }
}
