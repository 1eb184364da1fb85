//! One run of one workload: set-up (timed) → warm-up (untimed) → closed
//! phase → open phase → checks. A traced run replaces the long phases with
//! a single-threaded span replay, unit-cost probes, and short phases that
//! exist to measure what tracing itself costs.

use crate::client::{live_canary, replay_cache, Client, Counts, Ctx, TraceState};
use crate::fixture::{self, Fixture};
use crate::gen::{self, HOT_RANGES};
use crate::load::{closed_client, open_client, ClientLog, Clock, WallClock};
use crate::report::{status_mib, Contract, Metrics, RunOutput};
use crate::stats::{self, median_f64, percentile, Sample};
use crate::trace::{self, Tracer};
use crate::workload::{Phases, RunConfig, Workload, OPEN_BASE, OWNER_BITS, OWNER_SEED};
use adp_crypto::{chain_extend, AggregateSignature, HashDomain, Keypair, Signature};
use adp_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
enum Phase {
    Closed { ns: u64 },
    Open { ns: u64, grace_ns: u64, rate: u64 },
}

struct PhaseOut {
    ops: ClientLog,
    bg: ClientLog,
    ns: u64,
    /// Resident set in MiB, sampled every [`RSS_EVERY`] while the phase ran.
    rss_mib: Vec<f64>,
}

const RSS_EVERY: Duration = Duration::from_millis(20);

/// Index counters that persist across the phases of a run, so no closed
/// phase re-draws an operation an earlier one sent.
#[derive(Default)]
struct Cursors {
    ops: AtomicU64,
    bg: AtomicU64,
}

fn run_op(
    client: &mut Client,
    ctx: &Ctx,
    index: u64,
    ts: Option<&mut TraceState>,
) -> Result<(u64, u64), String> {
    let bytes = match ts {
        Some(ts) => client.exec_traced(ctx, index, ts)?,
        None => client.exec(ctx, index)?,
    };
    Ok((bytes.result, bytes.vo))
}

/// Runs one phase on every client at once: the workload's senders on the
/// phase's discipline, any remaining client (the `update_mix` reader) in a
/// closed loop until the senders are done.
fn run_phase(
    fx: &Fixture,
    clients: &mut [Client],
    traces: &mut [Option<TraceState>],
    cursors: &Cursors,
    phase: Phase,
) -> PhaseOut {
    let ctx = fx.ctx();
    let ctx = &ctx;
    let workload = fx.cfg.workload;
    let senders = workload.op_clients();
    let clock = WallClock {
        origin: Instant::now(),
    };
    // Late enough that every thread is parked on it before it arrives.
    let start_ns = 5_000_000;
    let stop = AtomicBool::new(false);
    let (phase_ns, stop) = (
        match phase {
            Phase::Closed { ns } | Phase::Open { ns, .. } => ns,
        },
        &stop,
    );
    let mut out = PhaseOut {
        ops: ClientLog::default(),
        bg: ClientLog::default(),
        ns: phase_ns,
        rss_mib: Vec::new(),
    };
    std::thread::scope(|s| {
        let mut op_threads = Vec::new();
        let mut bg_threads = Vec::new();
        for (c, (client, ts)) in clients.iter_mut().zip(traces.iter_mut()).enumerate() {
            if c < senders {
                op_threads.push(s.spawn(move || match phase {
                    Phase::Closed { ns } => {
                        clock.wait_until(start_ns);
                        closed_client(&clock, start_ns, start_ns + ns, &cursors.ops, None, |i| {
                            run_op(client, ctx, i, ts.as_mut())
                        })
                    }
                    Phase::Open { ns, grace_ns, rate } => open_client(
                        &clock,
                        start_ns,
                        start_ns + ns + grace_ns,
                        rate,
                        c as u64,
                        senders as u64,
                        rate * ns / 1_000_000_000,
                        |i| run_op(client, ctx, OPEN_BASE + i, ts.as_mut()),
                    ),
                }));
            } else {
                bg_threads.push(s.spawn(move || {
                    clock.wait_until(start_ns);
                    closed_client(&clock, start_ns, u64::MAX, &cursors.bg, Some(stop), |i| {
                        run_op(client, ctx, i, ts.as_mut())
                    })
                }));
            }
        }
        // This thread has nothing to do until the senders finish: it
        // samples the resident set meanwhile.
        while !op_threads.iter().all(|t| t.is_finished()) {
            out.rss_mib.push(status_mib("VmRSS"));
            std::thread::sleep(RSS_EVERY);
        }
        for t in op_threads {
            out.ops.merge(t.join().expect("client thread panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        for t in bg_threads {
            out.bg.merge(t.join().expect("reader thread panicked"));
        }
    });
    out
}

fn no_traces(n: usize) -> Vec<Option<TraceState>> {
    (0..n).map(|_| None).collect()
}

/// Completed operations per second over the phase (operations that
/// finished after its end do not count).
fn ops_per_s(samples: &[Sample], phase_ns: u64) -> f64 {
    let done = samples.iter().filter(|s| s.done_ns <= phase_ns).count();
    done as f64 / (phase_ns as f64 / 1e9)
}

fn timing_note(t: &stats::Timing) -> String {
    format!(
        "n={} min={:.1} p50={:.1} p95={:.1} highest supported p{:.0}={:.1} mad5={:.2}",
        t.n,
        t.min_us,
        t.p50_us,
        t.p95_us,
        t.tail_p * 100.0,
        t.tail_us,
        t.mad5_us
    )
}

fn p99_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 0.99) as f64 / 1e3
}

/// What is learnt from the store directory once the server is down.
struct StoreAfter {
    reopen_s: f64,
    durable_ok: bool,
    log_bytes: u64,
    records: u64,
    snapshot_load_s: f64,
    compact_s: f64,
}

/// `update_mix` only: reopen the store the server wrote (snapshot load plus
/// a signature-verified replay of every logged batch), compare it with the
/// owner's copy and the subscriber's folded rows, compact, and reopen.
fn reopen_store(
    fx_store: &std::path::Path,
    updater: &crate::client::Updater,
) -> Result<StoreAfter, String> {
    let start = Instant::now();
    let mut store = Store::open(fx_store).map_err(|e| format!("reopen: {e}"))?;
    let reopen_s = start.elapsed().as_secs_f64();
    let durable_ok = store.audit()
        && store.table().table().rows() == updater.owner_st.table().rows()
        && updater.mirror_matches_owner();
    let log_bytes = store
        .log_bytes()
        .map_err(|e| format!("log size: {e}"))?
        .saturating_sub(adp_store::log::LOG_HEADER_LEN as u64);
    let records = store.log_record_count();
    let start = Instant::now();
    store.compact().map_err(|e| format!("compact: {e}"))?;
    let compact_s = start.elapsed().as_secs_f64();
    drop(store);
    let start = Instant::now();
    drop(Store::open(fx_store).map_err(|e| format!("reopen after compact: {e}"))?);
    Ok(StoreAfter {
        reopen_s,
        durable_ok,
        log_bytes,
        records,
        snapshot_load_s: start.elapsed().as_secs_f64(),
        compact_s,
    })
}

/// Stops the server and, for `update_mix`, inspects the store it leaves.
fn finish(
    fx: Fixture,
    clients: Vec<Client>,
) -> Result<Option<(StoreAfter, Box<crate::client::Updater>)>, String> {
    let updater = clients.into_iter().find_map(|c| match c {
        Client::Updater(u) => Some(u),
        _ => None,
    });
    let store_dir = fx.store_dir.clone();
    let run_dir = fx.stop();
    let after = match (store_dir, updater) {
        (Some(dir), Some(mut u)) => {
            // The mirror store (traced runs) holds its own directory lock.
            u.mirror = None;
            Some((reopen_store(&dir, &u)?, u))
        }
        _ => None,
    };
    std::fs::remove_dir_all(&run_dir).map_err(|e| format!("remove run directory: {e}"))?;
    Ok(after)
}

fn set_store_metrics(m: &mut Metrics, after: &StoreAfter, u: &crate::client::Updater) {
    m.set("reopen_s", after.reopen_s);
    m.set("durable_ok", if after.durable_ok { 1.0 } else { 0.0 });
    m.set(
        "log_bytes_per_user_byte",
        after.log_bytes as f64 / u.user_bytes.max(1) as f64,
    );
    m.set("store.snapshot_load_ms", after.snapshot_load_s * 1e3);
    m.set("store.compact_ms", after.compact_s * 1e3);
    m.set(
        "store.open_replay_us_per_record",
        (after.reopen_s - after.snapshot_load_s).max(0.0) * 1e6 / after.records.max(1) as f64,
    );
}

pub fn run(cfg: RunConfig, contract: &Contract) -> Result<RunOutput, String> {
    let phases = Phases::for_run(cfg.workload, cfg.seconds);
    let mut comments = Vec::new();

    // Set-up, several times over: the median is the metric, the last one
    // is the fixture the run uses.
    let mut setup_s = Vec::new();
    let mut live: Option<(Fixture, Vec<Client>)> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some((fx, clients)) = live.take() {
            drop(clients);
            fx.teardown()?;
        }
        let (fx, clients) = fixture::setup(cfg)?;
        setup_s.push(fx.times.total_s);
        live = Some((fx, clients));
    }
    let (fx, mut clients) = live.expect("at least one set-up ran");
    comments.push(format!(
        "setup: {} runs {:?} s; sign_table {:.3} s for {} rows",
        setup_s.len(),
        setup_s,
        fx.times.sign_s,
        fx.times.rows_signed
    ));

    // A verifier that checks less must not get as far as being timed.
    let reader = clients
        .iter_mut()
        .rfind(|c| !matches!(c, Client::Updater(_)))
        .ok_or("no reading client")?;
    live_canary(reader, &fx.ctx())?;

    let mut metrics = Metrics::default();
    let setup_median = median_f64(&mut setup_s.clone());
    if cfg.trace {
        let (correct, attempted, failed) =
            traced_run(fx, clients, phases, contract, &mut metrics, &mut comments)?;
        for d in &contract.per_layer {
            if metrics.value(&d.name).is_none() {
                metrics.set(&d.name, 0.0);
            }
        }
        return Ok(RunOutput {
            metrics,
            correct,
            valid: true,
            attempted,
            failed,
            comments,
        });
    }

    let cursors = Cursors::default();
    let n = clients.len();
    let warm = run_phase(
        &fx,
        &mut clients,
        &mut no_traces(n),
        &cursors,
        Phase::Closed { ns: phases.warm_ns },
    );
    let closed = run_phase(
        &fx,
        &mut clients,
        &mut no_traces(n),
        &cursors,
        Phase::Closed {
            ns: phases.closed_ns,
        },
    );
    let rate = cfg.workload.open_rate();
    let open = run_phase(
        &fx,
        &mut clients,
        &mut no_traces(n),
        &cursors,
        Phase::Open {
            ns: phases.open_ns,
            grace_ns: phases.grace_ns,
            rate,
        },
    );

    let server = fx.handle.stats();
    let workload = cfg.workload;
    // Memory under load, read before the store is reopened and compared
    // below: that is the benchmark's own work, not the program's.
    let mut rss: Vec<f64> = closed
        .rss_mib
        .iter()
        .chain(&open.rss_mib)
        .copied()
        .collect();
    metrics.set_noted(
        "rss_mb",
        median_f64(&mut rss),
        format!(
            "median of {} samples over the closed and open phases; high-water mark {:.1}",
            rss.len(),
            status_mib("VmHWM")
        ),
    );
    let after = finish(fx, clients)?;

    let logs = [
        &warm.ops,
        &closed.ops,
        &open.ops,
        &warm.bg,
        &closed.bg,
        &open.bg,
    ];
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    for e in logs.iter().filter_map(|l| l.first_error.as_ref()) {
        comments.push(format!("first failure: {e}"));
    }

    metrics.set_noted(
        "setup_s",
        setup_median,
        format!("median of {} set-ups", setup_s.len()),
    );
    let rates = stats::window_rates(&closed.ops.samples, closed.ns);
    metrics.set_noted(
        "ops_per_s",
        ops_per_s(&closed.ops.samples, closed.ns),
        format!(
            "closed phase {:.1} s, {} clients, n={} min_window={:.1} mad5={:.2}",
            closed.ns as f64 / 1e9,
            workload.op_clients(),
            closed.ops.samples.len(),
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            stats::mad(&rates)
        ),
    );
    let t = stats::timing(&open.ops.samples, open.ns);
    metrics.set_noted(
        "op_p50_us",
        t.p50_us,
        format!(
            "open phase {rate}/s for {:.1} s, {}",
            open.ns as f64 / 1e9,
            timing_note(&t)
        ),
    );
    metrics.set_noted("op_p95_us", t.p95_us, timing_note(&t));
    let (result_bytes, vo_bytes) = open.ops.samples.iter().fold((0u64, 0u64), |(r, v), s| {
        (r + s.result_bytes, v + s.vo_bytes)
    });
    metrics.set(
        "wire_bytes_per_op",
        (result_bytes + vo_bytes) as f64 / open.ops.samples.len().max(1) as f64,
    );
    metrics.set(
        "vo_overhead_pct",
        100.0 * vo_bytes as f64 / result_bytes.max(1) as f64,
    );

    // Validity of the run, as opposed to correctness of the program.
    let mut late = open.ops.late_ns.clone();
    let late_p99 = p99_us(&mut late);
    let mut valid = true;
    // Latency runs from the due time, so a late send inflates it: the
    // tail of the generator's lateness is held against the tail metric.
    let late_limit = 0.10 * t.p95_us;
    if late_p99 > late_limit {
        valid = false;
        comments.push(format!(
            "INVALID: the generator sent {late_p99:.1} us late at p99, over a tenth of op_p95_us"
        ));
    }
    if t.tail_p < 0.95 {
        valid = false;
        comments.push(format!(
            "INVALID: {} open-phase samples support only p{:.0}, not p95",
            t.n,
            t.tail_p * 100.0
        ));
    }
    metrics.set_noted(
        "loadgen.late_p99_us",
        late_p99,
        format!("valid up to {late_limit:.1}"),
    );
    let lookups = (server.cache_hits + server.cache_misses).max(1);
    metrics.set_noted(
        "cache.hit_ratio",
        server.cache_hits as f64 / lookups as f64,
        format!(
            "whole run, {} queries, {} server errors",
            server.queries, server.errors
        ),
    );
    metrics.set("cache.invalidations", server.invalidations as f64);
    metrics.set_noted(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        format!("{failed} of {attempted}"),
    );

    let mut correct = failed == 0;
    if let Some((after, u)) = &after {
        let mut bg: Vec<Sample> = closed.bg.samples.clone();
        // One timeline for the reader: the open phase follows the closed.
        bg.extend(open.bg.samples.iter().map(|s| Sample {
            done_ns: s.done_ns + closed.ns,
            ..*s
        }));
        let bt = stats::timing(&bg, closed.ns + open.ns);
        metrics.set_noted("bg_read_p50_us", bt.p50_us, timing_note(&bt));
        set_store_metrics(&mut metrics, after, u);
        comments.push(format!(
            "store: {} log records, {} log bytes, {} user bytes",
            after.records, after.log_bytes, u.user_bytes
        ));
        correct &= after.durable_ok;
    }
    Ok(RunOutput {
        metrics,
        correct,
        valid,
        attempted,
        failed,
        comments,
    })
}

/// Median nanoseconds of one call to `f`: batches sized to about two
/// milliseconds, fifteen of them.
fn probe_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    let once = (start.elapsed().as_nanos() as u64).max(20);
    let batch = (2_000_000 / once).clamp(1, 50_000);
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median_f64(&mut samples)
}

/// Unit costs of the crypto layer, measured in this same process so they
/// can be multiplied with the counts the traced operations report.
fn crypto_probes(m: &mut Metrics) {
    let hasher = adp_core::prelude::SchemeConfig::default().hasher();
    let block = [0x5au8; 64];
    m.set(
        "crypto.sha256_64B_ns",
        probe_ns(|| adp_crypto::sha256::sha256(std::hint::black_box(&block))),
    );
    let link = hasher.hash(HashDomain::Data, b"adpbench chain seed");
    m.set(
        "crypto.chain_step_ns",
        probe_ns(|| chain_extend(&hasher, std::hint::black_box(link), 1_000)) / 1_000.0,
    );
    // The owner's own key: same seed, same generator, same key.
    let keypair = Keypair::generate(OWNER_BITS, &mut StdRng::seed_from_u64(OWNER_SEED));
    let public = keypair.public();
    let digests: Vec<_> = (0..100u32)
        .map(|i| hasher.hash(HashDomain::Data, &i.to_le_bytes()))
        .collect();
    m.set(
        "crypto.rsa1024_sign_us",
        probe_ns(|| keypair.sign(&hasher, &digests[0])) / 1e3,
    );
    let sigs: Vec<Signature> = digests.iter().map(|d| keypair.sign(&hasher, d)).collect();
    m.set(
        "crypto.rsa1024_verify_us",
        probe_ns(|| public.verify(&hasher, &digests[0], &sigs[0])) / 1e3,
    );
    let refs: Vec<&Signature> = sigs.iter().collect();
    let aggregate = AggregateSignature::combine(public, &refs);
    m.set(
        "crypto.agg_verify_100_us",
        probe_ns(|| aggregate.verify(&hasher, public, &digests)) / 1e3,
    );
    let thousand: Vec<&Signature> = sigs.iter().cycle().take(1_000).collect();
    m.set(
        "crypto.agg_combine_ns_per_sig",
        probe_ns(|| AggregateSignature::combine(public, &thousand)) / 1_000.0,
    );
}

/// Median relative error, in percent, of predictions against measurements.
fn median_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let mut errs: Vec<f64> = pairs
        .iter()
        .filter(|(_, measured)| *measured > 0.0)
        .map(|(predicted, measured)| 100.0 * (predicted - measured).abs() / measured)
        .collect();
    median_f64(&mut errs)
}

/// Operations the single-threaded span replay covers: the first 2000 of
/// the open phase's stream (200 batches on `update_mix`), a twentieth of
/// that on smoke-sized tables.
fn replay_ops(cfg: &RunConfig) -> u64 {
    let full = if cfg.workload == Workload::UpdateMix {
        200
    } else {
        2_000
    };
    if cfg.sizes == gen::Sizes::SMOKE {
        full / 20
    } else {
        full
    }
}

fn new_trace_state(origin: Instant, replay: bool) -> TraceState {
    TraceState {
        tracer: Tracer::new(origin),
        counts: Counts::default(),
        cache: replay_cache(),
        replay,
    }
}

/// Turns the span replay into per-layer metrics and the self-time table.
/// Only the replay feeds them: one thread, nothing else running, every
/// span followed by its direct-call counterpart.
fn layer_metrics(
    m: &mut Metrics,
    comments: &mut Vec<String>,
    replay: &TraceState,
    contract: &Contract,
) {
    let spans = &replay.tracer.spans;
    let per_op = trace::per_op_us(spans);
    for (span, by_op) in &per_op {
        let mut us: Vec<f64> = by_op.values().copied().collect();
        let median = median_f64(&mut us);
        // A span feeds the metric that carries its name, where one is
        // declared: `<span>_us`, or `<span>_ns` for the cache probes.
        for (metric, value) in [
            (format!("{span}_us"), median),
            (format!("{span}_ns"), median * 1e3),
        ] {
            if contract.decl(&metric).is_some() {
                m.set_noted(&metric, value, format!("n={}", us.len()));
            }
        }
    }
    let mut residual = trace::self_us_of(spans, "server.roundtrip_raw");
    if !residual.is_empty() {
        m.set("server.residual_us", median_f64(&mut residual));
    }
    if let (Some(apply), Some(store)) = (
        per_op.get("server.apply_update"),
        per_op.get("store.apply_replayed"),
    ) {
        let mut fanout: Vec<f64> = apply
            .iter()
            .filter_map(|(op, us)| Some(us - store.get(op)?))
            .collect();
        m.set("server.fanout_us", median_f64(&mut fanout));
    }
    let c = &replay.counts;
    if c.ops > 0 {
        m.set(
            "verifier.sig_verifies_per_op",
            c.sig_verifies as f64 / c.ops as f64,
        );
        m.set("verifier.hash_ops_per_op", c.hash_ops as f64 / c.ops as f64);
        m.set(
            "verifier.verify_us_per_row",
            c.verify_us / c.rows.max(1) as f64,
        );
    }
    if c.answer_rows > 0 {
        m.set(
            "publisher.answer_us_per_row",
            c.answer_us / c.answer_rows as f64,
        );
    }
    if !c.join_verify_us.is_empty() {
        m.set(
            "join.verify_pkfk_us",
            median_f64(&mut c.join_verify_us.clone()),
        );
    }
    if !c.join_answer_us.is_empty() {
        m.set(
            "join.answer_pkfk_us",
            median_f64(&mut c.join_answer_us.clone()),
        );
    }
    if !c.cost_vo_bytes.is_empty() {
        m.set(
            "costmodel.vo_bytes_err_pct",
            median_err_pct(&c.cost_vo_bytes),
        );
        m.set(
            "costmodel.verify_ms_err_pct",
            median_err_pct(&c.cost_verify_ms),
        );
    }

    // The budget: self time per layer over the replayed operations.
    let (rows, total_ns) = trace::self_times(spans);
    comments.push(format!(
        "self-time table over {} replayed operations ({:.1} us per operation)",
        c.ops + c.batches,
        total_ns as f64 / 1e3 / (c.ops + c.batches).max(1) as f64
    ));
    for r in &rows {
        comments.push(format!(
            "  {:<26} {:>7} spans {:>12.1} us self {:>6.1} %",
            r.name,
            r.count,
            r.self_ns as f64 / 1e3,
            100.0 * r.self_ns as f64 / total_ns.max(1) as f64
        ));
    }
    let named: i64 = rows
        .iter()
        .filter(|r| r.name != "server.roundtrip_raw")
        .map(|r| r.self_ns)
        .sum();
    comments.push(format!(
        "  layers with a direct call explain {:.1} % of the operation span; the rest is server.residual",
        100.0 * named as f64 / total_ns.max(1) as f64
    ));
    if let (Some(sha), Some(agg)) = (
        m.value("crypto.sha256_64B_ns"),
        m.value("crypto.agg_verify_100_us"),
    ) {
        let explained_us = c.hash_ops as f64 * sha / 1e3 + c.sig_verifies as f64 * agg / 100.0;
        comments.push(format!(
            "  verify explained by unit costs (hash_ops x sha256_64B + sig_verifies x agg_verify/100): {:.1} %",
            100.0 * explained_us / c.verify_us.max(1e-9)
        ));
    }
}

fn traced_run(
    fx: Fixture,
    mut clients: Vec<Client>,
    phases: Phases,
    contract: &Contract,
    m: &mut Metrics,
    comments: &mut Vec<String>,
) -> Result<(bool, u64, u64), String> {
    let cfg = fx.cfg;
    let workload = cfg.workload;
    let origin = Instant::now();
    let n = clients.len();
    let cursors = Cursors::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    macro_rules! tally {
        ($log:expr) => {
            attempted += $log.attempted;
            failed += $log.failed;
            if let Some(e) = &$log.first_error {
                comments.push(format!("first failure: {e}"));
            }
        };
    }

    m.set("owner.sign_table_s", fx.times.sign_s);
    m.set(
        "owner.sign_rows_per_s",
        fx.times.rows_signed as f64 / fx.times.sign_s,
    );

    // update_mix replays the first batches of the stream on the table as
    // set up, so its per-batch counts repeat exactly; the read workloads
    // warm the server first, as the measured run does.
    if workload == Workload::UpdateMix {
        let mirror_dir = fx.run_dir.join("mirror");
        let Some(Client::Updater(u)) = clients.first_mut() else {
            return Err("update_mix has no updater".into());
        };
        u.mirror = Some(
            Store::create(&mirror_dir, (*fx.served[0].signed).clone())
                .map_err(|e| format!("mirror store: {e}"))?,
        );
    } else {
        let warm = run_phase(
            &fx,
            &mut clients,
            &mut no_traces(n),
            &cursors,
            Phase::Closed { ns: phases.warm_ns },
        );
        tally!(&warm.ops);
    }

    // Span replay: one thread, one operation at a time, each followed by
    // the direct-call replay of the server's share.
    let ctx = fx.ctx();
    let mut replay = new_trace_state(origin, true);
    let wanted = replay_ops(&cfg);
    let budget = Instant::now();
    let mut replayed = 0u64;
    for i in 0..wanted {
        // A safety valve, not a schedule: a full run finishes well inside.
        if budget.elapsed().as_secs_f64() > cfg.seconds * 0.75 {
            break;
        }
        attempted += 1;
        match clients[0].exec_traced(&ctx, OPEN_BASE + i, &mut replay) {
            Ok(_) => replayed += 1,
            Err(e) => {
                failed += 1;
                comments.push(format!("replay failure: {e}"));
            }
        }
    }
    if let Some(Client::Updater(u)) = clients.first() {
        let mirror = u.mirror.as_ref().expect("mirror store created above");
        let log_bytes = mirror
            .log_bytes()
            .map_err(|e| format!("mirror log size: {e}"))?
            .saturating_sub(adp_store::log::LOG_HEADER_LEN as u64);
        m.set(
            "store.log_bytes_per_batch",
            log_bytes as f64 / u.batches.max(1) as f64,
        );
        m.set(
            "owner.sigs_resigned_per_batch",
            u.sigs_resigned as f64 / u.batches.max(1) as f64,
        );
        m.set(
            "delta.bytes_per_batch",
            replay.counts.delta_bytes as f64 / replay.counts.batches.max(1) as f64,
        );
        // The reader's operations, replayed the same way on the table as
        // the batches left it.
        for i in 0..HOT_RANGES * 4 {
            attempted += 1;
            if let Err(e) = clients[1].exec_traced(&ctx, i, &mut replay) {
                failed += 1;
                comments.push(format!("reader replay failure: {e}"));
            }
        }
    }
    comments.push(format!("span replay: {replayed} of {wanted} operations"));

    // Round-trip floor: a frame the server answers from the reactor.
    let pinger = clients
        .iter_mut()
        .rfind(|c| !matches!(c, Client::Updater(_)))
        .ok_or("no reading client")?;
    let mut ping = || match pinger {
        Client::Range(r) => r.verifier.client_mut().ping(),
        Client::Sql(s) => s.client_mut().ping(),
        Client::Updater(_) => unreachable!("filtered above"),
    };
    ping().map_err(|e| format!("ping: {e}"))?;
    m.set("server.ping_rtt_us", probe_ns(|| ping().is_ok()) / 1e3);
    crypto_probes(m);

    // The closed phase twice, spans off then on: the difference is what
    // tracing costs. Then a short traced open phase for the generator's
    // lateness.
    let share = |ns: u64| ns / 2;
    let plain = run_phase(
        &fx,
        &mut clients,
        &mut no_traces(n),
        &cursors,
        Phase::Closed {
            ns: share(phases.closed_ns),
        },
    );
    tally!(&plain.ops);
    tally!(&plain.bg);
    let before = fx.handle.stats();
    let mut traces: Vec<Option<TraceState>> = (0..n)
        .map(|_| Some(new_trace_state(origin, false)))
        .collect();
    let traced = run_phase(
        &fx,
        &mut clients,
        &mut traces,
        &cursors,
        Phase::Closed {
            ns: share(phases.closed_ns),
        },
    );
    tally!(&traced.ops);
    tally!(&traced.bg);
    let after = fx.handle.stats();
    let open = run_phase(
        &fx,
        &mut clients,
        &mut traces,
        &cursors,
        Phase::Open {
            ns: share(phases.open_ns),
            grace_ns: phases.grace_ns,
            rate: workload.open_rate(),
        },
    );
    tally!(&open.ops);
    tally!(&open.bg);

    let (plain_rate, traced_rate) = (
        ops_per_s(&plain.ops.samples, plain.ns),
        ops_per_s(&traced.ops.samples, traced.ns),
    );
    m.set_noted(
        "loadgen.trace_overhead_pct",
        100.0 * (plain_rate - traced_rate) / plain_rate.max(1e-9),
        format!("{plain_rate:.1}/s spans off, {traced_rate:.1}/s spans on"),
    );
    let mut late = open.ops.late_ns.clone();
    m.set("loadgen.late_p99_us", p99_us(&mut late));
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    m.set(
        "cache.hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
    );
    m.set(
        "cache.invalidations",
        (after.invalidations - before.invalidations) as f64,
    );
    let mut bg: Vec<Sample> = plain.bg.samples.clone();
    bg.extend(&traced.bg.samples);
    bg.extend(&open.bg.samples);
    m.set("bg_read_p50_us", stats::timing(&bg, 1).p50_us);

    layer_metrics(m, comments, &replay, contract);

    // Spans of every phase, written once everything is measured.
    let mut all = replay.tracer;
    for ts in traces.into_iter().flatten() {
        all.absorb(ts.tracer);
    }
    let path = fixture::scratch_root().join(format!("trace-{}.jsonl", workload.name()));
    all.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    comments.push(format!(
        "{} spans written to {}",
        all.spans.len(),
        path.display()
    ));

    let mut correct = true;
    if let Some((after, u)) = finish(fx, clients)? {
        set_store_metrics(m, &after, &u);
        correct &= after.durable_ok;
    }
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);
    Ok((correct && failed == 0, attempted, failed))
}
