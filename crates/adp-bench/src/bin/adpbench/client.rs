//! One client connection and the workload's operation on it, each taken to
//! the point where the answer is **verified** — that is the moment the
//! load generator stamps.
//!
//! Two executions of the same operation exist. [`Client::exec`] goes
//! through the product's own client (`RemoteVerifier::select`,
//! `SqlSession::query_sql`, `RemoteSubscriber::poll_delta`) and is what
//! every end-to-end metric is measured on. [`Client::exec_traced`] makes
//! the same calls one layer down, with a span around each, and optionally
//! replays the server's share as direct calls.

use crate::fixture::{owner, Served};
use crate::gen::{self, ReadOp, ReadStream, Sizes, SqlTemplate, UpdateGen};
use crate::trace::{Kind, Tracer};
use crate::workload::REFERENCE_EVERY;
use adp_core::delta::{build_delta_pieces, dirty_intervals};
use adp_core::plan::{compute_plan_answer, encode_plan_answer, verify_plan, WirePlan};
use adp_core::prelude::*;
use adp_core::wire;
use adp_relation::{KeyRange, Record, SelectQuery, Table, Value};
use adp_server::protocol::{decode_frame, encode_frame};
use adp_server::{
    Frame, LruCache, RemoteSubscriber, RemoteVerifier, ServerHandle, SqlOutcome, SqlSession,
};
use adp_store::Store;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

/// Bytes one verified operation received.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpBytes {
    pub result: u64,
    pub vo: u64,
}

/// What every client thread of a run shares.
pub struct Ctx<'a> {
    pub seed: u64,
    pub sizes: Sizes,
    pub handle: &'a ServerHandle,
    pub served: &'a [Served],
}

/// The `update_mix` writer: the owner's own copy of the table, the batch
/// stream, and a whole-domain subscription that tells it when the server's
/// new epoch is verified and folded.
pub struct Updater {
    pub owner_st: SignedTable,
    pub sub: RemoteSubscriber,
    pub gen: UpdateGen,
    pub batches: u64,
    pub user_bytes: u64,
    pub sigs_resigned: u64,
    /// Traced runs only: a second store the same batches are applied to
    /// directly, so `server.apply_update` can be split into its store part
    /// and the rest.
    pub mirror: Option<Store>,
}

impl Updater {
    pub fn new(owner_st: SignedTable, sub: RemoteSubscriber, gen: UpdateGen) -> Self {
        Updater {
            owner_st,
            sub,
            gen,
            batches: 0,
            user_bytes: 0,
            sigs_resigned: 0,
            mirror: None,
        }
    }

    fn received(&self) -> OpBytes {
        let s = self.sub.stats();
        OpBytes {
            result: s.result_bytes as u64,
            vo: s.vo_bytes as u64,
        }
    }

    /// Whether the subscriber's folded rows equal the owner's table.
    pub fn mirror_matches_owner(&self) -> bool {
        self.sub
            .rows()
            .eq(self.owner_st.table().rows().iter().map(|r| &r.record))
    }
}

/// A connection that sends range selects: a sender of `range_hot` /
/// `range_cold`, or the `update_mix` background reader, which cycles the
/// hot ranges and skips the reference check because the table moves under
/// it (what it proves is re-checked by `durable_ok`).
pub struct RangeClient {
    pub verifier: RemoteVerifier,
    pub stream: ReadStream,
    pub check_reference: bool,
}

pub enum Client {
    Range(RangeClient),
    Sql(SqlSession),
    Updater(Box<Updater>),
}

fn range_query(lo: i64, hi: i64) -> SelectQuery {
    SelectQuery::range(KeyRange::closed(lo, hi))
}

fn reference_rows(table: &Table, lo: i64, hi: i64) -> impl Iterator<Item = &Record> {
    table
        .scan_range(Bound::Included(lo), Bound::Included(hi))
        .map(|(_, row)| &row.record)
}

fn check_range(served: &Served, lo: i64, hi: i64, rows: &[Record]) -> Result<(), String> {
    if reference_rows(&served.reference, lo, hi).eq(rows.iter()) {
        Ok(())
    } else {
        Err(format!(
            "range {lo}..={hi}: verified rows differ from the reference scan"
        ))
    }
}

fn int_column(out: &SqlOutcome, name: &str) -> Result<Vec<i64>, String> {
    let at = out
        .output
        .columns
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| format!("output has no column {name}: {:?}", out.output.columns))?;
    let mut vals: Vec<i64> = out
        .output
        .rows
        .iter()
        .filter_map(|r| r.values().get(at).and_then(Value::as_int))
        .collect();
    vals.sort_unstable();
    Ok(vals)
}

/// Compares a verified SQL answer with the same statement evaluated over
/// the generator's own tables.
fn check_sql(
    served: &[Served],
    template: SqlTemplate,
    a: i64,
    out: &SqlOutcome,
) -> Result<(), String> {
    let b = a + template.span() - 1;
    let (orders, customers) = (&served[0].reference, &served[1].reference);
    let int = |r: &Record, i: usize| r.get(i).as_int().expect("generated integer column");
    let mut want: Vec<i64> = match template {
        SqlTemplate::OrderAmounts | SqlTemplate::SumAmounts => {
            reference_rows(orders, a, b).map(|r| int(r, 2)).collect()
        }
        SqlTemplate::TierTwo => reference_rows(customers, a, b)
            .filter(|r| int(r, 2) == 2)
            .map(|r| int(r, 0))
            .collect(),
        SqlTemplate::Join => reference_rows(orders, a, b).map(|r| int(r, 0)).collect(),
    };
    want.sort_unstable();
    let ok = match template {
        SqlTemplate::OrderAmounts => int_column(out, "amount")? == want,
        SqlTemplate::TierTwo => int_column(out, "id")? == want,
        SqlTemplate::Join => int_column(out, "orders.oid")? == want,
        SqlTemplate::SumAmounts => matches!(
            out.output.aggregate,
            Some((_, AggregateValue::Sum(s))) if s == want.iter().sum::<i64>()
        ),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{template:?} a={a}: verified answer differs from the reference"
        ))
    }
}

impl Client {
    /// Runs operation `index` of the client's stream to the verified state.
    pub fn exec(&mut self, ctx: &Ctx, index: u64) -> Result<OpBytes, String> {
        let check = index.is_multiple_of(REFERENCE_EVERY);
        match self {
            Client::Range(r) => {
                let ReadOp::Range { lo, hi } = gen::read_op(r.stream, ctx.seed, ctx.sizes, index)
                else {
                    return Err("range client drew a non-range operation".into());
                };
                let got = r
                    .verifier
                    .select(&range_query(lo, hi))
                    .map_err(|e| e.to_string())?;
                if check && r.check_reference {
                    check_range(&ctx.served[0], lo, hi, &got.rows)?;
                }
                Ok(OpBytes {
                    result: got.result_bytes as u64,
                    vo: got.vo_bytes as u64,
                })
            }
            Client::Sql(s) => {
                let ReadOp::Sql { template, a } =
                    gen::read_op(ReadStream::Sql, ctx.seed, ctx.sizes, index)
                else {
                    return Err("sql client drew a non-sql operation".into());
                };
                let out = s.query_sql(&template.text(a)).map_err(|e| e.to_string())?;
                if check {
                    check_sql(ctx.served, template, a, &out)?;
                }
                Ok(OpBytes {
                    result: out.result_bytes as u64,
                    vo: out.vo_bytes as u64,
                })
            }
            Client::Updater(u) => {
                let before = u.received();
                let batch = u.gen.next_batch();
                u.user_bytes += gen::user_bytes(&batch);
                let report = owner()
                    .apply_batch(&mut u.owner_st, batch)
                    .map_err(|e| format!("apply_batch: {e}"))?;
                u.sigs_resigned += report.signatures_recomputed as u64;
                let epoch = ctx
                    .handle
                    .apply_update(0, &report.ops, &report.resigned)
                    .map_err(|e| format!("apply_update: {e}"))?;
                await_epoch(&mut u.sub, epoch)?;
                u.batches += 1;
                let after = u.received();
                Ok(OpBytes {
                    result: after.result - before.result,
                    vo: after.vo - before.vo,
                })
            }
        }
    }
}

/// Polls the subscription until the delta for `epoch` is verified and
/// folded into the mirror.
fn await_epoch(sub: &mut RemoteSubscriber, epoch: u64) -> Result<(), String> {
    while sub.epoch() < epoch {
        sub.poll_delta(Duration::from_secs(2))
            .map_err(|e| format!("poll_delta: {e}"))?
            .ok_or_else(|| format!("no delta for epoch {epoch} within 2 s"))?;
    }
    Ok(())
}

/// Counts taken at the layer boundaries of traced operations.
#[derive(Default)]
pub struct Counts {
    pub ops: u64,
    pub rows: u64,
    pub sig_verifies: u64,
    pub hash_ops: u64,
    pub verify_us: f64,
    pub answer_us: f64,
    pub answer_rows: u64,
    pub batches: u64,
    pub delta_bytes: u64,
    /// Join statements only: what `verify_plan` / `compute_plan_answer`
    /// took, which for a join plan is decode + `verify_pkfk_join` + pair
    /// stitching / `answer_pkfk_join`.
    pub join_verify_us: Vec<f64>,
    pub join_answer_us: Vec<f64>,
    /// `(predicted, measured)` VO bytes and verify milliseconds of each
    /// planned statement.
    pub cost_vo_bytes: Vec<(f64, f64)>,
    pub cost_verify_ms: Vec<(f64, f64)>,
}

/// An encoded `(result, vo)` pair, shared as the server shares it.
type Blob = Arc<(Vec<u8>, Vec<u8>)>;

/// A stand-in for the server's VO cache in replays: the product's own
/// `LruCache` at the server's capacity, keyed like the server keys it, so
/// `cache.lru_get` and `cache.lru_insert` time the real structure.
pub type ReplayCache = LruCache<Vec<u8>, Blob>;

pub fn replay_cache() -> ReplayCache {
    LruCache::new(crate::workload::server_config().cache_capacity)
}

/// The server's share of one round trip, repeated as direct calls and
/// charged to the span `trip`: decode the request frame, then either a
/// cache get (`cached`: the blobs the server sent from its cache) or
/// `answer` (compute and encode, under its own spans) and a cache insert,
/// then encode the response frame; plus the client's own encode of the
/// request and decode of the response, which the round trip also covered.
#[allow(clippy::too_many_arguments)]
fn replay_server_side(
    tr: &mut Tracer,
    cache: &mut ReplayCache,
    op: u64,
    trip: u32,
    request: &Frame,
    key: Vec<u8>,
    cached: Option<(Vec<u8>, Vec<u8>)>,
    answer: impl FnOnce(&mut Tracer) -> Result<Blob, String>,
    response: fn(Vec<u8>, Vec<u8>) -> Frame,
) -> Result<(), String> {
    let framed = |tr: &mut Tracer, frame: &Frame| {
        let bytes = tr.call(op, "protocol.encode_frame", trip, Kind::Replay, || {
            encode_frame(frame)
        });
        tr.call(op, "protocol.decode_frame", trip, Kind::Replay, || {
            decode_frame(&bytes)
        })
        .map(drop)
        .map_err(|e| format!("frame replay: {e}"))
    };
    framed(tr, request)?;
    let blob = match cached {
        Some(blobs) => {
            cache.insert(key.clone(), Arc::new(blobs));
            tr.call(op, "cache.lru_get", trip, Kind::Replay, || {
                cache.get(&key).cloned()
            })
            .expect("entry inserted just above")
        }
        None => {
            let blob = answer(tr)?;
            tr.call(op, "cache.lru_insert", trip, Kind::Replay, || {
                cache.insert(key, Arc::clone(&blob))
            });
            blob
        }
    };
    framed(tr, &response(blob.0.clone(), blob.1.clone()))
}

/// State a traced client carries between operations.
pub struct TraceState {
    pub tracer: Tracer,
    pub counts: Counts,
    pub cache: ReplayCache,
    /// Replay the server's share of each operation as direct calls.
    pub replay: bool,
}

impl Client {
    /// The traced execution of operation `index`; see the module comment.
    pub fn exec_traced(
        &mut self,
        ctx: &Ctx,
        index: u64,
        ts: &mut TraceState,
    ) -> Result<OpBytes, String> {
        let op = index;
        match self {
            Client::Range(r) => {
                let ReadOp::Range { lo, hi } = gen::read_op(r.stream, ctx.seed, ctx.sizes, index)
                else {
                    return Err("range client drew a non-range operation".into());
                };
                let v = &mut r.verifier;
                let query = range_query(lo, hi);
                let served = &ctx.served[0];
                let hits_before = ts.replay.then(|| ctx.handle.stats().cache_hits);
                let tr = &mut ts.tracer;

                let root = tr.begin(op, "client.select", 0, Kind::Call);
                let trip = tr.begin(op, "server.roundtrip_raw", root, Kind::Call);
                let raw = v.client_mut().query_raw(0, &query);
                tr.end(trip);
                let (result, vo_bytes) = raw.map_err(|e| e.to_string())?;
                let bytes = OpBytes {
                    result: result.len() as u64,
                    vo: vo_bytes.len() as u64,
                };
                let decoded = tr.call(op, "wire.decode_answer", root, Kind::Call, || {
                    Ok::<_, wire::WireError>((
                        wire::decode_records(&result)?,
                        wire::decode_vo(&vo_bytes)?,
                    ))
                });
                let (rows, vo) = decoded.map_err(|e| format!("decode: {e}"))?;
                let hash_before = adp_crypto::hash_ops();
                let verify = tr.begin(op, "verifier.verify", root, Kind::Call);
                let report = verify_select(v.certificate(), &query, &rows, &vo);
                tr.end(verify);
                tr.end(root);
                let report = report.map_err(|e| format!("verification failed: {e}"))?;

                let c = &mut ts.counts;
                c.ops += 1;
                c.rows += rows.len() as u64;
                c.sig_verifies += report.signatures_verified as u64;
                c.hash_ops += adp_crypto::hash_ops() - hash_before;
                c.verify_us += tr.dur_ns(verify) as f64 / 1e3;
                if index.is_multiple_of(REFERENCE_EVERY) && r.check_reference {
                    check_range(served, lo, hi, &rows)?;
                }

                if let Some(hits_before) = hits_before {
                    let hit = ctx.handle.stats().cache_hits > hits_before;
                    let request = Frame::QueryRequest {
                        table_id: 0,
                        query: query.clone(),
                    };
                    let st = &*served.signed;
                    replay_server_side(
                        tr,
                        &mut ts.cache,
                        op,
                        trip,
                        &request,
                        wire::encode_query(&query),
                        hit.then_some((result, vo_bytes)),
                        |tr| {
                            let answer =
                                tr.begin(op, "publisher.answer_select", trip, Kind::Replay);
                            let answered = Publisher::new(st).answer_select(&query);
                            tr.end(answer);
                            let (rows, vo) = answered.map_err(|e| format!("answer_select: {e}"))?;
                            c.answer_us += tr.dur_ns(answer) as f64 / 1e3;
                            c.answer_rows += rows.len() as u64;
                            tr.call(op, "relation.bptree_range", answer, Kind::Probe, || {
                                st.sig_index().range_for_each(
                                    Bound::Included((lo, 0)),
                                    Bound::Included((hi, u32::MAX)),
                                    |_, sig| {
                                        std::hint::black_box(sig);
                                    },
                                )
                            });
                            Ok(tr.call(op, "wire.encode_answer", trip, Kind::Replay, || {
                                Arc::new((wire::encode_records(&rows), wire::encode_vo(&vo)))
                            }))
                        },
                        |result, vo| Frame::QueryResponse { result, vo },
                    )?;
                }
                Ok(bytes)
            }
            Client::Sql(s) => {
                let ReadOp::Sql { template, a } =
                    gen::read_op(ReadStream::Sql, ctx.seed, ctx.sizes, index)
                else {
                    return Err("sql client drew a non-sql operation".into());
                };
                let text = template.text(a);
                let is_join = template == SqlTemplate::Join;
                let hits_before = ts.replay.then(|| ctx.handle.stats().cache_hits);
                let tr = &mut ts.tracer;
                let certs = |id: u32| ctx.served.iter().find(|t| t.id == id).map(|t| &t.cert);

                let root = tr.begin(op, "sql.query", 0, Kind::Call);
                let stmt = tr
                    .call(op, "sql.parse", root, Kind::Call, || parse(&text))
                    .map_err(|e| format!("parse: {e}"))?;
                let planned = tr
                    .call(op, "plan.plan", root, Kind::Call, || {
                        Planner::default().plan(&stmt, s.catalog())
                    })
                    .map_err(|e| format!("plan: {e}"))?;
                let plan = &planned.chosen.wire;
                let trip = tr.begin(op, "server.roundtrip_raw", root, Kind::Call);
                let raw = s.client_mut().query_planned_raw(plan);
                tr.end(trip);
                let (result, vo_bytes) = raw.map_err(|e| e.to_string())?;
                let hash_before = adp_crypto::hash_ops();
                let verify = tr.begin(op, "plan.verify_plan", root, Kind::Call);
                let verified = verify_plan(plan, certs, &result, &vo_bytes);
                tr.end(verify);
                let hashes = adp_crypto::hash_ops() - hash_before;
                let verified = verified.map_err(|e| format!("verification failed: {e}"))?;
                let rows_verified = verified.rows_verified;
                let sigs = verified.signatures_verified;
                let output = tr
                    .call(op, "plan.finish", root, Kind::Call, || {
                        planned.chosen.finish(verified.rows)
                    })
                    .map_err(|e| format!("finish: {e}"))?;
                tr.end(root);
                let verify_ns = tr.dur_ns(verify);
                let c = &mut ts.counts;
                c.ops += 1;
                c.rows += rows_verified as u64;
                c.sig_verifies += sigs as u64;
                c.hash_ops += hashes;
                c.verify_us += verify_ns as f64 / 1e3;
                if is_join {
                    c.join_verify_us.push(verify_ns as f64 / 1e3);
                }
                c.cost_vo_bytes
                    .push((planned.chosen_cost.vo_bytes, vo_bytes.len() as f64));
                c.cost_verify_ms
                    .push((planned.chosen_cost.verify_ms, verify_ns as f64 / 1e6));
                let out = SqlOutcome {
                    output,
                    result_bytes: result.len(),
                    vo_bytes: vo_bytes.len(),
                    rows_verified,
                    signatures_verified: sigs,
                    verify_time: Duration::from_nanos(verify_ns),
                    planned,
                };
                if index.is_multiple_of(REFERENCE_EVERY) {
                    check_sql(ctx.served, template, a, &out)?;
                }
                let plan = &out.planned.chosen.wire;

                if let Some(hits_before) = hits_before {
                    let hit = ctx.handle.stats().cache_hits > hits_before;
                    tr.call(op, "wire.decode_answer", verify, Kind::Replay, || {
                        decode_plan_answer(plan, &result, &vo_bytes)
                    })
                    .map_err(|e| format!("decode: {e}"))?;
                    let resolve =
                        |id: u32| ctx.served.iter().find(|t| t.id == id).map(|t| &*t.signed);
                    replay_server_side(
                        tr,
                        &mut ts.cache,
                        op,
                        trip,
                        &Frame::PlannedQuery { plan: plan.clone() },
                        plan.fingerprint(),
                        hit.then_some((result, vo_bytes)),
                        |tr| {
                            let compute = tr.begin(op, "plan.compute_answer", trip, Kind::Replay);
                            let answer = compute_plan_answer(plan, resolve);
                            tr.end(compute);
                            let answer = answer.map_err(|e| format!("compute_plan_answer: {e}"))?;
                            if is_join {
                                c.join_answer_us.push(tr.dur_ns(compute) as f64 / 1e3);
                            }
                            Ok(tr.call(op, "wire.encode_answer", trip, Kind::Replay, || {
                                Arc::new(encode_plan_answer(&answer))
                            }))
                        },
                        |result, vo| Frame::PlannedResponse { result, vo },
                    )?;
                }
                Ok(OpBytes {
                    result: out.result_bytes as u64,
                    vo: out.vo_bytes as u64,
                })
            }
            Client::Updater(u) => {
                let before = u.received();
                let batch = u.gen.next_batch();
                u.user_bytes += gen::user_bytes(&batch);
                let tr = &mut ts.tracer;
                let root = tr.begin(op, "update.batch", 0, Kind::Call);
                let report = tr
                    .call(op, "owner.apply_batch", root, Kind::Call, || {
                        owner().apply_batch(&mut u.owner_st, batch)
                    })
                    .map_err(|e| format!("apply_batch: {e}"))?;
                u.sigs_resigned += report.signatures_recomputed as u64;
                let apply = tr.begin(op, "server.apply_update", root, Kind::Call);
                let epoch = ctx.handle.apply_update(0, &report.ops, &report.resigned);
                tr.end(apply);
                let epoch = epoch.map_err(|e| format!("apply_update: {e}"))?;
                tr.call(op, "client.sub_poll_delta", root, Kind::Call, || {
                    await_epoch(&mut u.sub, epoch)
                })?;
                tr.end(root);
                u.batches += 1;
                let after = u.received();
                let got = OpBytes {
                    result: after.result - before.result,
                    vo: after.vo - before.vo,
                };
                ts.counts.batches += 1;
                ts.counts.delta_bytes += got.result + got.vo;

                if ts.replay {
                    if let Some(mirror) = u.mirror.as_mut() {
                        tr.call(op, "store.apply_replayed", apply, Kind::Replay, || {
                            mirror.apply_replayed(&report.ops, &report.resigned)
                        })
                        .map_err(|e| format!("mirror apply_replayed: {e}"))?;
                    }
                    let domain = *u.owner_st.domain();
                    tr.call(op, "delta.build", apply, Kind::Replay, || {
                        let dirty = dirty_intervals(&u.owner_st, &report.resigned);
                        build_delta_pieces(&u.owner_st, &dirty, domain.key_min(), domain.key_max())
                            .map(|pieces| {
                                pieces
                                    .iter()
                                    .map(|p| {
                                        wire::encode_records(&p.records).len()
                                            + wire::encode_vo(&p.vo).len()
                                    })
                                    .sum::<usize>()
                            })
                    })
                    .map_err(|e| format!("build_delta_pieces: {e}"))?;
                }
                Ok(got)
            }
        }
    }
}

/// Decodes a planned answer the way `verify_plan` does before verifying.
fn decode_plan_answer(plan: &WirePlan, result: &[u8], vo: &[u8]) -> Result<usize, wire::WireError> {
    Ok(match plan {
        WirePlan::Select { .. } => {
            let rows = wire::decode_records(result)?;
            std::hint::black_box(wire::decode_vo(vo)?);
            rows.len()
        }
        WirePlan::PkFkJoin { .. } => {
            let rows = wire::decode_join_result(result)?;
            std::hint::black_box(wire::decode_join_vo(vo)?);
            rows.outer_rows.len()
        }
    })
}

/// The tamper canary, run once at set-up on one honest answer: the answer
/// must verify; with one VO byte flipped it must not; with one result row
/// dropped it must not. A verifier that got faster by checking less fails
/// here and the run aborts. `verify` is a parameter so a test can show
/// that a stubbed-out verifier is caught.
pub fn canary(
    result: &[u8],
    vo: &[u8],
    drop_row: impl Fn(&[u8]) -> Option<Vec<u8>>,
    verify: impl Fn(&[u8], &[u8]) -> bool,
) -> Result<(), String> {
    if !verify(result, vo) {
        return Err("canary: the honest answer does not verify".into());
    }
    let mut flipped = vo.to_vec();
    let at = flipped.len() / 2;
    *flipped
        .get_mut(at)
        .ok_or("canary: the honest answer carries no VO")? ^= 0x01;
    if verify(result, &flipped) {
        return Err(format!(
            "canary: VO byte {at} flipped and the answer still verified"
        ));
    }
    let short = drop_row(result).ok_or("canary: the honest answer has no row to drop")?;
    if verify(&short, vo) {
        return Err("canary: a result row dropped and the answer still verified".into());
    }
    Ok(())
}

/// Runs the canary against the live server with the product's verifier.
pub fn live_canary(client: &mut Client, ctx: &Ctx) -> Result<(), String> {
    let drop_record = |bytes: &[u8]| {
        let mut rows = wire::decode_records(bytes).ok()?;
        (rows.len() > 1).then(|| rows.remove(rows.len() / 2))?;
        Some(wire::encode_records(&rows))
    };
    match client {
        Client::Range(r) => {
            let query = range_query(gen::KEY_GAP, 20 * gen::KEY_GAP);
            let (result, vo) = r
                .verifier
                .client_mut()
                .query_raw(0, &query)
                .map_err(|e| e.to_string())?;
            let cert = r.verifier.certificate().clone();
            canary(&result, &vo, drop_record, |r, p| {
                verify_select_wire(&cert, &query, r, p).is_ok()
            })
        }
        Client::Sql(s) => {
            let planned = s
                .plan(&SqlTemplate::OrderAmounts.text(1))
                .map_err(|e| e.to_string())?;
            let plan = planned.chosen.wire;
            let (result, vo) = s
                .client_mut()
                .query_planned_raw(&plan)
                .map_err(|e| e.to_string())?;
            let certs = |id: u32| ctx.served.iter().find(|t| t.id == id).map(|t| &t.cert);
            canary(&result, &vo, drop_record, |r, p| {
                verify_plan(&plan, certs, r, p).is_ok()
            })
        }
        Client::Updater(_) => Err("the canary runs on a reading client".into()),
    }
}
