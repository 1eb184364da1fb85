//! The typed logical-plan IR behind the SQL frontend, its lowering to
//! wire-executable *physical* plans, and the cost model hook that lets the
//! optimizer in [`crate::passes`] pick the plan with the **cheapest
//! proof** — VO bytes plus verification time per formulas (4)/(5) in
//! [`crate::costmodel`] — rather than the cheapest scan.
//!
//! A statement lowers ([`lower`]) to a [`Plan`] tree of Scan / Filter /
//! Project / Distinct / Join / Aggregate nodes, is rewritten by passes,
//! and finally lowers again ([`physical`]) to a [`PhysicalPlan`]: the
//! server-side [`WirePlan`] (what the `PlannedQuery` protocol frame
//! carries) plus the client-side residue — predicates the proof does not
//! cover (evaluated locally over *verified* rows, so completeness still
//! transfers) and the aggregate, computed client-side per Section 4.2.

use crate::client::{fold_aggregate, AggregateKind, AggregateValue};
use crate::costmodel::{self, CostParams};
use crate::domain::Domain;
use crate::errors::VerifyError;
use crate::join::{verify_pkfk_join, PkFkJoinResult, PkFkJoinVO};
use crate::owner::{Certificate, SignedTable};
use crate::publisher::{effective_projection, PublishError, Publisher};
use crate::scheme::Mode;
use crate::sql::{AggFunc, ColumnRef, Condition, JoinClause, SelectList, Statement};
use crate::verifier::verify_select;
use crate::vo::QueryVO;
use crate::wire::{self, Reader, WireError, Writer};
use adp_relation::{
    CompareOp, KeyRange, Predicate, Projection, Record, Schema, SelectQuery, Value,
};
use std::ops::Bound;

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// What the planner knows about one published table.
#[derive(Clone, Debug)]
pub struct CatalogTable {
    pub name: String,
    /// The table id used on the wire (`QueryRequest` / `PlannedQuery`).
    pub id: u32,
    pub schema: Schema,
    pub domain: Domain,
    /// Row-count estimate for selectivity (need not be exact).
    pub rows: u64,
    /// The scheme's digit base (drives `m` in formulas (4)/(5)).
    pub base: u32,
    /// Set when this table's sort key is a foreign key into another
    /// table's sort key (referential integrity declared by the owner).
    pub fk_into: Option<String>,
}

impl CatalogTable {
    /// Builds an entry from an owner certificate plus a row estimate.
    pub fn from_certificate(id: u32, cert: &Certificate, rows: u64) -> Self {
        let base = match cert.config.mode {
            Mode::Optimized { base } => base,
            _ => 2,
        };
        CatalogTable {
            name: cert.table_name.clone(),
            id,
            schema: cert.schema.clone(),
            domain: cert.domain,
            rows,
            base,
            fk_into: None,
        }
    }
}

/// The set of tables visible to the planner.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: Vec<CatalogTable>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds (or replaces, by name) a table.
    pub fn add(&mut self, table: CatalogTable) {
        self.tables.retain(|t| t.name != table.name);
        self.tables.push(table);
    }

    /// Declares `from`'s key a foreign key into `to`'s key. Returns false
    /// if `from` is unknown.
    pub fn declare_fk(&mut self, from: &str, to: &str) -> bool {
        match self.tables.iter_mut().find(|t| t.name == from) {
            Some(t) => {
                t.fk_into = Some(to.to_string());
                true
            }
            None => false,
        }
    }

    pub fn table(&self, name: &str) -> Option<&CatalogTable> {
        self.tables.iter().find(|t| t.name == name)
    }

    pub fn table_by_id(&self, id: u32) -> Option<&CatalogTable> {
        self.tables.iter().find(|t| t.id == id)
    }

    pub fn tables(&self) -> &[CatalogTable] {
        &self.tables
    }
}

// ---------------------------------------------------------------------------
// Logical plan
// ---------------------------------------------------------------------------

/// Projection list carried by [`Plan::Project`] (qualified names allowed
/// above a join).
#[derive(Clone, Debug, PartialEq)]
pub enum ProjectList {
    All,
    Columns(Vec<ColumnRef>),
}

/// The logical plan IR. Optimizer passes are `Plan → Plan` rewrites.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Sequential key-range scan of one table.
    Scan { table: String, range: KeyRange },
    /// Conjunctive selection.
    Filter {
        input: Box<Plan>,
        predicates: Vec<Predicate>,
    },
    /// Projection.
    Project { input: Box<Plan>, list: ProjectList },
    /// Duplicate elimination over the projected output.
    Distinct { input: Box<Plan> },
    /// pk-fk equi-join; `outer` is the fk side (Section 4.3).
    Join { outer: Box<Plan>, inner: Box<Plan> },
    /// Client-side aggregate over the verified input.
    Aggregate {
        input: Box<Plan>,
        func: AggFunc,
        column: Option<ColumnRef>,
    },
}

impl Plan {
    /// The single table a (sub)plan scans, if the subtree is join-free.
    pub fn scan_table(&self) -> Option<&str> {
        match self {
            Plan::Scan { table, .. } => Some(table),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::Aggregate { input, .. } => input.scan_table(),
            Plan::Join { .. } => None,
        }
    }

    fn indent(f: &mut std::fmt::Formatter<'_>, depth: usize) -> std::fmt::Result {
        for _ in 0..depth {
            write!(f, "  ")?;
        }
        Ok(())
    }

    fn explain(&self, f: &mut std::fmt::Formatter<'_>, depth: usize) -> std::fmt::Result {
        Plan::indent(f, depth)?;
        match self {
            Plan::Scan { table, range } => writeln!(f, "Scan {table} range={range:?}"),
            Plan::Filter { input, predicates } => {
                let preds: Vec<String> = predicates
                    .iter()
                    .map(|p| format!("{} {:?} {:?}", p.column, p.op, p.value))
                    .collect();
                writeln!(f, "Filter [{}]", preds.join(", "))?;
                input.explain(f, depth + 1)
            }
            Plan::Project { input, list } => {
                match list {
                    ProjectList::All => writeln!(f, "Project *")?,
                    ProjectList::Columns(cols) => {
                        let names: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
                        writeln!(f, "Project [{}]", names.join(", "))?;
                    }
                }
                input.explain(f, depth + 1)
            }
            Plan::Distinct { input } => {
                writeln!(f, "Distinct")?;
                input.explain(f, depth + 1)
            }
            Plan::Join { outer, inner } => {
                writeln!(f, "PkFkJoin")?;
                outer.explain(f, depth + 1)?;
                inner.explain(f, depth + 1)
            }
            Plan::Aggregate {
                input,
                func,
                column,
            } => {
                match column {
                    Some(c) => writeln!(f, "Aggregate {}({c})", func.name())?,
                    None => writeln!(f, "Aggregate {}(*)", func.name())?,
                }
                input.explain(f, depth + 1)
            }
        }
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.explain(f, 0)
    }
}

/// Why lowering or planning failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    UnknownTable(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
    Unsupported(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            PlanError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            PlanError::AmbiguousColumn(c) => write!(f, "ambiguous column '{c}'"),
            PlanError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}
impl std::error::Error for PlanError {}

// ---------------------------------------------------------------------------
// Lowering: Statement → Plan
// ---------------------------------------------------------------------------

/// Resolves which of the (one or two) tables a column reference names.
fn resolve_side<'a>(
    col: &ColumnRef,
    tables: &[&'a CatalogTable],
) -> Result<(&'a CatalogTable, usize), PlanError> {
    if let Some(q) = &col.table {
        match tables.iter().find(|t| &t.name == q) {
            Some(t) => match t.schema.column_index(&col.column) {
                Some(i) => Ok((t, i)),
                None => Err(PlanError::UnknownColumn(col.to_string())),
            },
            None => Err(PlanError::UnknownTable(q.clone())),
        }
    } else {
        let hits: Vec<(&CatalogTable, usize)> = tables
            .iter()
            .filter_map(|t| t.schema.column_index(&col.column).map(|i| (*t, i)))
            .collect();
        match hits.len() {
            0 => Err(PlanError::UnknownColumn(col.column.clone())),
            1 => Ok(hits[0]),
            _ => Err(PlanError::AmbiguousColumn(col.column.clone())),
        }
    }
}

fn condition_predicates(cond: &Condition) -> Vec<Predicate> {
    match cond {
        Condition::Compare { col, op, value } => {
            vec![Predicate::new(col.column.clone(), *op, value.clone())]
        }
        Condition::Between { col, lo, hi } => vec![
            Predicate::new(col.column.clone(), CompareOp::Ge, Value::Int(*lo)),
            Predicate::new(col.column.clone(), CompareOp::Le, Value::Int(*hi)),
        ],
    }
}

/// Lowers a parsed statement to the *naive* logical plan: a full-domain
/// scan with every WHERE conjunct left as a Filter. The optimizer passes
/// are what turn this into something with a small proof. (One exception:
/// DISTINCT queries push key-range predicates into the scan eagerly —
/// with DISTINCT the duplicate-representative choice would otherwise
/// differ between a wide and a narrow scan.)
pub fn lower(stmt: &Statement, catalog: &Catalog) -> Result<Plan, PlanError> {
    let t1 = catalog
        .table(&stmt.from)
        .ok_or_else(|| PlanError::UnknownTable(stmt.from.clone()))?;
    match &stmt.join {
        None => lower_single(stmt, t1),
        Some(j) => lower_join(stmt, t1, j, catalog),
    }
}

fn lower_single(stmt: &Statement, t: &CatalogTable) -> Result<Plan, PlanError> {
    let tables = [t];
    let mut range = KeyRange::all();
    let mut predicates = Vec::new();
    for cond in &stmt.conditions {
        let col = match cond {
            Condition::Compare { col, .. } | Condition::Between { col, .. } => col,
        };
        let (_, idx) = resolve_side(col, &tables)?;
        for p in condition_predicates(cond) {
            let on_key = idx == t.schema.key_index();
            if on_key && stmt.distinct {
                // Eager pushdown under DISTINCT (see doc comment).
                match KeyRange::from_predicate(&p) {
                    Some(kr) => range = range.intersect(&kr),
                    None => {
                        return Err(PlanError::Unsupported(
                            "non-range key predicate under DISTINCT".to_string(),
                        ))
                    }
                }
            } else {
                predicates.push(p);
            }
        }
    }
    let mut plan = Plan::Scan {
        table: t.name.clone(),
        range,
    };
    if !predicates.is_empty() {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicates,
        };
    }
    let (agg, project) = split_select(&stmt.select, &tables)?;
    if let Some(list) = project {
        plan = Plan::Project {
            input: Box::new(plan),
            list,
        };
    }
    if stmt.distinct {
        if agg.is_some() {
            return Err(PlanError::Unsupported(
                "DISTINCT with an aggregate".to_string(),
            ));
        }
        plan = Plan::Distinct {
            input: Box::new(plan),
        };
    }
    if let Some((func, column)) = agg {
        plan = Plan::Aggregate {
            input: Box::new(plan),
            func,
            column,
        };
    }
    Ok(plan)
}

/// Splits a select list into (aggregate, projection-under-it).
#[allow(clippy::type_complexity)]
fn split_select(
    select: &SelectList,
    tables: &[&CatalogTable],
) -> Result<(Option<(AggFunc, Option<ColumnRef>)>, Option<ProjectList>), PlanError> {
    match select {
        SelectList::Star => Ok((None, None)),
        SelectList::Columns(cols) => {
            for c in cols {
                resolve_side(c, tables)?;
            }
            Ok((None, Some(ProjectList::Columns(cols.clone()))))
        }
        SelectList::Aggregate { func, arg } => {
            let project = match arg {
                Some(c) => {
                    resolve_side(c, tables)?;
                    Some(ProjectList::Columns(vec![c.clone()]))
                }
                None => None,
            };
            Ok((Some((*func, arg.clone())), project))
        }
    }
}

fn lower_join(
    stmt: &Statement,
    t1: &CatalogTable,
    j: &JoinClause,
    catalog: &Catalog,
) -> Result<Plan, PlanError> {
    let t2 = catalog
        .table(&j.table)
        .ok_or_else(|| PlanError::UnknownTable(j.table.clone()))?;
    if t1.name == t2.name {
        return Err(PlanError::Unsupported("self-join".to_string()));
    }
    let tables = [t1, t2];
    // The join must equate the two sort keys (the only equi-join the
    // signature chains can prove, Section 4.3).
    for side in [&j.left, &j.right] {
        let (t, idx) = resolve_side(side, &tables)?;
        if idx != t.schema.key_index() {
            return Err(PlanError::Unsupported(format!(
                "join column '{side}' is not the sort key of '{}'",
                t.name
            )));
        }
    }
    let (lt, _) = resolve_side(&j.left, &tables)?;
    let (rt, _) = resolve_side(&j.right, &tables)?;
    if lt.name == rt.name {
        return Err(PlanError::Unsupported(
            "join condition references one table twice".to_string(),
        ));
    }
    if stmt.distinct {
        return Err(PlanError::Unsupported("DISTINCT over a join".to_string()));
    }
    // Distribute WHERE conjuncts to their side; only key predicates are
    // supported over a join.
    let mut preds1 = Vec::new();
    let mut preds2 = Vec::new();
    for cond in &stmt.conditions {
        let col = match cond {
            Condition::Compare { col, .. } | Condition::Between { col, .. } => col,
        };
        let (t, idx) = resolve_side(col, &tables)?;
        if idx != t.schema.key_index() {
            return Err(PlanError::Unsupported(format!(
                "non-key predicate on '{col}' over a join"
            )));
        }
        let bucket = if t.name == t1.name {
            &mut preds1
        } else {
            &mut preds2
        };
        bucket.extend(condition_predicates(cond));
    }
    let side = |t: &CatalogTable, preds: Vec<Predicate>| {
        let scan = Plan::Scan {
            table: t.name.clone(),
            range: KeyRange::all(),
        };
        if preds.is_empty() {
            scan
        } else {
            Plan::Filter {
                input: Box::new(scan),
                predicates: preds,
            }
        }
    };
    // The statement's FROM table starts as the outer (fk) side; the
    // join-order pass reorients by declared integrity and cost.
    let mut plan = Plan::Join {
        outer: Box::new(side(t1, preds1)),
        inner: Box::new(side(t2, preds2)),
    };
    let (agg, project) = split_select(&stmt.select, &tables)?;
    if let Some(list) = project {
        plan = Plan::Project {
            input: Box::new(plan),
            list,
        };
    }
    if let Some((func, column)) = agg {
        plan = Plan::Aggregate {
            input: Box::new(plan),
            func,
            column,
        };
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Physical plan + wire encoding
// ---------------------------------------------------------------------------

/// The server-executable part of a plan — exactly what the `PlannedQuery`
/// protocol frame carries, and (canonically encoded) the VO-cache
/// fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WirePlan {
    /// A select-project(-distinct) against one table.
    Select { table_id: u32, query: SelectQuery },
    /// A pk-fk equi-join: `fk_table`'s sort key into `pk_table`'s.
    PkFkJoin {
        fk_table: u32,
        pk_table: u32,
        fk_range: KeyRange,
        fk_projection: Projection,
        pk_projection: Projection,
    },
}

impl WirePlan {
    /// Canonical byte encoding; doubles as the VO-cache fingerprint.
    pub fn fingerprint(&self) -> Vec<u8> {
        encode_wire_plan(self)
    }
}

fn write_bound(w: &mut Writer, b: &Bound<i64>) {
    match b {
        Bound::Unbounded => w.u8(0),
        Bound::Included(v) => {
            w.u8(1);
            w.i64(*v);
        }
        Bound::Excluded(v) => {
            w.u8(2);
            w.i64(*v);
        }
    }
}

fn read_bound(r: &mut Reader) -> Result<Bound<i64>, WireError> {
    match r.u8()? {
        0 => Ok(Bound::Unbounded),
        1 => Ok(Bound::Included(r.i64()?)),
        2 => Ok(Bound::Excluded(r.i64()?)),
        _ => Err(WireError("bad bound tag")),
    }
}

fn write_projection(w: &mut Writer, p: &Projection) {
    match p {
        Projection::All => w.u8(0),
        Projection::Columns(cols) => {
            w.u8(1);
            w.u32(cols.len() as u32);
            for c in cols {
                w.bytes(c.as_bytes());
            }
        }
    }
}

fn read_projection(r: &mut Reader) -> Result<Projection, WireError> {
    match r.u8()? {
        0 => Ok(Projection::All),
        1 => {
            let n = r.u32()? as usize;
            let mut cols = r.vec_for(n, wire::MIN_BYTES_LEN);
            for _ in 0..n {
                let raw = r.bytes()?;
                let s =
                    String::from_utf8(raw.to_vec()).map_err(|_| WireError("non-utf8 column"))?;
                cols.push(s);
            }
            Ok(Projection::Columns(cols))
        }
        _ => Err(WireError("bad projection tag")),
    }
}

/// Encodes a wire plan (tag `1` = Select, `2` = PkFkJoin).
pub fn encode_wire_plan(plan: &WirePlan) -> Vec<u8> {
    let mut w = Writer::new();
    match plan {
        WirePlan::Select { table_id, query } => {
            w.u8(1);
            w.u32(*table_id);
            w.bytes(&wire::encode_query(query));
        }
        WirePlan::PkFkJoin {
            fk_table,
            pk_table,
            fk_range,
            fk_projection,
            pk_projection,
        } => {
            w.u8(2);
            w.u32(*fk_table);
            w.u32(*pk_table);
            write_bound(&mut w, &fk_range.lo);
            write_bound(&mut w, &fk_range.hi);
            write_projection(&mut w, fk_projection);
            write_projection(&mut w, pk_projection);
        }
    }
    w.into_bytes()
}

/// Decodes a wire plan; rejects trailing bytes.
pub fn decode_wire_plan(data: &[u8]) -> Result<WirePlan, WireError> {
    let mut r = Reader::new(data);
    let plan = match r.u8()? {
        1 => {
            let table_id = r.u32()?;
            let query = wire::decode_query(r.bytes()?)?;
            WirePlan::Select { table_id, query }
        }
        2 => {
            let fk_table = r.u32()?;
            let pk_table = r.u32()?;
            let lo = read_bound(&mut r)?;
            let hi = read_bound(&mut r)?;
            let fk_projection = read_projection(&mut r)?;
            let pk_projection = read_projection(&mut r)?;
            WirePlan::PkFkJoin {
                fk_table,
                pk_table,
                fk_range: KeyRange { lo, hi },
                fk_projection,
                pk_projection,
            }
        }
        _ => return Err(WireError("bad plan tag")),
    };
    if !r.done() {
        return Err(WireError("trailing bytes after plan"));
    }
    Ok(plan)
}

/// A client-side predicate the proof does not cover; evaluated locally
/// over verified rows.
#[derive(Clone, Debug, PartialEq)]
pub enum ResidualPred {
    Cmp {
        slot: usize,
        op: CompareOp,
        value: Value,
    },
    Range {
        slot: usize,
        range: KeyRange,
    },
}

impl ResidualPred {
    fn keeps(&self, row: &Record) -> bool {
        match self {
            ResidualPred::Cmp { slot, op, value } => row
                .values()
                .get(*slot)
                .and_then(|v| op.eval(v, value))
                .unwrap_or(false),
            ResidualPred::Range { slot, range } => row
                .values()
                .get(*slot)
                .and_then(|v| v.as_int())
                .map(|k| range.contains(k))
                .unwrap_or(false),
        }
    }
}

/// The aggregate finishing step (client-side).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanAggregate {
    pub kind: AggregateKind,
    /// Output slot of the aggregated column (None for COUNT(*)).
    pub slot: Option<usize>,
    /// Display label, e.g. `SUM(salary)`.
    pub label: String,
}

/// A fully lowered plan: the wire part plus the client-side residue.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    pub wire: WirePlan,
    pub residual: Vec<ResidualPred>,
    pub aggregate: Option<PlanAggregate>,
    /// Display names of the output slots (joins qualify as `table.col`).
    pub columns: Vec<String>,
}

fn agg_kind(func: AggFunc) -> AggregateKind {
    match func {
        AggFunc::Count => AggregateKind::Count,
        AggFunc::Sum => AggregateKind::Sum,
        AggFunc::Min => AggregateKind::Min,
        AggFunc::Max => AggregateKind::Max,
        AggFunc::Avg => AggregateKind::Avg,
    }
}

/// Flattened single-table chain.
struct SelectChain {
    table: String,
    range: KeyRange,
    predicates: Vec<Predicate>,
    project: Option<ProjectList>,
    distinct: bool,
}

fn flatten_select(plan: &Plan) -> Result<SelectChain, PlanError> {
    match plan {
        Plan::Scan { table, range } => Ok(SelectChain {
            table: table.clone(),
            range: *range,
            predicates: Vec::new(),
            project: None,
            distinct: false,
        }),
        Plan::Filter { input, predicates } => {
            let mut c = flatten_select(input)?;
            if c.project.is_some() || c.distinct {
                return Err(PlanError::Unsupported(
                    "filter above project/distinct".to_string(),
                ));
            }
            c.predicates.extend(predicates.iter().cloned());
            Ok(c)
        }
        Plan::Project { input, list } => {
            let mut c = flatten_select(input)?;
            if c.project.is_some() {
                return Err(PlanError::Unsupported("nested projections".to_string()));
            }
            c.project = Some(list.clone());
            Ok(c)
        }
        Plan::Distinct { input } => {
            let mut c = flatten_select(input)?;
            c.distinct = true;
            Ok(c)
        }
        Plan::Join { .. } | Plan::Aggregate { .. } => Err(PlanError::Unsupported(
            "join/aggregate below a select chain".to_string(),
        )),
    }
}

/// Lowers a (possibly rewritten) logical plan to its physical form.
pub fn physical(plan: &Plan, catalog: &Catalog) -> Result<PhysicalPlan, PlanError> {
    // Peel a top-level aggregate.
    let (agg, body) = match plan {
        Plan::Aggregate {
            input,
            func,
            column,
        } => (Some((*func, column.clone())), input.as_ref()),
        other => (None, other),
    };
    let mut phys = if find_join(body).is_some() {
        physical_join(body, catalog)?
    } else {
        physical_select(body, catalog)?
    };
    if let Some((func, column)) = agg {
        let kind = agg_kind(func);
        let (slot, label) = match &column {
            None => (None, format!("{}(*)", func.name())),
            Some(c) => {
                let pos = phys
                    .columns
                    .iter()
                    .position(|name| column_matches(name, c))
                    .ok_or_else(|| PlanError::UnknownColumn(c.to_string()))?;
                (Some(pos), format!("{}({c})", func.name()))
            }
        };
        phys.aggregate = Some(PlanAggregate { kind, slot, label });
    }
    Ok(phys)
}

/// Does output column `name` (possibly `table.col`) match the reference?
fn column_matches(name: &str, c: &ColumnRef) -> bool {
    match name.split_once('.') {
        Some((t, col)) => col == c.column && c.table.as_deref().map(|q| q == t).unwrap_or(true),
        // Single-table outputs use plain names; any qualifier was already
        // validated during lowering.
        None => name == c.column,
    }
}

fn find_join(plan: &Plan) -> Option<&Plan> {
    match plan {
        Plan::Join { .. } => Some(plan),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. } => find_join(input),
        Plan::Scan { .. } => None,
    }
}

fn physical_select(plan: &Plan, catalog: &Catalog) -> Result<PhysicalPlan, PlanError> {
    let chain = flatten_select(plan)?;
    let t = catalog
        .table(&chain.table)
        .ok_or_else(|| PlanError::UnknownTable(chain.table.clone()))?;
    let key_idx = t.schema.key_index();
    // Split predicates: non-key ones ride in the query (the multipoint
    // proofs cover them); key predicates the server was not asked to
    // range-restrict become client-side residue.
    let mut filters = Vec::new();
    let mut residual_raw = Vec::new();
    for p in chain.predicates {
        let idx = t
            .schema
            .column_index(&p.column)
            .ok_or_else(|| PlanError::UnknownColumn(p.column.clone()))?;
        if idx == key_idx {
            residual_raw.push(p);
        } else {
            filters.push(p);
        }
    }
    let projection = match chain.project {
        None => Projection::All,
        Some(ProjectList::All) => Projection::All,
        Some(ProjectList::Columns(cols)) => {
            let mut names = Vec::new();
            for c in cols {
                if let Some(q) = &c.table {
                    if q != &t.name {
                        return Err(PlanError::UnknownTable(q.clone()));
                    }
                }
                if t.schema.column_index(&c.column).is_none() {
                    return Err(PlanError::UnknownColumn(c.to_string()));
                }
                names.push(c.column);
            }
            Projection::Columns(names)
        }
    };
    let query = SelectQuery {
        range: chain.range,
        filters,
        projection,
        distinct: chain.distinct,
    };
    let eff = effective_projection(&t.schema, &query.projection, &query.filters)
        .ok_or_else(|| PlanError::UnknownColumn("<projection>".to_string()))?;
    let columns: Vec<String> = eff
        .iter()
        .map(|&i| t.schema.columns()[i].name.clone())
        .collect();
    let key_slot = eff
        .iter()
        .position(|&i| i == key_idx)
        .expect("effective projection includes the key");
    let residual = residual_raw
        .into_iter()
        .map(|p| ResidualPred::Cmp {
            slot: key_slot,
            op: p.op,
            value: p.value,
        })
        .collect();
    Ok(PhysicalPlan {
        wire: WirePlan::Select {
            table_id: t.id,
            query,
        },
        residual,
        aggregate: None,
        columns,
    })
}

fn side_projection(
    cols: &[ColumnRef],
    t: &CatalogTable,
    other: &CatalogTable,
) -> Result<Projection, PlanError> {
    let mut names = Vec::new();
    for c in cols {
        let belongs = match &c.table {
            Some(q) => q == &t.name,
            None => {
                let here = t.schema.column_index(&c.column).is_some();
                let there = other.schema.column_index(&c.column).is_some();
                if here && there {
                    return Err(PlanError::AmbiguousColumn(c.column.clone()));
                }
                here
            }
        };
        if belongs {
            if t.schema.column_index(&c.column).is_none() {
                return Err(PlanError::UnknownColumn(c.to_string()));
            }
            if !names.contains(&c.column) {
                names.push(c.column.clone());
            }
        }
    }
    Ok(Projection::Columns(names))
}

fn physical_join(plan: &Plan, catalog: &Catalog) -> Result<PhysicalPlan, PlanError> {
    // Peel Project above the Join.
    let (project, join) = match plan {
        Plan::Project { input, list } => match input.as_ref() {
            Plan::Join { outer, inner } => (Some(list.clone()), (outer, inner)),
            _ => return Err(PlanError::Unsupported("project above non-join".to_string())),
        },
        Plan::Join { outer, inner } => (None, (outer, inner)),
        _ => return Err(PlanError::Unsupported("distinct over a join".to_string())),
    };
    let (outer, inner) = join;
    let o_chain = flatten_select(outer)?;
    let i_chain = flatten_select(inner)?;
    if o_chain.project.is_some()
        || i_chain.project.is_some()
        || o_chain.distinct
        || i_chain.distinct
    {
        return Err(PlanError::Unsupported(
            "project/distinct inside a join side".to_string(),
        ));
    }
    let ot = catalog
        .table(&o_chain.table)
        .ok_or_else(|| PlanError::UnknownTable(o_chain.table.clone()))?;
    let it = catalog
        .table(&i_chain.table)
        .ok_or_else(|| PlanError::UnknownTable(i_chain.table.clone()))?;
    let (fk_projection, pk_projection) = match &project {
        None | Some(ProjectList::All) => (Projection::All, Projection::All),
        Some(ProjectList::Columns(cols)) => (
            side_projection(cols, ot, it)?,
            side_projection(cols, it, ot)?,
        ),
    };
    // Residuals: key predicates not folded into the fk range, plus the
    // inner side's scan range if a pass has not transferred it.
    let o_eff = effective_projection(&ot.schema, &fk_projection, &[])
        .ok_or_else(|| PlanError::UnknownColumn("<projection>".to_string()))?;
    let i_eff = effective_projection(&it.schema, &pk_projection, &[])
        .ok_or_else(|| PlanError::UnknownColumn("<projection>".to_string()))?;
    let fk_slot = o_eff
        .iter()
        .position(|&i| i == ot.schema.key_index())
        .expect("key is forced into the effective projection");
    let pk_slot = o_eff.len()
        + i_eff
            .iter()
            .position(|&i| i == it.schema.key_index())
            .expect("key is forced into the effective projection");
    let mut residual = Vec::new();
    for (chain, t, slot) in [(&o_chain, ot, fk_slot), (&i_chain, it, pk_slot)] {
        for p in &chain.predicates {
            let idx = t
                .schema
                .column_index(&p.column)
                .ok_or_else(|| PlanError::UnknownColumn(p.column.clone()))?;
            if idx != t.schema.key_index() {
                return Err(PlanError::Unsupported(format!(
                    "non-key predicate on '{}' over a join",
                    p.column
                )));
            }
            residual.push(ResidualPred::Cmp {
                slot,
                op: p.op,
                value: p.value.clone(),
            });
        }
    }
    if i_chain.range != KeyRange::all() {
        residual.push(ResidualPred::Range {
            slot: pk_slot,
            range: i_chain.range,
        });
    }
    let mut columns: Vec<String> = o_eff
        .iter()
        .map(|&i| format!("{}.{}", ot.name, ot.schema.columns()[i].name))
        .collect();
    columns.extend(
        i_eff
            .iter()
            .map(|&i| format!("{}.{}", it.name, it.schema.columns()[i].name)),
    );
    Ok(PhysicalPlan {
        wire: WirePlan::PkFkJoin {
            fk_table: ot.id,
            pk_table: it.id,
            fk_range: o_chain.range,
            fk_projection,
            pk_projection,
        },
        residual,
        aggregate: None,
        columns,
    })
}

// ---------------------------------------------------------------------------
// Cost model hook
// ---------------------------------------------------------------------------

/// Exchange rate between the two proof-cost axes: one millisecond of
/// user verification time is charged like this many VO bytes.
pub const VERIFY_MS_BYTE_WEIGHT: f64 = 1024.0;

/// Estimated proof cost of a plan (formulas (4)/(5)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanCost {
    pub vo_bytes: f64,
    pub verify_ms: f64,
}

impl PlanCost {
    pub fn score(&self) -> f64 {
        self.vo_bytes + self.verify_ms * VERIFY_MS_BYTE_WEIGHT
    }
}

fn range_fraction(range: &KeyRange, domain: &Domain) -> f64 {
    match domain.normalize(range) {
        None => 0.0,
        Some(b) => {
            let width = (b.beta - b.alpha).unsigned_abs().saturating_add(1);
            (width as f64 / domain.width().max(1) as f64).min(1.0)
        }
    }
}

fn select_estimate(t: &CatalogTable, range: &KeyRange, params: &CostParams) -> (u64, PlanCost) {
    let m = costmodel::paper_m(t.base, t.domain.width()).max(1);
    let q = ((t.rows as f64 * range_fraction(range, &t.domain)).ceil() as u64).max(1);
    let cost = PlanCost {
        vo_bytes: costmodel::muser_bytes(params, m, q),
        verify_ms: costmodel::cuser_ms(params, t.base, m, q),
    };
    (q, cost)
}

/// Estimates the proof cost of a wire plan against the catalog.
pub fn estimate_cost(plan: &WirePlan, catalog: &Catalog, params: &CostParams) -> PlanCost {
    match plan {
        WirePlan::Select { table_id, query } => match catalog.table_by_id(*table_id) {
            Some(t) => select_estimate(t, &query.range, params).1,
            None => PlanCost {
                vo_bytes: f64::INFINITY,
                verify_ms: f64::INFINITY,
            },
        },
        WirePlan::PkFkJoin {
            fk_table,
            pk_table,
            fk_range,
            ..
        } => {
            let (Some(ft), Some(pt)) = (
                catalog.table_by_id(*fk_table),
                catalog.table_by_id(*pk_table),
            ) else {
                return PlanCost {
                    vo_bytes: f64::INFINITY,
                    verify_ms: f64::INFINITY,
                };
            };
            let (q_outer, outer_cost) = select_estimate(ft, fk_range, params);
            // Each distinct fk adds one inner entry proof: a chain pair,
            // an attribute proof, and a share of the signature proof —
            // approximated as a one-record select proof on S.
            let m_s = costmodel::paper_m(pt.base, pt.domain.width()).max(1);
            let inner_bytes = costmodel::muser_bytes(params, m_s, 1);
            let inner_ms = costmodel::cuser_ms(params, pt.base, m_s, 1);
            PlanCost {
                vo_bytes: outer_cost.vo_bytes + q_outer as f64 * inner_bytes,
                verify_ms: outer_cost.verify_ms + q_outer as f64 * inner_ms,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution + verification over the wire shapes
// ---------------------------------------------------------------------------

/// An un-encoded planned answer (the server's tamper hook operates here).
#[derive(Clone, Debug)]
pub enum PlanAnswer {
    Select {
        rows: Vec<Record>,
        vo: QueryVO,
    },
    Join {
        result: PkFkJoinResult,
        vo: PkFkJoinVO,
    },
}

/// Why a planned answer could not be produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanAnswerError {
    UnknownTable(u32),
    Publish(PublishError),
}

impl std::fmt::Display for PlanAnswerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanAnswerError::UnknownTable(id) => write!(f, "unknown table {id}"),
            PlanAnswerError::Publish(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for PlanAnswerError {}

/// Computes the publisher-side answer to a wire plan. `resolve` maps a
/// wire table id to its signed table.
pub fn compute_plan_answer<'a, F>(
    plan: &WirePlan,
    resolve: F,
) -> Result<PlanAnswer, PlanAnswerError>
where
    F: Fn(u32) -> Option<&'a SignedTable>,
{
    match plan {
        WirePlan::Select { table_id, query } => {
            let st = resolve(*table_id).ok_or(PlanAnswerError::UnknownTable(*table_id))?;
            let (rows, vo) = Publisher::new(st)
                .answer_select(query)
                .map_err(PlanAnswerError::Publish)?;
            Ok(PlanAnswer::Select { rows, vo })
        }
        WirePlan::PkFkJoin {
            fk_table,
            pk_table,
            fk_range,
            fk_projection,
            pk_projection,
        } => {
            let fst = resolve(*fk_table).ok_or(PlanAnswerError::UnknownTable(*fk_table))?;
            let pst = resolve(*pk_table).ok_or(PlanAnswerError::UnknownTable(*pk_table))?;
            let (result, vo) = crate::join::answer_pkfk_join(
                &Publisher::new(fst),
                &Publisher::new(pst),
                *fk_range,
                fk_projection,
                pk_projection,
            )
            .map_err(PlanAnswerError::Publish)?;
            Ok(PlanAnswer::Join { result, vo })
        }
    }
}

/// Encodes a planned answer as the `(result, vo)` byte pair the
/// `PlannedResponse` frame carries.
pub fn encode_plan_answer(answer: &PlanAnswer) -> (Vec<u8>, Vec<u8>) {
    match answer {
        PlanAnswer::Select { rows, vo } => (wire::encode_records(rows), wire::encode_vo(vo)),
        PlanAnswer::Join { result, vo } => {
            (wire::encode_join_result(result), wire::encode_join_vo(vo))
        }
    }
}

/// A verified planned answer: the flat output rows (join pairs are
/// stitched as `outer ++ inner`) plus verification accounting.
#[derive(Clone, Debug)]
pub struct PlanVerified {
    pub rows: Vec<Record>,
    pub rows_verified: usize,
    pub signatures_verified: usize,
}

/// Verifies a planned answer end to end from wire bytes. `cert_of` maps a
/// wire table id to the owner certificate the client trusts.
pub fn verify_plan<'a, F>(
    plan: &WirePlan,
    cert_of: F,
    result_bytes: &[u8],
    vo_bytes: &[u8],
) -> Result<PlanVerified, VerifyError>
where
    F: Fn(u32) -> Option<&'a Certificate>,
{
    let unknown = VerifyError::Unsupported {
        detail: "no certificate for table in plan",
    };
    match plan {
        WirePlan::Select { table_id, query } => {
            let cert = cert_of(*table_id).ok_or(unknown)?;
            let rows =
                wire::decode_records(result_bytes).map_err(|_| VerifyError::VoShapeMismatch {
                    detail: "result bytes malformed",
                })?;
            let vo = wire::decode_vo(vo_bytes).map_err(|_| VerifyError::VoShapeMismatch {
                detail: "VO bytes malformed",
            })?;
            let report = verify_select(cert, query, &rows, &vo)?;
            Ok(PlanVerified {
                rows,
                rows_verified: report.matched,
                signatures_verified: report.signatures_verified,
            })
        }
        WirePlan::PkFkJoin {
            fk_table,
            pk_table,
            fk_range,
            fk_projection,
            pk_projection,
        } => {
            let fk_cert = cert_of(*fk_table).ok_or(unknown.clone())?;
            let pk_cert = cert_of(*pk_table).ok_or(unknown)?;
            let result = wire::decode_join_result(result_bytes).map_err(|_| {
                VerifyError::VoShapeMismatch {
                    detail: "join result bytes malformed",
                }
            })?;
            let vo = wire::decode_join_vo(vo_bytes).map_err(|_| VerifyError::VoShapeMismatch {
                detail: "join VO bytes malformed",
            })?;
            let report = verify_pkfk_join(
                fk_cert,
                pk_cert,
                *fk_range,
                fk_projection,
                pk_projection,
                &result,
                &vo,
            )?;
            let rows = stitch_join_pairs(fk_cert, pk_cert, fk_projection, pk_projection, &result)?;
            Ok(PlanVerified {
                rows,
                rows_verified: report.outer.matched + report.inner_verified,
                signatures_verified: report.outer.signatures_verified,
            })
        }
    }
}

/// Builds the flat `outer ++ inner` pair rows from a verified join result.
fn stitch_join_pairs(
    fk_cert: &Certificate,
    pk_cert: &Certificate,
    fk_projection: &Projection,
    pk_projection: &Projection,
    result: &PkFkJoinResult,
) -> Result<Vec<Record>, VerifyError> {
    let shape_err = VerifyError::VoShapeMismatch {
        detail: "join result rows do not match projections",
    };
    let o_eff = effective_projection(&fk_cert.schema, fk_projection, &[])
        .ok_or_else(|| shape_err.clone())?;
    let i_eff = effective_projection(&pk_cert.schema, pk_projection, &[])
        .ok_or_else(|| shape_err.clone())?;
    let fk_slot = o_eff
        .iter()
        .position(|&i| i == fk_cert.schema.key_index())
        .ok_or_else(|| shape_err.clone())?;
    let pk_slot = i_eff
        .iter()
        .position(|&i| i == pk_cert.schema.key_index())
        .ok_or_else(|| shape_err.clone())?;
    let mut pairs = Vec::with_capacity(result.outer_rows.len());
    for outer in &result.outer_rows {
        let fk = outer
            .values()
            .get(fk_slot)
            .and_then(|v| v.as_int())
            .ok_or_else(|| shape_err.clone())?;
        let inner = result
            .inner_rows
            .iter()
            .find(|r| {
                r.values()
                    .get(pk_slot)
                    .and_then(|v| v.as_int())
                    .map(|k| k == fk)
                    .unwrap_or(false)
            })
            .ok_or_else(|| shape_err.clone())?;
        let mut vals = outer.values().to_vec();
        vals.extend(inner.values().iter().cloned());
        pairs.push(Record::new(vals));
    }
    Ok(pairs)
}

/// The finished, client-visible output of a plan.
#[derive(Clone, Debug)]
pub struct SqlRows {
    pub columns: Vec<String>,
    pub rows: Vec<Record>,
    pub aggregate: Option<(String, AggregateValue)>,
}

impl PhysicalPlan {
    /// Applies the client-side residue (residual predicates, aggregate)
    /// to verified rows.
    pub fn finish(&self, rows: Vec<Record>) -> Result<SqlRows, PlanError> {
        let rows: Vec<Record> = rows
            .into_iter()
            .filter(|r| self.residual.iter().all(|p| p.keeps(r)))
            .collect();
        let aggregate = match &self.aggregate {
            None => None,
            Some(a) => {
                let value = match (a.kind, a.slot) {
                    (AggregateKind::Count, _) => AggregateValue::Count(rows.len() as u64),
                    (_, None) => {
                        return Err(PlanError::Unsupported(
                            "aggregate without a column".to_string(),
                        ))
                    }
                    (kind, Some(slot)) => {
                        let mut vals = Vec::with_capacity(rows.len());
                        for r in &rows {
                            match r.values().get(slot) {
                                Some(Value::Int(v)) => vals.push(*v),
                                _ => {
                                    return Err(PlanError::Unsupported(format!(
                                        "aggregate over non-integer column '{}'",
                                        a.label
                                    )))
                                }
                            }
                        }
                        let column = self.columns.get(slot).unwrap_or(&a.label);
                        fold_aggregate(kind, column, &vals)
                            .map_err(|e| PlanError::Unsupported(e.to_string()))?
                    }
                };
                Some((a.label.clone(), value))
            }
        };
        Ok(SqlRows {
            columns: self.columns.clone(),
            rows,
            aggregate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
    use adp_relation::{Column, ValueType};

    fn catalog() -> Catalog {
        let schema = Schema::new(
            vec![
                Column::new("salary", ValueType::Int),
                Column::new("dept", ValueType::Text),
            ],
            "salary",
        );
        let mut c = Catalog::new();
        c.add(CatalogTable {
            name: "emp".to_string(),
            id: 3,
            schema,
            domain: Domain::new(0, 100_000),
            rows: 1000,
            base: 2,
            fk_into: None,
        });
        c
    }

    #[test]
    fn lower_produces_naive_full_scan() {
        let stmt =
            parse("SELECT * FROM emp WHERE salary BETWEEN 10 AND 99 AND dept = 'a'").unwrap();
        let plan = lower(&stmt, &catalog()).unwrap();
        let Plan::Filter { input, predicates } = &plan else {
            panic!("want filter, got {plan}")
        };
        assert_eq!(predicates.len(), 3);
        assert_eq!(
            **input,
            Plan::Scan {
                table: "emp".to_string(),
                range: KeyRange::all()
            }
        );
    }

    #[test]
    fn physical_splits_residual_from_filters() {
        let stmt = parse("SELECT * FROM emp WHERE salary >= 10 AND dept = 'a'").unwrap();
        let cat = catalog();
        let phys = physical(&lower(&stmt, &cat).unwrap(), &cat).unwrap();
        let WirePlan::Select { table_id, query } = &phys.wire else {
            panic!()
        };
        assert_eq!(*table_id, 3);
        assert_eq!(query.range, KeyRange::all());
        assert_eq!(query.filters.len(), 1);
        assert_eq!(phys.residual.len(), 1);
    }

    #[test]
    fn wire_plan_roundtrip() {
        let plans = [
            WirePlan::Select {
                table_id: 7,
                query: SelectQuery::range(KeyRange::closed(2000, 9000)),
            },
            WirePlan::PkFkJoin {
                fk_table: 1,
                pk_table: 2,
                fk_range: KeyRange::at_least(5),
                fk_projection: Projection::All,
                pk_projection: Projection::Columns(vec!["price".to_string()]),
            },
        ];
        for p in &plans {
            let bytes = encode_wire_plan(p);
            assert_eq!(&decode_wire_plan(&bytes).unwrap(), p);
        }
        assert!(decode_wire_plan(&[9]).is_err());
        let mut trailing = encode_wire_plan(&plans[0]);
        trailing.push(0);
        assert!(decode_wire_plan(&trailing).is_err());
    }

    #[test]
    fn narrower_range_estimates_cheaper() {
        let cat = catalog();
        let narrow = WirePlan::Select {
            table_id: 3,
            query: SelectQuery::range(KeyRange::closed(10, 99)),
        };
        let wide = WirePlan::Select {
            table_id: 3,
            query: SelectQuery::range(KeyRange::all()),
        };
        let params = CostParams::default();
        let cn = estimate_cost(&narrow, &cat, &params);
        let cw = estimate_cost(&wide, &cat, &params);
        assert!(
            cn.score() < cw.score(),
            "narrow {:?} should beat wide {:?}",
            cn,
            cw
        );
    }
}
