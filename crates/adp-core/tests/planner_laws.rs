//! Algebraic-law property suite pinning every planner pass.
//!
//! Each pass in `adp_core::passes` is held to its named relational-algebra
//! law over randomly generated statements, checking **two** properties per
//! case:
//!
//! 1. **Result multiset equality** — executing the rewritten plan returns
//!    exactly the same rows (as a multiset of (column, value) pairs; join
//!    reorientation may permute columns) and the same aggregate as the
//!    plan it rewrote.
//! 2. **Verifiability preservation** — the rewritten plan's answer still
//!    *verifies* against the owner certificates. A rewrite that produced
//!    unverifiable (or unexecutable) plans would be caught here even if
//!    its rows happened to match.
//!
//! The harness itself is mutation-tested: two deliberately broken passes
//! (one dropping a predicate, one widening a scan) must make the law check
//! fail — a law suite that cannot catch a planted bug pins nothing.

mod common;

use adp_core::passes::{
    DistinctElimination, FilterMerge, JoinOrder, Pass, PredicatePushdown, ProjectionPruning,
};
use adp_core::plan::{
    compute_plan_answer, encode_plan_answer, lower, physical, verify_plan, Catalog, CatalogTable,
    Plan, SqlRows,
};
use adp_core::prelude::*;
use adp_relation::{check_referential_integrity, Record, Value};
use common::{dept_table, emp_by_dept};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    emp: SignedTable,
    dept: SignedTable,
    emp_cert: Certificate,
    dept_cert: Certificate,
    catalog: Catalog,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x1A_55);
        let owner = Owner::new(512, &mut rng);
        let emp_raw = emp_by_dept();
        let dept_raw = dept_table();
        check_referential_integrity(&emp_raw, &dept_raw).unwrap();
        let emp = owner
            .sign_table(emp_raw, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap();
        let dept = owner
            .sign_table(dept_raw, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap();
        let emp_cert = owner.certificate(&emp);
        let dept_cert = owner.certificate(&dept);
        let mut catalog = Catalog::new();
        catalog.add(CatalogTable::from_certificate(0, &emp_cert, 6));
        catalog.add(CatalogTable::from_certificate(1, &dept_cert, 5));
        catalog.declare_fk("emp", "dept");
        Fixture {
            emp,
            dept,
            emp_cert,
            dept_cert,
            catalog,
        }
    })
}

/// Executes a logical plan the honest way — publisher answer, wire
/// encode, certificate verification, client-side finish — returning the
/// finished output. Any failure (unexecutable plan, unverifiable answer)
/// comes back as `Err`, which the law harness treats as a violation of
/// verifiability preservation.
fn execute(plan: &Plan) -> Result<SqlRows, String> {
    let fix = fixture();
    let phys = physical(plan, &fix.catalog).map_err(|e| format!("physical: {e}"))?;
    let answer = compute_plan_answer(&phys.wire, |id| match id {
        0 => Some(&fix.emp),
        1 => Some(&fix.dept),
        _ => None,
    })
    .map_err(|e| format!("answer: {e}"))?;
    let (result_bytes, vo_bytes) = encode_plan_answer(&answer);
    let verified = verify_plan(
        &phys.wire,
        |id| match id {
            0 => Some(&fix.emp_cert),
            1 => Some(&fix.dept_cert),
            _ => None,
        },
        &result_bytes,
        &vo_bytes,
    )
    .map_err(|e| format!("verify: {e}"))?;
    phys.finish(verified.rows)
        .map_err(|e| format!("finish: {e}"))
}

/// Canonical multiset form: each row becomes its sorted (column, value)
/// pairs, and the row list itself is sorted — insensitive to both column
/// permutation (join reorientation) and row order.
fn canon(out: &SqlRows) -> (Vec<Vec<(String, String)>>, Option<String>) {
    let mut rows: Vec<Vec<(String, String)>> = out
        .rows
        .iter()
        .map(|r| {
            let mut pairs: Vec<(String, String)> = out
                .columns
                .iter()
                .zip(r.values())
                .map(|(c, v)| (c.clone(), format!("{v:?}")))
                .collect();
            pairs.sort();
            pairs
        })
        .collect();
    rows.sort();
    (rows, out.aggregate.as_ref().map(|a| format!("{a:?}")))
}

/// The law check: applying `pass` to the lowered plan of `sql` must
/// preserve both executed results and verifiability.
fn check_pass(pass: &dyn Pass, sql: &str) -> Result<(), String> {
    let fix = fixture();
    let stmt = parse(sql).map_err(|e| format!("parse {sql:?}: {e}"))?;
    let plan = lower(&stmt, &fix.catalog).map_err(|e| format!("lower {sql:?}: {e}"))?;
    let rewritten = pass.apply(&plan, &fix.catalog);
    let pre = execute(&plan).map_err(|e| format!("{sql:?} pre-{}: {e}", pass.name()))?;
    let post = execute(&rewritten).map_err(|e| format!("{sql:?} post-{}: {e}", pass.name()))?;
    if canon(&pre) != canon(&post) {
        return Err(format!(
            "law '{}' violated on {sql:?}:\n  pre:  {:?}\n  post: {:?}",
            pass.law(),
            canon(&pre),
            canon(&post),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Statement generators
// ---------------------------------------------------------------------------

/// One WHERE conjunct over emp. Kind 3 (non-key) is excluded under
/// DISTINCT, where the lowering requires range-convertible key predicates.
fn emp_condition(kind: u8, a: i64, b: i64) -> String {
    match kind % 4 {
        0 => format!("dept >= {a}"),
        1 => format!("dept <= {b}"),
        2 => format!("dept BETWEEN {a} AND {b}"),
        _ => format!("id >= {}", a % 7),
    }
}

fn single_table_stmt((sel, distinct, conds): (u8, bool, Vec<(u8, i64, i64)>)) -> String {
    let select = match sel % 5 {
        0 => "*",
        1 => "name, dept",
        2 => "id, name",
        3 => "COUNT(*)",
        _ => "SUM(id)",
    };
    // DISTINCT composes with neither aggregates (grammar) nor non-key
    // predicates (lowering); keep generated statements inside the
    // supported language.
    let distinct = distinct && sel % 5 <= 2;
    let conds: Vec<String> = conds
        .iter()
        .map(|&(k, a, b)| emp_condition(if distinct { k % 3 } else { k }, a, b))
        .collect();
    let mut sql = format!(
        "SELECT {}{select} FROM emp",
        if distinct { "DISTINCT " } else { "" }
    );
    if !conds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conds.join(" AND "));
    }
    sql
}

/// A pk-fk join statement; `emp_first` controls the FROM order (the fk
/// side first, or the pk side first — the shape join-order must fix).
fn join_stmt(emp_first: bool, (sel, cond, a, b): (u8, u8, i64, i64)) -> String {
    let select = match sel % 4 {
        0 => "*",
        1 => "emp.name, dept.dname",
        2 => "COUNT(*)",
        _ => "SUM(dept.budget)",
    };
    let from = if emp_first {
        "emp INNER JOIN dept"
    } else {
        "dept INNER JOIN emp"
    };
    let mut sql = format!("SELECT {select} FROM {from} ON emp.dept = dept.dept");
    match cond % 4 {
        0 => {}
        1 => sql.push_str(&format!(" WHERE emp.dept BETWEEN {a} AND {b}")),
        2 => sql.push_str(&format!(" WHERE emp.dept >= {a}")),
        _ => sql.push_str(&format!(" WHERE dept.dept <= {b}")),
    }
    sql
}

fn single_parts() -> impl Strategy<Value = (u8, bool, Vec<(u8, i64, i64)>)> {
    (
        any::<u8>(),
        any::<bool>(),
        proptest::strategy::vec((any::<u8>(), 0i64..=45, 0i64..=60), 0..3),
    )
}

fn join_parts() -> impl Strategy<Value = (u8, u8, i64, i64)> {
    (any::<u8>(), any::<u8>(), 0i64..=45, 0i64..=60)
}

// ---------------------------------------------------------------------------
// The laws, one per pass (names mirror each pass's `law()` string)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// filter-merge: filter merge / selection commutativity.
    #[test]
    fn law_filter_merge_selection_commutativity(parts in single_parts()) {
        let sql = single_table_stmt(parts);
        if let Err(e) = check_pass(&FilterMerge, &sql) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// predicate-pushdown: selection pushdown — over both select chains
    /// and joins (where it transfers the inner range across the fk edge).
    #[test]
    fn law_selection_pushdown_single_table(parts in single_parts()) {
        let sql = single_table_stmt(parts);
        if let Err(e) = check_pass(&PredicatePushdown, &sql) {
            return Err(TestCaseError::fail(e));
        }
    }

    #[test]
    fn law_selection_pushdown_join(parts in join_parts()) {
        let sql = join_stmt(true, parts);
        if let Err(e) = check_pass(&PredicatePushdown, &sql) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// projection-pruning: projection pushdown / idempotence.
    #[test]
    fn law_projection_pushdown_idempotence(parts in single_parts()) {
        let sql = single_table_stmt(parts);
        if let Err(e) = check_pass(&ProjectionPruning, &sql) {
            return Err(TestCaseError::fail(e));
        }
        // Idempotence: a second application is a fixed point.
        let fix = fixture();
        let stmt = parse(&sql).unwrap();
        let plan = lower(&stmt, &fix.catalog).unwrap();
        let once = ProjectionPruning.apply(&plan, &fix.catalog);
        let twice = ProjectionPruning.apply(&once, &fix.catalog);
        // (A failure here prints both plans; the statement is in the seed.)
        prop_assert_eq!(&once, &twice);
    }

    /// distinct-elimination: distinct elimination on key-bearing output.
    #[test]
    fn law_distinct_elimination_on_key_bearing_output(parts in single_parts()) {
        let sql = single_table_stmt(parts);
        if let Err(e) = check_pass(&DistinctElimination, &sql) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// join-order: join commutativity over the declared pk-fk edge. The
    /// two FROM orders of the *same* components must agree after the pass
    /// reorients the fk side outward. (The pk-first naive plan is not
    /// executable — `answer_pkfk_join` requires the fk side outer — so
    /// the reference is the fk-first plan, not the pre-image.)
    #[test]
    fn law_join_commutativity_declared_pkfk(parts in join_parts()) {
        let fix = fixture();
        let reference = {
            let stmt = parse(&join_stmt(true, parts)).unwrap();
            let plan = lower(&stmt, &fix.catalog).unwrap();
            canon(&execute(&plan).map_err(TestCaseError::fail)?)
        };
        for emp_first in [true, false] {
            let sql = join_stmt(emp_first, parts);
            let stmt = parse(&sql).unwrap();
            let plan = lower(&stmt, &fix.catalog).unwrap();
            let reordered = JoinOrder.apply(&plan, &fix.catalog);
            let out = execute(&reordered)
                .map_err(|e| TestCaseError::fail(format!("{sql:?} post-join-order: {e}")))?;
            prop_assert!(
                canon(&out) == reference,
                "join commutativity violated on {sql:?} (emp_first={emp_first})"
            );
        }
    }

    /// The full pipeline (what `Planner::plan` actually ships) preserves
    /// results and verifiability end to end, not just pass-by-pass.
    #[test]
    fn law_full_pipeline_preserves_results(parts in single_parts()) {
        let fix = fixture();
        let sql = single_table_stmt(parts);
        let stmt = parse(&sql).unwrap();
        let plan = lower(&stmt, &fix.catalog).unwrap();
        let mut rewritten = plan.clone();
        for pass in adp_core::passes::default_passes() {
            rewritten = pass.apply(&rewritten, &fix.catalog);
        }
        let pre = execute(&plan).map_err(TestCaseError::fail)?;
        let post = execute(&rewritten)
            .map_err(|e| TestCaseError::fail(format!("{sql:?} post-pipeline: {e}")))?;
        prop_assert!(
            canon(&pre) == canon(&post),
            "pipeline changed results of {sql:?}"
        );
    }
}

/// The law names under test are the ones the passes advertise — EXPLAIN
/// output, docs, and this suite must not drift apart.
#[test]
fn law_names_match_pass_metadata() {
    let expected = [
        ("filter-merge", "filter merge / selection commutativity"),
        ("join-order", "join commutativity (declared pk-fk)"),
        ("predicate-pushdown", "selection pushdown"),
        ("projection-pruning", "projection pushdown / idempotence"),
        (
            "distinct-elimination",
            "distinct elimination on key-bearing output",
        ),
    ];
    let passes = adp_core::passes::default_passes();
    assert_eq!(passes.len(), expected.len());
    for (pass, (name, law)) in passes.iter().zip(expected) {
        assert_eq!(pass.name(), name);
        assert_eq!(pass.law(), law);
    }
}

/// Ground-truth anchor so "pre == post" can never mean "both wrong": one
/// fully planned statement checked against hand-computed rows.
#[test]
fn anchor_known_rows_survive_the_pipeline() {
    let fix = fixture();
    let stmt = parse("SELECT * FROM emp WHERE dept BETWEEN 10 AND 20").unwrap();
    let plan = lower(&stmt, &fix.catalog).unwrap();
    let mut rewritten = plan.clone();
    for pass in adp_core::passes::default_passes() {
        rewritten = pass.apply(&rewritten, &fix.catalog);
    }
    for p in [&plan, &rewritten] {
        let out = execute(p).unwrap();
        let mut names: Vec<String> = {
            let slot = out.columns.iter().position(|c| c == "name").unwrap();
            out.rows
                .iter()
                .map(|r| format!("{:?}", r.values()[slot]))
                .collect()
        };
        names.sort();
        assert_eq!(names.len(), 4);
        assert_eq!(
            names,
            ["Text(\"A\")", "Text(\"C\")", "Text(\"D\")", "Text(\"E\")"]
        );
    }
}

/// The aggregate fold's written semantics, pinned through `finish` on
/// hand-made verified rows: every aggregate over no rows, a SUM beyond
/// `i64` as an error naming its column (not a wrapped total), and an AVG
/// that accumulates wider than `i64`.
#[test]
fn aggregate_fold_semantics() {
    let fix = fixture();
    let plan = lower(&parse("SELECT SUM(id) FROM emp").unwrap(), &fix.catalog).unwrap();
    let phys = physical(&plan, &fix.catalog).unwrap();
    let slot = phys.aggregate.as_ref().unwrap().slot.unwrap();
    let fold = |kind, ids: &[i64]| {
        let mut p = phys.clone();
        p.aggregate.as_mut().unwrap().kind = kind;
        let rows = ids
            .iter()
            .map(|&id| {
                let mut values = vec![Value::Int(0); p.columns.len()];
                values[slot] = Value::Int(id);
                Record::new(values)
            })
            .collect();
        p.finish(rows).map(|out| out.aggregate.unwrap().1)
    };
    for (kind, empty) in [
        (AggregateKind::Count, AggregateValue::Count(0)),
        (AggregateKind::Sum, AggregateValue::Sum(0)),
        (AggregateKind::Min, AggregateValue::Min(None)),
        (AggregateKind::Max, AggregateValue::Max(None)),
        (AggregateKind::Avg, AggregateValue::Avg(None)),
    ] {
        assert_eq!(fold(kind, &[]), Ok(empty), "{kind:?} over no rows");
    }
    let err = fold(AggregateKind::Sum, &[i64::MAX, 1]).unwrap_err();
    assert!(
        matches!(&err, PlanError::Unsupported(m) if m.contains("'id'") && m.contains("overflows")),
        "{err}"
    );
    assert_eq!(
        fold(AggregateKind::Sum, &[i64::MAX, 1, -1]),
        Ok(AggregateValue::Sum(i64::MAX))
    );
    assert_eq!(
        fold(AggregateKind::Avg, &[i64::MAX, i64::MAX]),
        Ok(AggregateValue::Avg(Some(i64::MAX as f64)))
    );
}

// ---------------------------------------------------------------------------
// Mutation checks: the harness must catch planted planner bugs
// ---------------------------------------------------------------------------

/// Deliberately broken: silently drops the first predicate of the first
/// Filter it finds — a classic "lost conjunct" planner bug.
struct DropFirstPredicate;

impl Pass for DropFirstPredicate {
    fn name(&self) -> &'static str {
        "broken-drop-predicate"
    }
    fn law(&self) -> &'static str {
        "deliberately broken (must be caught by the suite)"
    }
    #[allow(clippy::only_used_in_recursion)] // `catalog` is fixed by the trait
    fn apply(&self, plan: &Plan, catalog: &Catalog) -> Plan {
        match plan {
            Plan::Filter { input, predicates } if !predicates.is_empty() => Plan::Filter {
                input: input.clone(),
                predicates: predicates[1..].to_vec(),
            },
            Plan::Filter { input, predicates } => Plan::Filter {
                input: Box::new(self.apply(input, catalog)),
                predicates: predicates.clone(),
            },
            Plan::Project { input, list } => Plan::Project {
                input: Box::new(self.apply(input, catalog)),
                list: list.clone(),
            },
            other => other.clone(),
        }
    }
}

/// Deliberately broken: resets every scan back to the full domain without
/// reintroducing the predicate it had absorbed — an unsound "undo" of
/// predicate pushdown.
struct WidenScans;

impl Pass for WidenScans {
    fn name(&self) -> &'static str {
        "broken-widen-scan"
    }
    fn law(&self) -> &'static str {
        "deliberately broken (must be caught by the suite)"
    }
    #[allow(clippy::only_used_in_recursion)] // `catalog` is fixed by the trait
    fn apply(&self, plan: &Plan, catalog: &Catalog) -> Plan {
        match plan {
            Plan::Scan { table, .. } => Plan::Scan {
                table: table.clone(),
                range: adp_relation::KeyRange::all(),
            },
            Plan::Filter { input, predicates } => Plan::Filter {
                input: Box::new(self.apply(input, catalog)),
                predicates: predicates.clone(),
            },
            Plan::Project { input, list } => Plan::Project {
                input: Box::new(self.apply(input, catalog)),
                list: list.clone(),
            },
            Plan::Distinct { input } => Plan::Distinct {
                input: Box::new(self.apply(input, catalog)),
            },
            other => other.clone(),
        }
    }
}

#[test]
fn mutation_dropped_predicate_is_caught() {
    let verdict = check_pass(&DropFirstPredicate, "SELECT * FROM emp WHERE dept >= 20");
    let err = verdict.expect_err("a dropped predicate must fail the law check");
    assert!(err.contains("violated"), "unexpected failure mode: {err}");
}

#[test]
fn mutation_widened_scan_is_caught() {
    // Run the real pushdown first so the predicate lives in the scan
    // range, then plant the widening bug on top.
    let fix = fixture();
    let stmt = parse("SELECT DISTINCT name, dept FROM emp WHERE dept BETWEEN 20 AND 30").unwrap();
    let plan = lower(&stmt, &fix.catalog).unwrap();
    let pushed = PredicatePushdown.apply(&plan, &fix.catalog);
    let broken = WidenScans.apply(&pushed, &fix.catalog);
    let pre = canon(&execute(&pushed).unwrap());
    let post = canon(&execute(&broken).unwrap());
    assert_ne!(pre, post, "the widened scan must change observable results");
}
