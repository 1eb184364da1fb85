//! Role-based access control and query rewriting.
//!
//! The paper's central motivating example (Figure 1): an HR executive may
//! only see records with `Salary < 9000`, so their query
//! `SELECT * FROM Emp WHERE Salary < 10000` is *rewritten* to
//! `... WHERE Salary < 9000` before execution, and the verification scheme
//! must prove completeness **of the rewritten query** without leaking the
//! tuples beyond the policy boundary (which the Devanbu baseline would).
//!
//! Two mechanisms are modelled, matching Sections 1 and 4.4:
//!
//! * **Row policies** — a per-role [`KeyRange`] restriction on the sort
//!   attribute plus arbitrary extra predicates; both are intersected /
//!   appended to the user query by [`AccessPolicy::rewrite`].
//! * **Column policies** — per-role visible column sets; the projection is
//!   intersected so hidden columns are never disclosed (their digests still
//!   participate in `MHT(r.A)`, Section 4.2).
//! * **Visibility columns** — for multipoint Case 2 (Section 4.4), the
//!   owner materializes one boolean column per role; a record hidden from a
//!   role has `vis_<role> = false`, and the publisher can prove a filtered
//!   record was *legitimately* filtered by disclosing only that flag.

use crate::query::{CompareOp, KeyRange, Predicate, Projection, SelectQuery};
use crate::schema::{Column, Schema};
use crate::value::{Value, ValueType};
use std::collections::BTreeMap;
use std::fmt;

/// A user role.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Role(pub String);

impl Role {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>) -> Self {
        Role(name.into())
    }

    /// Name of this role's visibility column.
    fn visibility_column(&self) -> String {
        format!("vis_{}", self.0)
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-role restrictions.
#[derive(Clone, Debug, Default)]
pub struct RolePolicy {
    /// Restriction on the sort attribute (None = unrestricted).
    pub key_range: Option<KeyRange>,
    /// Additional row predicates the role is limited to.
    pub row_filters: Vec<Predicate>,
    /// Columns the role may see (None = all).
    pub visible_columns: Option<Vec<String>>,
}

/// The access policy for one table.
#[derive(Clone, Debug, Default)]
pub struct AccessPolicy {
    roles: BTreeMap<Role, RolePolicy>,
}

impl AccessPolicy {
    /// An empty (allow-all) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a role's policy.
    pub fn set(&mut self, role: Role, policy: RolePolicy) {
        self.roles.insert(role, policy);
    }

    /// Policy lookup; unknown roles get allow-all.
    fn for_role(&self, role: &Role) -> RolePolicy {
        self.roles.get(role).cloned().unwrap_or_default()
    }

    /// All registered roles.
    pub fn roles(&self) -> impl Iterator<Item = &Role> {
        self.roles.keys()
    }

    /// Rewrites `query` to comply with `role`'s policy:
    ///
    /// * the key range is intersected with the role's range,
    /// * the role's row filters are appended,
    /// * the projection is intersected with the visible column set
    ///   (the key column is always retained — the verifier needs it).
    pub fn rewrite(&self, schema: &Schema, role: &Role, query: &SelectQuery) -> SelectQuery {
        let policy = self.for_role(role);
        let mut q = query.clone();
        if let Some(range) = policy.key_range {
            q.range = q.range.intersect(&range);
        }
        q.filters.extend(policy.row_filters.iter().cloned());
        if let Some(visible) = &policy.visible_columns {
            let requested: Vec<String> = match &q.projection {
                Projection::All => schema.columns().iter().map(|c| c.name.clone()).collect(),
                Projection::Columns(cols) => cols.clone(),
            };
            let mut cols: Vec<String> = requested
                .into_iter()
                .filter(|c| visible.contains(c) || c == schema.key_name())
                .collect();
            if !cols.iter().any(|c| c == schema.key_name()) {
                cols.push(schema.key_name().to_string());
            }
            q.projection = Projection::Columns(cols);
        }
        q
    }

    /// Extends a schema with one boolean visibility column per registered
    /// role (Section 4.4 Case 2). Returns the new schema and the list of
    /// added column names in role order.
    pub fn schema_with_visibility_columns(&self, schema: &Schema) -> (Schema, Vec<String>) {
        let cols: Vec<String> = self.roles.keys().map(Role::visibility_column).collect();
        let extra = cols
            .iter()
            .map(|c| Column::new(c.clone(), ValueType::Bool))
            .collect();
        (schema.with_columns(extra), cols)
    }

    /// Computes the visibility flag values for a record under every
    /// registered role, in role order.
    pub fn visibility_flags(&self, schema: &Schema, values: &[Value]) -> Vec<Value> {
        self.roles
            .values()
            .map(|policy| {
                let key_ok = match (&policy.key_range, values.get(schema.key_index())) {
                    (Some(range), Some(Value::Int(k))) => range.contains(*k),
                    _ => true,
                };
                let filters_ok = policy.row_filters.iter().all(|p| p.eval(schema, values));
                Value::Bool(key_ok && filters_ok)
            })
            .collect()
    }

    /// The predicate a publisher adds for role-visibility filtering:
    /// `vis_<role> = true`.
    pub fn visibility_predicate(role: &Role) -> Predicate {
        Predicate::new(role.visibility_column(), CompareOp::Eq, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};

    fn emp_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::new("salary", ValueType::Int),
                Column::new("dept", ValueType::Int),
            ],
            "salary",
        )
    }

    fn figure1_policy() -> AccessPolicy {
        let mut p = AccessPolicy::new();
        // HR manager: everything.
        p.set(Role::new("hr_manager"), RolePolicy::default());
        // HR executive: Salary < 9000 only.
        p.set(
            Role::new("hr_exec"),
            RolePolicy {
                key_range: Some(KeyRange::less_than(9000)),
                ..Default::default()
            },
        );
        p
    }

    #[test]
    fn figure1_rewrite() {
        // The Introduction's scenario: the executive's "Salary < 10000"
        // becomes "Salary < 9000".
        let schema = emp_schema();
        let policy = figure1_policy();
        let q = SelectQuery::range(KeyRange::less_than(10_000));
        let exec_q = policy.rewrite(&schema, &Role::new("hr_exec"), &q);
        assert!(!exec_q.range.contains(9_000));
        assert!(!exec_q.range.contains(9_500));
        assert!(exec_q.range.contains(8_999));
        let mgr_q = policy.rewrite(&schema, &Role::new("hr_manager"), &q);
        assert!(mgr_q.range.contains(9_500));
        assert!(!mgr_q.range.contains(10_000));
    }

    #[test]
    fn unknown_role_unrestricted() {
        let schema = emp_schema();
        let policy = figure1_policy();
        let q = SelectQuery::range(KeyRange::all());
        let rq = policy.rewrite(&schema, &Role::new("stranger"), &q);
        assert_eq!(rq.range, KeyRange::all());
    }

    #[test]
    fn column_policy_intersects_projection() {
        let schema = emp_schema();
        let mut policy = AccessPolicy::new();
        policy.set(
            Role::new("auditor"),
            RolePolicy {
                visible_columns: Some(vec!["salary".into(), "dept".into()]),
                ..Default::default()
            },
        );
        // Request all columns → trimmed to visible ones.
        let q = SelectQuery::range(KeyRange::all());
        let rq = policy.rewrite(&schema, &Role::new("auditor"), &q);
        assert_eq!(
            rq.projection,
            Projection::Columns(vec!["salary".into(), "dept".into()])
        );
        // Request a hidden column → removed, key retained.
        let q = SelectQuery::range(KeyRange::all()).project(&["name"]);
        let rq = policy.rewrite(&schema, &Role::new("auditor"), &q);
        assert_eq!(rq.projection, Projection::Columns(vec!["salary".into()]));
    }

    #[test]
    fn row_filters_appended() {
        let schema = emp_schema();
        let mut policy = AccessPolicy::new();
        policy.set(
            Role::new("dept1"),
            RolePolicy {
                row_filters: vec![Predicate::new("dept", CompareOp::Eq, 1i64)],
                ..Default::default()
            },
        );
        let q = SelectQuery::range(KeyRange::all());
        let rq = policy.rewrite(&schema, &Role::new("dept1"), &q);
        assert_eq!(rq.filters.len(), 1);
        assert!(rq.is_multipoint());
    }

    #[test]
    fn visibility_columns_and_flags() {
        let schema = emp_schema();
        let policy = figure1_policy();
        let (ext_schema, cols) = policy.schema_with_visibility_columns(&schema);
        assert_eq!(
            cols,
            vec!["vis_hr_exec".to_string(), "vis_hr_manager".to_string()]
        );
        assert_eq!(ext_schema.arity(), 6);

        // A $12100 record: hidden from hr_exec, visible to hr_manager.
        let values = vec![
            Value::Int(4),
            Value::from("B"),
            Value::Int(12_100),
            Value::Int(3),
        ];
        let flags = policy.visibility_flags(&schema, &values);
        assert_eq!(flags, vec![Value::Bool(false), Value::Bool(true)]);

        // A $2000 record: visible to both.
        let values = vec![
            Value::Int(5),
            Value::from("A"),
            Value::Int(2_000),
            Value::Int(1),
        ];
        assert_eq!(
            policy.visibility_flags(&schema, &values),
            vec![Value::Bool(true), Value::Bool(true)]
        );
    }

    #[test]
    fn visibility_predicate_shape() {
        let p = AccessPolicy::visibility_predicate(&Role::new("hr_exec"));
        assert_eq!(p.column, "vis_hr_exec");
        assert_eq!(p.op, CompareOp::Eq);
        assert_eq!(p.value, Value::Bool(true));
    }
}
