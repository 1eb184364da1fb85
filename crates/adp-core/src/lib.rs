//! # adp-core
//!
//! The primary contribution of *"Verifying Completeness of Relational
//! Query Results in Data Publishing"* (Pang, Jain, Ramamritham, Tan —
//! SIGMOD 2005): a signature-chain scheme letting users verify that an
//! untrusted publisher's query results are **complete**, **authentic**,
//! and **precise** (no data beyond the access-control-rewritten query is
//! disclosed).
//!
//! ## Roles (Figure 3)
//!
//! * [`owner::Owner`] signs tables: delimiters, per-record `g(r)` digests
//!   (formula (3) / Figure 7), chained signatures (formula (1)), and
//!   maintains them under updates with 3-signature locality (Section 6.3).
//! * [`publisher::Publisher`] answers select-project(-distinct) queries
//!   with verification objects (Figures 4/8); `publisher::malicious`
//!   implements the Section 3.2 cheating strategies for testing.
//! * [`verifier::verify_select`] is the user-side check.
//! * [`join`] extends the scheme to pk-fk equi-joins and band joins
//!   (Section 4.3).
//!
//! ## Scheme internals
//!
//! * [`domain::Domain`] — the public key domain `(L, U)`, delimiters,
//!   query-bound normalization.
//! * [`repr::Radix`] — the Section 5.1 base-`B` digit algebra: canonical /
//!   preferred non-canonical representations and the Lemma's selection.
//! * [`gdigest`] — `g(r)` construction in conceptual and optimized modes.
//! * [`vo`] / [`wire`] — verification objects and their byte-exact codec.
//! * [`costmodel`] — the analytic formulas (4)/(5) with Table 1 constants,
//!   regenerating the paper's Figures 9 and 10.
//!
//! ## Quick start
//!
//! ```
//! use adp_core::prelude::*;
//! use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Owner side: sign the table.
//! let schema = Schema::new(vec![Column::new("salary", ValueType::Int)], "salary");
//! let mut table = Table::new("emp", schema);
//! for s in [2000i64, 3500, 8010, 12100, 25000] {
//!     table.insert(Record::new(vec![Value::Int(s)])).unwrap();
//! }
//! let mut rng = StdRng::seed_from_u64(7);
//! let owner = Owner::new(512, &mut rng);
//! let signed = owner.sign_table(table, Domain::new(0, 100_000), SchemeConfig::default()).unwrap();
//! let cert = owner.certificate(&signed);
//!
//! // Publisher side: answer a query with a proof.
//! let query = SelectQuery::range(KeyRange::less_than(10_000));
//! let (result, vo) = Publisher::new(&signed).answer_select(&query).unwrap();
//!
//! // User side: verify completeness + authenticity.
//! let report = verify_select(&cert, &query, &result, &vo).unwrap();
//! assert_eq!(report.matched, 3);
//! ```

pub mod client;
pub mod costmodel;
pub mod delta;
pub mod domain;
pub mod errors;
pub mod gdigest;
pub mod join;
pub mod owner;
pub mod passes;
pub mod plan;
pub mod publisher;
pub mod repr;
pub mod scheme;
pub mod sql;
pub mod verifier;
pub mod vo;
pub mod wire;

/// The commonly used types, re-exported.
pub mod prelude {
    pub use crate::client::{AggregateKind, AggregateValue, Client, ClientError, SessionStats};
    pub use crate::domain::{Domain, QueryBounds};
    pub use crate::errors::VerifyError;
    pub use crate::owner::{BatchReport, Certificate, Mutation, Owner, SignedTable, UpdateReport};
    pub use crate::passes::{default_passes, Pass, Planned, Planner};
    pub use crate::plan::{Catalog, CatalogTable, PhysicalPlan, Plan, PlanError, WirePlan};
    pub use crate::publisher::Publisher;
    pub use crate::scheme::{Mode, SchemeConfig};
    pub use crate::sql::{parse, SqlError, Statement};
    pub use crate::verifier::{verify_select, verify_select_wire, VerifyReport};
    pub use crate::vo::QueryVO;
}

pub use prelude::*;
