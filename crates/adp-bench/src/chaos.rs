//! Chaos drills: verified queries through a deterministic fault proxy.
//!
//! The `adpbench` benchmark measures throughput on a healthy link; this
//! module measures **soundness under a hostile one**. A
//! seeded [`FaultPlan`] drives a [`FaultProxy`] that drops, delays,
//! duplicates, and cuts bytes between a verifying client and the
//! server, and the drill counts what the client did about it: answers
//! it verified, damaged answers it *refused* (the paper's security
//! property — a mangled VO must fail verification, never be accepted),
//! and queries it gave up on. Same seed, same chaos, byte for byte.

use crate::WorkloadSpec;
use adp_core::prelude::*;
pub use adp_faults::{DiskFault, FaultPlan, FaultProxy, ProxyStats, WireFault};
use adp_relation::{KeyRange, SelectQuery};
use adp_server::{RemoteError, RemoteVerifier, RetryPolicy, Server, ServerConfig};
use std::io;
use std::time::Duration;

/// Knobs for one drill.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Rows in the served table.
    pub rows: usize,
    /// Verified range queries to attempt through the proxy.
    pub queries: usize,
    /// Seeds the [`FaultPlan`], the query ranges, and the retry jitter.
    pub seed: u64,
    /// Connections the plan mangles before the link heals.
    pub faulty_conns: u64,
    /// Per-direction fault horizon in bytes (see
    /// [`FaultPlan::with_horizon`]).
    pub horizon: u64,
    /// Reconnect attempts per query before giving up on it.
    pub attempts_per_query: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            rows: 200,
            queries: 30,
            seed: 0xC4A05,
            faulty_conns: 4,
            horizon: 2048,
            attempts_per_query: 6,
        }
    }
}

/// What one drill proved.
#[derive(Clone, Copy, Debug)]
pub struct ChaosReport {
    /// Queries whose answer verified against the certificate.
    pub verified: u64,
    /// Answers that arrived but failed verification and were refused —
    /// damage the transport layer let through and the VO caught.
    pub refused: u64,
    /// Queries abandoned after [`ChaosConfig::attempts_per_query`]
    /// attempts (the link never yielded a verifiable answer in budget).
    pub gave_up: u64,
    /// Transport-level failures healed by reconnecting (connection cut,
    /// frame mangled beyond parsing, refused connect).
    pub transport_failures: u64,
    /// Connections the proxy accepted / faults it injected / bytes it
    /// forwarded.
    pub proxy_conns: u64,
    pub proxy_faults: u64,
    pub proxy_forwarded: u64,
}

/// Runs one drill: workload → server → proxy → verifying client.
///
/// Every count in the report is deterministic in `cfg.seed` except
/// timing-dependent fault placement (a delayed byte may land before or
/// after a read deadline), so callers should assert *invariants* —
/// `verified + gave_up == queries`, `refused` never silently accepted —
/// not exact counts.
pub fn run(cfg: &ChaosConfig) -> io::Result<ChaosReport> {
    let mut spec = WorkloadSpec::new(cfg.rows);
    spec.seed = cfg.seed;
    let (st, cert) = spec.signed(crate::bench_owner_small(), SchemeConfig::default());
    let (key_min, key_max) = (st.domain().key_min(), st.domain().key_max());
    let mut server = Server::new(ServerConfig::default());
    server.add_table(0, st);
    let handle = server.serve("127.0.0.1:0")?;

    let plan = FaultPlan::new(cfg.seed)
        .with_faulty_conns(cfg.faulty_conns)
        .with_horizon(cfg.horizon);
    let proxy = FaultProxy::start(handle.addr(), plan)?;

    let retry = RetryPolicy {
        max_retries: 2,
        base: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        seed: cfg.seed,
    };
    let connect = |attempt: u32| -> Result<RemoteVerifier, RemoteError> {
        let mut user = RemoteVerifier::connect(proxy.addr(), cert.clone(), 0)
            .map_err(|e| RemoteError::Proto(adp_server::protocol::ProtoError::Io(e)))?;
        user.client_mut()
            .set_timeout(Some(Duration::from_millis(750)))
            .map_err(|e| RemoteError::Proto(adp_server::protocol::ProtoError::Io(e)))?;
        user.client_mut().set_retry_policy(RetryPolicy {
            seed: cfg.seed ^ u64::from(attempt),
            ..retry
        });
        Ok(user)
    };

    let mut report = ChaosReport {
        verified: 0,
        refused: 0,
        gave_up: 0,
        transport_failures: 0,
        proxy_conns: 0,
        proxy_faults: 0,
        proxy_forwarded: 0,
    };
    let mut user: Option<RemoteVerifier> = None;
    let mut rng = adp_faults::Rng64::new(adp_faults::substream(cfg.seed, "queries", 0));
    let span = (key_max - key_min).max(1) as u64 + 1;
    for _ in 0..cfg.queries {
        let a = key_min + (rng.next_u64() % span) as i64;
        let b = key_min + (rng.next_u64() % span) as i64;
        let query = SelectQuery::range(KeyRange::closed(a.min(b), a.max(b)));
        let mut attempt = 0;
        loop {
            if attempt >= cfg.attempts_per_query {
                report.gave_up += 1;
                break;
            }
            let conn = match user.as_mut() {
                Some(conn) => conn,
                None => match connect(attempt) {
                    Ok(conn) => user.insert(conn),
                    Err(_) => {
                        report.transport_failures += 1;
                        attempt += 1;
                        continue;
                    }
                },
            };
            match conn.select(&query) {
                Ok(_) => {
                    report.verified += 1;
                    break;
                }
                // A damaged answer the VO refused: the security property
                // holding. The stream may be desynced — reconnect.
                Err(RemoteError::Verify(_)) => {
                    report.refused += 1;
                    user = None;
                    attempt += 1;
                }
                // Transport damage (cut, mangled, refused): heal and
                // re-ask. Never accepted, so never a soundness event.
                Err(_) => {
                    report.transport_failures += 1;
                    user = None;
                    attempt += 1;
                }
            }
        }
    }

    report.proxy_conns = proxy.stats().conns();
    report.proxy_faults = proxy.stats().faults();
    report.proxy_forwarded = proxy.stats().forwarded();
    proxy.stop();
    handle.shutdown();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean plan is a pass-through: every query verifies first try.
    #[test]
    fn clean_plan_verifies_everything() {
        let report = run(&ChaosConfig {
            rows: 50,
            queries: 8,
            seed: 0x0,
            faulty_conns: 0,
            horizon: 0,
            attempts_per_query: 3,
        })
        .unwrap();
        assert_eq!(report.verified, 8);
        assert_eq!(report.refused, 0);
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.transport_failures, 0);
        assert!(report.proxy_forwarded > 0);
    }

    /// Under chaos every query is accounted for — verified or given up,
    /// nothing silently lost — and the proxy demonstrably interfered.
    #[test]
    fn chaotic_plan_accounts_for_every_query() {
        let cfg = ChaosConfig {
            queries: 20,
            seed: 0x8A05_00FF,
            ..ChaosConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.verified + report.gave_up, cfg.queries as u64);
        assert!(
            report.proxy_faults > 0,
            "the plan must actually inject faults: {report:?}"
        );
        assert!(
            report.verified > 0,
            "self-healing must get some answers through: {report:?}"
        );
    }
}
