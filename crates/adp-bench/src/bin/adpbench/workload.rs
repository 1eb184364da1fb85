//! The four workloads and the constants every run of them shares. Nothing
//! here is derived from the host at run time: rates were calibrated once on
//! the reference host (see README.md) and are committed.

use crate::gen::Sizes;
use adp_server::ServerConfig;

/// Client threads, one connection each (the reference host has two cores).
pub const CLIENTS: usize = 2;
/// Seed of the owner's 1024-bit key (the paper's `M_sign`); a constant, so
/// `--seed` changes inputs and never the key.
pub const OWNER_SEED: u64 = 0xAD9B_E7C4;
pub const OWNER_BITS: usize = 1024;
/// Open-phase operations start at this stream index, so they are the same
/// operations on every run of a seed however many the closed phase drew.
pub const OPEN_BASE: u64 = 1 << 20;
/// Every n-th verified answer is also compared with the generator's own
/// copy of the table.
pub const REFERENCE_EVERY: u64 = 100;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        shards: 1,
        cache_capacity: 1024,
        idle_timeout: None,
        ..ServerConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RangeHot,
    RangeCold,
    SqlMix,
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RangeHot,
        Workload::RangeCold,
        Workload::SqlMix,
        Workload::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RangeHot => "range_hot",
            Workload::RangeCold => "range_cold",
            Workload::SqlMix => "sql_mix",
            Workload::UpdateMix => "update_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-phase arrival rate in operations per second: 35-50 % of the
    /// closed-loop throughput measured on the reference host.
    pub fn open_rate(self) -> u64 {
        match self {
            Workload::RangeHot => 1_000,
            Workload::RangeCold => 250,
            Workload::SqlMix => 500,
            Workload::UpdateMix => 84,
        }
    }

    /// Threads that send the workload's own operation (the second
    /// `update_mix` client is the background reader).
    pub fn op_clients(self) -> usize {
        match self {
            Workload::UpdateMix => 1,
            _ => CLIENTS,
        }
    }
}

/// Phase lengths in nanoseconds for a run that measures for `seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warm_ns: u64,
    pub closed_ns: u64,
    pub open_ns: u64,
    /// Open-phase operations not verified this long after the phase ended
    /// count as failed.
    pub grace_ns: u64,
}

impl Phases {
    pub fn for_run(workload: Workload, seconds: f64) -> Phases {
        // The closed phase is the one to trim when the time cap binds:
        // update_mix needs the longer open phase for its sample count.
        let closed_share = match workload {
            Workload::UpdateMix => 0.25,
            _ => 0.375,
        };
        let ns = |s: f64| (s * 1e9) as u64;
        Phases {
            warm_ns: ns(seconds / 4.0).min(2_000_000_000),
            closed_ns: ns(seconds * closed_share),
            open_ns: ns(seconds * (1.0 - closed_share)),
            grace_ns: 2_000_000_000,
        }
    }
}

/// What a run is scaled to.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    pub trace: bool,
    /// Full set-ups to time (the median is reported; the last one is used).
    pub setups: usize,
}
