//! The [`FaultPlan`]: one committed 64-bit seed, expanded on demand into
//! per-connection wire schedules and per-operation disk faults. The plan
//! is pure data — the proxy and the faulty filesystem ask it what to do;
//! it never touches a socket or a file itself.

use crate::{substream, Rng64};

/// A single filesystem fault, injected at one write-class operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The write's `fsync` fails with `EIO`; the data may or may not be
    /// durable. The store must treat the operation as failed.
    FailFsync,
    /// Only the first `keep` bytes of the payload reach the file before
    /// the write fails with `EIO` — the classic torn write.
    ShortWrite {
        /// Bytes actually written before the failure.
        keep: u32,
    },
    /// The write fails up front with `ENOSPC` (disk full); nothing is
    /// written.
    Enospc,
    /// The process aborts mid-operation after a partial write — the
    /// in-process equivalent of `kill -9` at the worst instruction.
    /// `keep` bytes of the payload land on disk first.
    CrashHere {
        /// Bytes written before the process dies.
        keep: u32,
    },
}

/// A single byte-stream perturbation, positioned by the count of bytes
/// already forwarded in its direction. Positions are byte-level on
/// purpose: a TCP stream cannot actually lose or duplicate bytes without
/// a connection reset, so every wire fault here manifests to the peer as
/// either latency, garbage (framing/CRC errors), or a mid-frame close —
/// exactly the failures a self-healing client must absorb by tearing the
/// connection down and reconnecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Forward `at` bytes, then silently swallow the next `len` bytes.
    Drop {
        /// Bytes forwarded before the fault.
        at: u64,
        /// Bytes consumed without forwarding.
        len: u32,
    },
    /// Forward `at` bytes, then stall the stream for `ms` milliseconds.
    Delay {
        /// Bytes forwarded before the stall.
        at: u64,
        /// Stall duration in milliseconds (kept small; schedules cap it).
        ms: u32,
    },
    /// Forward `at` bytes, then re-forward up to `len` of the most
    /// recently forwarded bytes (stale duplicate — garbles framing).
    Duplicate {
        /// Bytes forwarded before the fault.
        at: u64,
        /// Length of the replayed suffix.
        len: u32,
    },
    /// Forward `at` bytes, then close the connection (both halves) —
    /// truncating whatever frame is in flight.
    Close {
        /// Bytes forwarded before the close.
        at: u64,
    },
}

impl WireFault {
    /// The stream position the fault triggers at.
    pub fn at(&self) -> u64 {
        match *self {
            WireFault::Drop { at, .. }
            | WireFault::Delay { at, .. }
            | WireFault::Duplicate { at, .. }
            | WireFault::Close { at } => at,
        }
    }
}

/// The wire faults planned for one proxied connection, per direction.
#[derive(Debug, Clone, Default)]
pub struct WireSchedule {
    /// Faults applied to client → server bytes, sorted by position.
    pub client_to_server: Vec<WireFault>,
    /// Faults applied to server → client bytes, sorted by position.
    pub server_to_client: Vec<WireFault>,
    /// When true the proxy accepts the connection and closes it
    /// immediately — a refused / partitioned peer.
    pub refuse: bool,
}

impl WireSchedule {
    /// A schedule that forwards everything untouched.
    pub fn clean() -> WireSchedule {
        WireSchedule::default()
    }
}

/// A seed-deterministic fault schedule. Expansion is pure: the same seed
/// and the same question (connection index, op index) always yield the
/// same answer. Convergence under chaos is guaranteed by construction —
/// faults are only planned for the first `faulty_conns`
/// connections and the explicitly forced disk ops, so a client that keeps
/// reconnecting eventually reaches a clean connection.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Connections with index `>= faulty_conns` are forwarded clean.
    faulty_conns: u64,
    /// Per-mille chance that a faulty-eligible connection is refused
    /// outright.
    refuse_per_mille: u32,
    /// Upper bound (exclusive) on planned fault positions, so schedules
    /// hit realistic offsets for the traffic under test.
    horizon: u64,
    /// Explicit disk faults: (write-op index, fault). This is how the
    /// torture tests pin a fault to an exact operation.
    forced_disk: Vec<(u64, DiskFault)>,
}

impl FaultPlan {
    /// A plan with chaos-profile defaults: the first 6 connections each
    /// draw up to 3 wire faults inside a 1 MiB horizon, occasional
    /// refusals, no disk faults.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faulty_conns: 6,
            refuse_per_mille: 150,
            horizon: 1 << 20,
            forced_disk: Vec::new(),
        }
    }

    /// A plan that injects no faults at all (useful as a baseline).
    pub fn clean() -> FaultPlan {
        FaultPlan {
            seed: 0,
            faulty_conns: 0,
            refuse_per_mille: 0,
            horizon: 1 << 20,
            forced_disk: Vec::new(),
        }
    }

    /// The committed seed this plan expands from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Caps how many connections (by accept order) may draw wire faults.
    pub fn with_faulty_conns(mut self, n: u64) -> FaultPlan {
        self.faulty_conns = n;
        self
    }

    /// Sets the byte-position horizon wire faults are planned within.
    pub fn with_horizon(mut self, bytes: u64) -> FaultPlan {
        self.horizon = bytes.max(16);
        self
    }

    /// Forces `fault` at exactly the `op`-th write-class operation
    /// (0-based, counted across the [`crate::FaultyIo`] instance).
    pub fn force_disk(mut self, op: u64, fault: DiskFault) -> FaultPlan {
        self.forced_disk.push((op, fault));
        self
    }

    /// The disk fault (if any) planned for write-class operation `op`.
    pub fn disk_fault(&self, op: u64) -> Option<DiskFault> {
        self.forced_disk
            .iter()
            .find(|&&(at, _)| at == op)
            .map(|&(_, f)| f)
    }

    /// The wire schedule for the `conn`-th accepted connection (0-based).
    pub fn wire_schedule(&self, conn: u64) -> WireSchedule {
        if conn >= self.faulty_conns {
            return WireSchedule::clean();
        }
        let mut rng = Rng64::new(substream(self.seed, "wire", conn));
        if rng.chance(self.refuse_per_mille) {
            return WireSchedule {
                refuse: true,
                ..WireSchedule::default()
            };
        }
        let mut sched = WireSchedule::clean();
        let n = 1 + rng.below(3);
        for _ in 0..n {
            // Log-uniform positions: most traffic is small frames, so
            // cluster faults near the start of the stream but keep a
            // tail reaching the horizon.
            let span = self.horizon.max(16);
            let exp = rng.below(64 - span.leading_zeros() as u64 + 1);
            let hi = (1u64 << exp).min(span).max(16);
            let at = rng.below(hi);
            let fault = match rng.below(4) {
                0 => WireFault::Drop {
                    at,
                    len: 1 + rng.below(512) as u32,
                },
                1 => WireFault::Delay {
                    at,
                    ms: 1 + rng.below(40) as u32,
                },
                2 => WireFault::Duplicate {
                    at,
                    len: 1 + rng.below(512) as u32,
                },
                _ => WireFault::Close { at },
            };
            let side = if rng.below(2) == 0 {
                &mut sched.client_to_server
            } else {
                &mut sched.server_to_client
            };
            side.push(fault);
        }
        sched.client_to_server.sort_by_key(WireFault::at);
        sched.server_to_client.sort_by_key(WireFault::at);
        // A Close makes everything after it unreachable; drop the rest so
        // the schedule states exactly what will happen.
        for side in [&mut sched.client_to_server, &mut sched.server_to_client] {
            if let Some(pos) = side
                .iter()
                .position(|f| matches!(f, WireFault::Close { .. }))
            {
                side.truncate(pos + 1);
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total planned faults (refusal counts as one).
    fn fault_count(s: &WireSchedule) -> usize {
        s.client_to_server.len() + s.server_to_client.len() + usize::from(s.refuse)
    }

    #[test]
    fn schedules_are_deterministic() {
        let a = FaultPlan::new(123);
        let b = FaultPlan::new(123);
        for conn in 0..16 {
            assert_eq!(
                format!("{:?}", a.wire_schedule(conn)),
                format!("{:?}", b.wire_schedule(conn)),
            );
        }
    }

    #[test]
    fn conns_past_the_cap_are_clean() {
        let plan = FaultPlan::new(9).with_faulty_conns(3);
        for conn in 3..40 {
            assert_eq!(fault_count(&plan.wire_schedule(conn)), 0);
        }
        let total: usize = (0..3).map(|c| fault_count(&plan.wire_schedule(c))).sum();
        assert!(total > 0, "chaos profile planned nothing for seed 9");
    }

    #[test]
    fn forced_disk_faults_hit_their_op() {
        let plan = FaultPlan::clean().force_disk(2, DiskFault::Enospc);
        assert_eq!(plan.disk_fault(0), None);
        assert_eq!(plan.disk_fault(1), None);
        assert_eq!(plan.disk_fault(2), Some(DiskFault::Enospc));
        assert_eq!(plan.disk_fault(3), None);
    }

    #[test]
    fn nothing_planned_after_a_close() {
        for seed in 0..200 {
            let plan = FaultPlan::new(seed);
            for conn in 0..6 {
                let sched = plan.wire_schedule(conn);
                for side in [&sched.client_to_server, &sched.server_to_client] {
                    if let Some(pos) = side
                        .iter()
                        .position(|f| matches!(f, WireFault::Close { .. }))
                    {
                        assert_eq!(pos + 1, side.len());
                    }
                }
            }
        }
    }
}
