//! The load generator: a closed phase (each client sends its next
//! operation when the previous one is verified) and an open phase (arrival
//! `i` is due at `start + i/rate`, whatever the system is doing).
//!
//! Open-phase latency runs **from the due time** to "verified", so a stall
//! is charged to every operation queued behind it, not only to the one
//! that stalled. The schedule is integer nanoseconds throughout.

use crate::stats::Sample;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Time as the generator sees it; a test substitutes a fake.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns at or after `t_ns`.
    fn wait_until(&self, t_ns: u64);
}

/// Wall clock, nanoseconds since `origin`.
#[derive(Clone, Copy)]
pub struct WallClock {
    pub origin: Instant,
}

/// The scheduler's wake-up is late by tens of microseconds, which is a
/// tenth of a hot operation: sleep to just short of the due time and spin
/// the rest.
const SPIN_NS: u64 = 150_000;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            if t_ns - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(t_ns - now - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Due time of arrival `i` at `rate` per second, relative to phase start.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (i as u128 * 1_000_000_000 / rate as u128) as u64
}

/// What one client thread brings back from a phase.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Open phase: how long after `max(due, previous done)` each operation
    /// was actually sent — the generator's own lateness, in nanoseconds.
    pub late_ns: Vec<u64>,
    pub first_error: Option<String>,
}

impl ClientLog {
    fn record<E: ToString>(
        &mut self,
        outcome: Result<(u64, u64), E>,
        done_ns: u64,
        latency_ns: u64,
    ) {
        self.attempted += 1;
        match outcome {
            Ok((result_bytes, vo_bytes)) => self.samples.push(Sample {
                done_ns,
                latency_ns,
                result_bytes,
                vo_bytes,
            }),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    pub fn merge(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late_ns.extend(other.late_ns);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// One client's share of a closed phase: draw the next index from the
/// shared counter, run it, repeat until `end_ns` (or `stop` is raised).
/// `exec` returns the bytes the verified answer carried.
pub fn closed_client<C: Clock, E: ToString>(
    clock: &C,
    start_ns: u64,
    end_ns: u64,
    next: &AtomicU64,
    stop: Option<&AtomicBool>,
    mut exec: impl FnMut(u64) -> Result<(u64, u64), E>,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        let sent = clock.now_ns();
        if sent >= end_ns || stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            return log;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        let outcome = exec(index);
        let done = clock.now_ns();
        log.record(outcome, done.saturating_sub(start_ns), done - sent);
    }
}

/// One client's stripe of an open phase: arrivals `first, first+step, ...`
/// below `total`, each due at `start_ns + due_ns(i, rate)`. An arrival that
/// cannot even be sent before `deadline_ns` (phase end plus grace) is not
/// sent, and it and every later one count as failed.
#[allow(clippy::too_many_arguments)]
pub fn open_client<C: Clock, E: ToString>(
    clock: &C,
    start_ns: u64,
    deadline_ns: u64,
    rate: u64,
    first: u64,
    step: u64,
    total: u64,
    mut exec: impl FnMut(u64) -> Result<(u64, u64), E>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut free_at = start_ns;
    let mut i = first;
    while i < total {
        let due = start_ns + due_ns(i, rate);
        clock.wait_until(due);
        let sent = clock.now_ns();
        if sent >= deadline_ns {
            let unsent = (total - i).div_ceil(step);
            log.attempted += unsent;
            log.failed += unsent;
            log.first_error
                .get_or_insert_with(|| format!("{unsent} arrivals missed the grace window"));
            return log;
        }
        log.late_ns.push(sent - due.max(free_at));
        let outcome = exec(i);
        let done = clock.now_ns();
        free_at = done;
        if done > deadline_ns && outcome.is_ok() {
            log.record(
                Err::<(u64, u64), _>("verified after the grace window"),
                0,
                0,
            );
        } else {
            log.record(outcome, done - start_ns, done - due);
        }
        i += step;
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn schedule_is_exact_integer_nanoseconds() {
        assert_eq!(due_ns(0, 1_000), 0);
        assert_eq!(due_ns(1, 1_000), 1_000_000);
        assert_eq!(due_ns(3, 300), 10_000_000);
        // Far past where `tick * (i as u32)` would have wrapped.
        assert_eq!(due_ns(1 << 33, 1_000), (1u64 << 33) * 1_000_000);
    }

    #[test]
    fn a_stall_is_charged_to_the_operations_queued_behind_it() {
        // 1000/s on one stripe: due at 0, 1, ... 5 ms. Service takes
        // 0.1 ms, except the second operation, which stalls for 3 ms.
        let clock = FakeClock(Cell::new(0));
        let service = |i: u64| if i == 1 { 3_000_000 } else { 100_000 };
        let log = open_client(&clock, 0, u64::MAX, 1_000, 0, 1, 6, |i| {
            clock.0.set(clock.0.get() + service(i));
            Ok::<_, String>((0, 0))
        });
        let lat: Vec<u64> = log.samples.iter().map(|s| s.latency_ns).collect();
        // op1: due 1 ms, done 4 ms. op2: due 2 ms, cannot start before
        // 4 ms, done 4.1 ms -> 2.1 ms, of which 2 ms is the stall's. op3:
        // due 3 ms, done 4.2 ms. op4: due 4 ms, done 4.3 ms. op5 is back
        // on schedule.
        assert_eq!(
            lat,
            [100_000, 3_000_000, 2_100_000, 1_200_000, 300_000, 100_000]
        );
        // The generator itself was never late: every send happened the
        // moment the client was free or the arrival was due.
        assert_eq!(log.late_ns, [0; 6]);
        assert_eq!((log.attempted, log.failed), (6, 0));
    }

    #[test]
    fn arrivals_past_the_grace_window_fail() {
        let clock = FakeClock(Cell::new(0));
        // Two stripes; this is stripe 1 of arrivals 0..10 at 1000/s, and
        // each operation takes 4 ms, so the stripe falls behind at once.
        let log = open_client(&clock, 0, 9_000_000, 1_000, 1, 2, 10, |_| {
            clock.0.set(clock.0.get() + 4_000_000);
            Ok::<_, String>((1, 2))
        });
        // Arrivals 1 and 3 finish by 9 ms; 5 is sent at 9 ms = deadline.
        assert_eq!(log.samples.len(), 2);
        assert_eq!((log.attempted, log.failed), (5, 3));
        assert!(log.first_error.is_some());
    }

    #[test]
    fn closed_clients_share_one_index_stream() {
        let clock = FakeClock(Cell::new(0));
        let next = AtomicU64::new(10);
        let mut seen = Vec::new();
        let log = closed_client(&clock, 0, 1_000, &next, None, |i| {
            seen.push(i);
            clock.0.set(clock.0.get() + 300);
            if i == 11 {
                Err("boom".to_string())
            } else {
                Ok((5, 7))
            }
        });
        assert_eq!(seen, [10, 11, 12, 13]);
        assert_eq!((log.attempted, log.failed), (4, 1));
        assert_eq!(log.samples.len(), 3);
        assert_eq!(log.samples[0].latency_ns, 300);
        assert_eq!(log.first_error.as_deref(), Some("boom"));
    }
}
