//! Typed retry policy for the self-healing clients: capped exponential
//! backoff with deterministic jitter, and `RetryPolicy::run`, the one
//! retry loop every client role goes through.
//!
//! The policy is deliberately *typed into* each client rather than being a
//! blanket wrapper: only operations that are safe to repeat get a retry
//! loop. Idempotent reads ([`RemoteClient`](crate::RemoteClient) pings,
//! stats, queries, batches) retry transparently; handshakes that create
//! server-side state (`Subscribe`, `FollowLog`) are re-driven by their
//! owning client ([`RemoteSubscriber`](crate::RemoteSubscriber),
//! [`ResilientFollower`](crate::ResilientFollower)), which knows how to
//! re-establish that state from its own cursor; and nothing ever retries
//! on a *fatal* error — a server-reported error, or an answer that failed
//! verification, means retrying would re-ask a peer that already gave its
//! (wrong) answer. [`RemoteError::is_retryable`](crate::RemoteError)
//! draws that line.
//!
//! Jitter is deterministic (seeded [`Rng64`]) so chaos tests replay
//! byte-identically from a committed seed, yet still decorrelates real
//! fleets: give each client a distinct seed.

use adp_faults::{substream, Rng64};
use std::time::Duration;

/// Retry budget and backoff shape for one client.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries allowed per logical operation (0 = fail fast; the first
    /// attempt is not a retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base: Duration,
    /// Ceiling the exponential never exceeds.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
            seed: 0x5EED_F00D,
        }
    }
}

impl RetryPolicy {
    /// No retries: every transport error is final (the pre-robustness
    /// behavior, and the default for the plain constructors).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry number `attempt` (0-based): an exponential
    /// `base * 2^attempt` capped at `max_backoff`, then jittered into
    /// `[d/2, d)` so synchronized clients desynchronize. Deterministic in
    /// `(seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_backoff);
        let nanos = capped.as_nanos().min(u64::MAX as u128) as u64;
        if nanos < 2 {
            return capped;
        }
        let mut rng = Rng64::new(substream(self.seed, "backoff", u64::from(attempt)));
        Duration::from_nanos(nanos / 2 + rng.below(nanos / 2))
    }

    /// Runs `op(0)`, then up to `max_retries` retries `op(1..)`, each after
    /// [`RetryPolicy::backoff`], while the error is `retryable`; returns
    /// the last result. A retry (`attempt > 0`) is where a role reconnects.
    pub(crate) fn run<T, E>(
        &self,
        retryable: fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Err(e) if attempt < self.max_retries && retryable(&e) => {
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
                done => return done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            seed: 1,
        };
        // Jitter keeps each delay in [cap/2, cap); the cap itself grows
        // exponentially until max_backoff.
        for attempt in 0..10 {
            let d = p.backoff(attempt);
            let cap = Duration::from_millis(10)
                .saturating_mul(1 << attempt.min(20))
                .min(Duration::from_millis(100));
            assert!(d >= cap / 2 && d < cap, "attempt {attempt}: {d:?}");
        }
        // High attempts stay at the ceiling's band.
        assert!(p.backoff(30) >= Duration::from_millis(50));
    }

    #[test]
    fn run_retries_retryable_failures_within_the_budget() {
        let p = RetryPolicy {
            max_retries: 3,
            base: Duration::ZERO,
            ..RetryPolicy::default()
        };
        for k in 0..6 {
            let mut calls = 0;
            let out = p.run(
                |retryable: &bool| *retryable,
                |attempt| {
                    assert_eq!(attempt, calls);
                    calls += 1;
                    if calls <= k {
                        Err(true)
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(calls, k.min(3) + 1, "{k} retryable failures");
            assert_eq!(out.is_ok(), k <= 3);
        }
        let mut calls = 0;
        let out: Result<(), bool> = p.run(
            |retryable| *retryable,
            |_| {
                calls += 1;
                Err(false)
            },
        );
        assert_eq!((calls, out), (1, Err(false)), "a fatal error is final");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(3), p.backoff(3));
        let q = RetryPolicy {
            seed: 99,
            ..RetryPolicy::default()
        };
        assert_ne!(p.backoff(3), q.backoff(3));
    }
}
