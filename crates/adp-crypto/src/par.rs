//! Chunk-claiming fan-out of independent per-index work over the cores.
//!
//! The caller and up to [`workers`]` − 1` scoped helper threads claim
//! fixed-size chunks of an index range from one shared cursor until none
//! are left; the results come back in chunk order. Nothing is assigned up
//! front, so the caller never sits waiting on a share of the work that
//! belongs to a helper the OS has not scheduled yet: it keeps claiming, and
//! once the cursor is exhausted it waits at most for the one chunk each
//! started helper is finishing. A helper that starts only after that finds
//! nothing left and exits, so joining it costs the caller a thread switch,
//! not a chunk. Under saturation the caller simply does most chunks itself.
//! A helper gives its core up between chunks, so a thread woken meanwhile
//! (another client, a server worker) waits for a chunk, not a time slice.
//! Splitting a range into fixed halves instead was measured and did worse:
//! see `docs/PERFORMANCE.md`, "The read budget of a large answer".
//!
//! A range shorter than its [`Split::at`] is run by the caller alone as one
//! chunk, with no thread spawned. A helper that cannot be spawned is simply
//! not there: the caller does its chunks, so resource exhaustion costs
//! speed, never a panic. Each helper credits the hash operations it
//! performed to the calling thread's [`thread_hash_ops`], so per-thread
//! accounting is the same whether the work was split or not (the
//! process-wide counter counted them as they happened).
//!
//! [`thread_hash_ops`]: crate::thread_hash_ops

use crate::hasher::{credit_thread_ops, thread_hash_ops};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// How [`try_map_chunks`] cuts an index range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Split {
    /// Indices per claimed chunk.
    pub chunk: usize,
    /// The shortest range worth a thread spawn; a shorter one is a single
    /// chunk run by the caller.
    pub at: usize,
}

impl Split {
    /// The verifier's cut (per-entry work, link windows and the aggregate
    /// check's FDH product): 32-entry chunks from 256 entries up.
    ///
    /// Measured on a 2-vCPU Xeon with a 1024-bit key: a verified entry
    /// costs ≈ 6.4 µs, an FDH-and-multiply ≈ 1.1 µs, a link window
    /// ≈ 0.3 µs, and spawning and joining a scoped helper 27 µs at the
    /// median, 52 µs at p99. At 256 entries the per-entry pass is ≥ 1.6 ms,
    /// so the spawn is a few per cent of it even when the helper starts
    /// late (the two cheaper passes share the cut: at 256 the link pass
    /// about breaks even). Below it the answers of the interactive
    /// workloads — ≤ 100 rows on `range_hot` and `range_cold`'s median
    /// class, ≤ ≈ 200 entries on `sql_mix` — run exactly as without a
    /// helper. A 32-entry chunk (≈ 200 µs) is small enough that the last
    /// one claimed leaves the other core idle only briefly, and large
    /// enough that the cursor is touched a few dozen times per answer.
    pub const VERIFY: Split = Split { chunk: 32, at: 256 };
}

/// The number of workers a split may use: the cores available to this
/// process (at least 1), read once.
pub fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `work` over `0..len` cut by `split`, on the calling thread and up to
/// `workers − 1` helpers, and returns the chunks' results in chunk order —
/// or the error of the first chunk, in chunk order, that failed.
///
/// Once a chunk fails no further chunk is claimed; every chunk before it was
/// already claimed (the cursor only moves forward) and is finished, so the
/// error returned is the one a single worker would have returned.
pub fn try_map_chunks<T, E, F>(
    len: usize,
    split: Split,
    workers: usize,
    work: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<T, E> + Sync,
{
    if len < split.at || workers < 2 {
        return work(0..len).map(|t| vec![t]);
    }
    let chunk = split.chunk.max(1);
    let chunks = len.div_ceil(chunk);
    // `Relaxed` throughout: the cursor and the flag publish no data — the
    // chunks' results reach the caller through `join`, which synchronizes.
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let claim = |helper: bool| {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            let out = work(c * chunk..(c * chunk + chunk).min(len));
            if out.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((c, out));
            if helper {
                // Without it, on a 2-vCPU host, a client thread woken while
                // both cores verified one answer sent its own request up to
                // ≈ 3 ms late (`adpbench` `loadgen.late_p99_us` on
                // `range_cold`); with it, ≈ 0.1 ms.
                thread::yield_now();
            }
        }
        done
    };
    let mut slots: Vec<Option<Result<T, E>>> = (0..chunks).map(|_| None).collect();
    thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(chunks))
            .map_while(|_| {
                thread::Builder::new()
                    .spawn_scoped(s, || {
                        let before = thread_hash_ops();
                        let done = claim(true);
                        (done, thread_hash_ops() - before)
                    })
                    .ok()
            })
            .collect();
        for (c, out) in claim(false) {
            slots[c] = Some(out);
        }
        for helper in helpers {
            let (done, hash_ops) = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            credit_thread_ops(hash_ops);
            for (c, out) in done {
                slots[c] = Some(out);
            }
        }
    });
    let mut out = Vec::with_capacity(chunks);
    for slot in slots {
        // Unclaimed chunks only ever follow a failed one.
        out.push(slot.expect("every chunk before the first failure is claimed and run")?);
    }
    Ok(out)
}

/// [`try_map_chunks`] for work that cannot fail.
pub fn map_chunks<T, F>(len: usize, split: Split, workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    match try_map_chunks(len, split, workers, |r| {
        Ok::<_, std::convert::Infallible>(work(r))
    }) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Joins per-chunk vectors in chunk order into one allocated once at its
/// final size; a lone chunk is moved, not copied.
pub fn concat<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    if chunks.len() == 1 {
        return chunks.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::{HashDomain, Hasher};

    const SMALL: Split = Split { chunk: 3, at: 8 };

    #[test]
    fn chunks_come_back_in_order_whoever_ran_them() {
        for workers in [1, 2, 3, 8] {
            for len in [0, 1, 7, 8, 9, 30, 31] {
                let got = concat(map_chunks(len, SMALL, workers, |r| r.collect::<Vec<_>>()));
                assert_eq!(
                    got,
                    (0..len).collect::<Vec<_>>(),
                    "{workers} workers, {len}"
                );
            }
        }
    }

    #[test]
    fn below_the_split_point_one_chunk_and_no_thread() {
        let caller = thread::current().id();
        let ranges = map_chunks(SMALL.at - 1, SMALL, 8, |r| {
            assert_eq!(thread::current().id(), caller);
            r
        });
        assert_eq!(ranges, vec![0..SMALL.at - 1]);
    }

    #[test]
    fn the_first_failure_in_chunk_order_wins() {
        // Index 16 (chunk 5) fails at once, index 7 (chunk 2) only after a
        // pause: a later chunk finishing first must not decide the error.
        for workers in [1, 2, 4] {
            let got = try_map_chunks(40, SMALL, workers, |r| {
                for i in r.clone() {
                    if i == 7 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        return Err(i);
                    }
                    if i == 16 {
                        return Err(i);
                    }
                }
                Ok(r.len())
            });
            assert_eq!(got, Err(7), "{workers} workers");
        }
    }

    #[test]
    fn helpers_credit_their_hashes_to_the_caller() {
        let h = Hasher::default();
        let hash_range = |r: Range<usize>| {
            for i in r {
                let _ = h.hash(HashDomain::Data, &i.to_le_bytes());
            }
        };
        let before = thread_hash_ops();
        let chunks = map_chunks(200, SMALL, 4, hash_range);
        assert_eq!(chunks.len(), 67);
        assert_eq!(thread_hash_ops() - before, 200);
    }
}
