//! Iterated one-way hash chains `h^i(r|j)` (Sections 3.1 and 5.1).
//!
//! The paper defines `h^i(r)` recursively: `h^0(r)` applies the hash once to
//! `r`, and `h^i(r) = h^{i-1}(h(r))`. So **`h^i` means `i + 1` hash
//! applications**, and `h^j` is defined for `j = 0` (one application) but
//! *undefined for `j < 0`* — that asymmetry is precisely what makes the
//! completeness proof sound (Case 1 of Section 3.2): a publisher holding
//! `r_{a-1} ≥ α` would need `h^{α - r_{a-1} - 1}` with a negative exponent.
//!
//! Chains are *tagged*: the digit-decomposed scheme hashes `r|j` (the value
//! concatenated with its digit position `j`), so the `m+1` digit chains of
//! one value are mutually independent. The first application uses the
//! `Value` hash domain and subsequent steps the `Step` domain, which also
//! guarantees `h^{-1}(x) != x` structurally (cf. the paper's remark on
//! choosing `h` with output length different from `|r|`).
//!
//! The digit chains of one key — and of its two directions — share no data,
//! so wherever more than one chain has to move, they advance two at a time
//! through the two-lane compression kernel ([`chain_run`],
//! [`chain_extend_many`]).

use crate::digest::Digest;
use crate::hasher::{block_of, count_ops, sha256_of, HashDomain, Hasher, Message, Sink};
use crate::sha256::{digest_of_block, digests_of_blocks};

/// The message of `h^0(value|position)`: the tagged pre-image `r|j` as one
/// length-prefixed part in the `Value` domain.
struct Tagged<'a> {
    value: &'a [u8],
    position: u32,
}

impl Message for Tagged<'_> {
    #[inline]
    fn write_to(&self, sink: &mut impl Sink) {
        sink.put(&[HashDomain::Value as u8]);
        sink.put(&(self.value.len() as u32 + 4).to_le_bytes());
        sink.put(self.value);
        sink.put(&self.position.to_le_bytes());
    }
}

/// Computes `h^steps(value|position)`, i.e. `steps + 1` hash applications
/// starting from the tagged plaintext value.
pub fn chain_from_value(hasher: &Hasher, value: &[u8], position: u32, steps: u64) -> Digest {
    let mut out = [hasher.truncate([0; 32])];
    chain_run(hasher, value, &[(position, steps)], &mut out);
    out[0]
}

/// Computes `h^{steps}(value|position)` into `out[i]` for a whole run of
/// `(position, steps)` chains sharing one value — the `m+1` digit chains of
/// one key, in one or both directions, differ only in their position tag.
///
/// Each digest is byte-identical to
/// `chain_from_value(hasher, value, position, steps)`.
///
/// # Panics
/// If `tags` and `out` differ in length.
pub fn chain_run(hasher: &Hasher, value: &[u8], tags: &[(u32, u64)], out: &mut [Digest]) {
    assert_eq!(tags.len(), out.len(), "one output per chain");
    advance(hasher, out, |i, start, block| {
        let (position, steps) = tags[i];
        let first = Tagged { value, position };
        if block_of(&first, block) {
            return steps + 1;
        }
        // A value too long for one block: `h^0` through the streaming hash,
        // the steps from there.
        count_ops(1);
        *start = hasher.truncate(sha256_of(&first));
        hasher.step_block(start, block);
        steps
    });
}

/// Extends an intermediate chain digest by `extra` further applications.
///
/// This is the user-side operation of Figure 4: the publisher transmits
/// `h^{δ_e}(r|j)` and the user derives `h^{δ_e + extra}(r|j)`.
pub fn chain_extend(hasher: &Hasher, digest: Digest, extra: u64) -> Digest {
    let mut d = [digest];
    chain_extend_many(hasher, &mut d, &[extra]);
    d[0]
}

/// Extends every `digests[i]` by `steps[i]` further applications, in place:
/// [`chain_extend`] over a set of independent chains (Figure 8a's per-digit
/// extension), two chains at a time.
///
/// # Panics
/// If `digests` and `steps` differ in length.
pub fn chain_extend_many(hasher: &Hasher, digests: &mut [Digest], steps: &[u64]) {
    assert_eq!(digests.len(), steps.len(), "one step count per chain");
    advance(hasher, digests, |i, start, block| {
        hasher.step_block(start, block);
        steps[i]
    });
}

/// The one place chains advance. For chain `i`, `load(i, &mut digests[i],
/// block)` writes the chain's first one-block message and returns how many
/// compressions lead from it to the wanted digest (0: `digests[i]` already
/// is that digest). Two lanes each hold one chain's current message and
/// compress together; a finished lane writes its digest back and takes the
/// next waiting chain, and the last chain standing finishes alone.
fn advance(
    hasher: &Hasher,
    digests: &mut [Digest],
    mut load: impl FnMut(usize, &mut Digest, &mut [u8; 64]) -> u64,
) {
    /// What a lane is working on.
    #[derive(Clone, Copy)]
    struct Lane {
        chain: usize,
        /// Compressions still to run.
        left: u64,
        /// The block is still what `load` wrote — a value message, or the
        /// step message of a digest of another length — and not yet this
        /// hasher's fixed step layout, in which only the digest bytes change.
        loaded: bool,
    }

    let mut ops = 0;
    let mut next = 0;
    let mut take = |digests: &mut [Digest], block: &mut [u8; 64]| {
        while next < digests.len() {
            let chain = next;
            next += 1;
            let left = load(chain, &mut digests[chain], block);
            ops += left;
            if left > 0 {
                return Some(Lane {
                    chain,
                    left,
                    loaded: true,
                });
            }
        }
        None
    };
    // After a compression that was not the chain's last: the next step
    // message replaces the one just hashed.
    let step_on = |lane: &mut Lane, block: &mut [u8; 64], full: &[u8; 32]| {
        if lane.loaded {
            hasher.step_block(&hasher.truncate(*full), block);
            lane.loaded = false;
        } else {
            hasher.restep(block, full);
        }
    };

    let mut blocks = [[0u8; 64]; 2];
    let mut lanes = [None; 2];
    for (lane, block) in lanes.iter_mut().zip(&mut blocks) {
        *lane = take(digests, block);
    }
    while let [Some(_), Some(_)] = lanes {
        let fulls = digests_of_blocks([&blocks[0], &blocks[1]]);
        for i in 0..2 {
            let lane = lanes[i].as_mut().expect("both lanes are loaded");
            lane.left -= 1;
            if lane.left > 0 {
                step_on(lane, &mut blocks[i], &fulls[i]);
            } else {
                digests[lane.chain] = hasher.truncate(fulls[i]);
                lanes[i] = take(digests, &mut blocks[i]);
            }
        }
    }
    // Nothing is waiting any more and at most one lane is still loaded.
    for (lane, block) in lanes.into_iter().zip(&mut blocks) {
        let Some(mut lane) = lane else { continue };
        let mut full = digest_of_block(block);
        for _ in 1..lane.left {
            step_on(&mut lane, block, &full);
            full = digest_of_block(block);
        }
        digests[lane.chain] = hasher.truncate(full);
    }
    count_ops(ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::{thread_hash_ops, Hasher};

    fn tagged(value: &[u8], position: u32) -> Vec<u8> {
        [value, &position.to_le_bytes()].concat()
    }

    /// Hash applications `f` performs, read off the calling thread's
    /// counter so that tests hashing in parallel cannot disturb it.
    fn ops_of<T>(f: impl FnOnce() -> T) -> u64 {
        let before = thread_hash_ops();
        f();
        thread_hash_ops() - before
    }

    #[test]
    fn zero_steps_is_one_application() {
        let h = Hasher::default();
        let d = chain_from_value(&h, b"r", 0, 0);
        assert_eq!(d, h.hash(HashDomain::Value, &tagged(b"r", 0)));
    }

    #[test]
    fn steps_are_step_domain_hashes() {
        // Also for a value whose first message outgrows one block.
        let h = Hasher::new(20);
        for value in [&b"r"[..], &[7u8; 60][..]] {
            let mut expected = h.hash(HashDomain::Value, &tagged(value, 9));
            assert_eq!(chain_from_value(&h, value, 9, 0), expected);
            for _ in 0..3 {
                expected = h.hash(HashDomain::Step, expected.as_bytes());
            }
            assert_eq!(chain_from_value(&h, value, 9, 3), expected);
            assert_eq!(ops_of(|| chain_from_value(&h, value, 9, 3)), 4);
        }
    }

    #[test]
    fn extension_composes() {
        // h^{a}(v) extended by b steps equals h^{a+b}(v): the core algebra
        // behind the boundary proof (δ_e + δ_c = Δ_t).
        let h = Hasher::default();
        for (a, b) in [(0u64, 0u64), (0, 5), (3, 4), (10, 0), (7, 13)] {
            let inter = chain_from_value(&h, b"val", 2, a);
            let extended = chain_extend(&h, inter, b);
            assert_eq!(
                extended,
                chain_from_value(&h, b"val", 2, a + b),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn chain_run_matches_singles() {
        let h = Hasher::default();
        let tags = [(0u32, 0u64), (1, 5), (0x8000_0002, 13), (3, 1), (4, 2)];
        for n in 0..=tags.len() {
            let mut bulk = vec![h.hash(HashDomain::Data, b"filler"); n];
            chain_run(&h, b"shared-key", &tags[..n], &mut bulk);
            for (d, &(pos, steps)) in bulk.iter().zip(&tags) {
                assert_eq!(*d, chain_from_value(&h, b"shared-key", pos, steps));
            }
        }
    }

    #[test]
    fn extend_many_matches_singles_for_uneven_steps() {
        let h = Hasher::new(32);
        let starts: Vec<Digest> = (0..7u32)
            .map(|i| chain_from_value(&h, b"k", i, 0))
            .collect();
        let steps = [3u64, 0, 1, 9, 0, 2, 2];
        let mut bulk = starts.clone();
        chain_extend_many(&h, &mut bulk, &steps);
        for ((b, s), n) in bulk.iter().zip(&starts).zip(steps) {
            assert_eq!(*b, chain_extend(&h, *s, n));
        }
    }

    #[test]
    fn foreign_length_digest_extends_like_the_plain_hash() {
        // A 32-byte digest fed to a 16-byte hasher: the first step hashes
        // all 32 bytes, every later one 16.
        let wide = Hasher::new(32).hash(HashDomain::Data, b"wide");
        let h = Hasher::new(16);
        let mut expected = wide;
        for _ in 0..3 {
            expected = h.hash(HashDomain::Step, expected.as_bytes());
        }
        assert_eq!(chain_extend(&h, wide, 3), expected);
        let mut pair = [wide, chain_from_value(&h, b"k", 0, 0)];
        chain_extend_many(&h, &mut pair, &[3, 3]);
        assert_eq!(pair[0], expected);
        assert_eq!(chain_extend(&h, wide, 0), wide);
    }

    #[test]
    fn positions_are_independent() {
        let h = Hasher::default();
        assert_ne!(
            chain_from_value(&h, b"v", 0, 4),
            chain_from_value(&h, b"v", 1, 4)
        );
    }

    #[test]
    fn values_are_independent() {
        let h = Hasher::default();
        assert_ne!(
            chain_from_value(&h, b"v1", 0, 4),
            chain_from_value(&h, b"v2", 0, 4)
        );
    }

    #[test]
    fn tag_is_unambiguous() {
        // value || position must not collide across the boundary.
        let h = Hasher::default();
        // tagged(b"a\x01", 0) vs tagged(b"a", 1): byte strings differ in the
        // 4-byte LE position suffix, so chains must differ.
        assert_ne!(
            chain_from_value(&h, b"a\x01", 0, 0),
            chain_from_value(&h, b"a", 1, 0)
        );
    }

    #[test]
    fn chain_cost_is_steps_plus_one() {
        let h = Hasher::default();
        assert_eq!(ops_of(|| chain_from_value(&h, b"x", 0, 7)), 8);
    }

    #[test]
    fn extension_costs_its_steps() {
        let h = Hasher::default();
        let start = chain_from_value(&h, b"x", 0, 0);
        assert_eq!(ops_of(|| chain_extend(&h, start, 20)), 20);
        assert_eq!(ops_of(|| chain_extend(&h, start, 0)), 0);
    }

    #[test]
    fn bulk_run_costs_what_the_singles_cost() {
        let h = Hasher::default();
        let tags = [(0u32, 0u64), (1, 5), (2, 1)];
        let mut out = [chain_from_value(&h, b"x", 0, 0); 3];
        // (0 + 1) + (5 + 1) + (1 + 1) applications, counted per call.
        assert_eq!(ops_of(|| chain_run(&h, b"x", &tags, &mut out)), 9);
    }
}
