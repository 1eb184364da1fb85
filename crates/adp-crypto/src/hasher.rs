//! The one-way hash abstraction `h(.)` used throughout the scheme, with
//! domain separation and a global operation counter.
//!
//! # Domain separation
//!
//! The paper (Section 3.1) requires that the iterated hash `h^i(r)` has no
//! inverse for `i < 0`; it suggests choosing `h` whose output length differs
//! from the length of `r`, so that `h^{-1}(r) != r` trivially. We achieve the
//! same guarantee more robustly by *domain-separating* every use of the hash
//! function with a one-byte context tag:
//!
//! * `VALUE` — first application of the chain to an encoded value,
//! * `STEP` — each subsequent chain step over a digest,
//! * `LEAF` / `NODE` — Merkle tree leaves and internal nodes,
//! * `LINK` — the signature-chain digest `h(g(r_{i-1}) | g(r_i) | g(r_{i+1}))`,
//! * `SIG` — the full-domain-hash padding for RSA signing.
//!
//! Separation makes cross-context collisions (e.g. passing a Merkle node off
//! as a chain step) structurally impossible rather than merely unlikely.
//!
//! # Operation counting
//!
//! The paper's cost model is expressed in *numbers of hash operations*
//! (`C_hash` per op). Two counters report exact operation counts that can
//! be compared with formulas (4)/(5) independently of hardware speed: a
//! relaxed process-wide one ([`hash_ops`]) and a per-thread one
//! ([`thread_hash_ops`]) that attributes them to the thread that hashed —
//! or, for work fanned out by [`crate::par`], to the thread that asked for
//! it — so a measurement stays exact while other threads hash. Bulk calls
//! count once for the whole call.
//!
//! # One block, two lanes
//!
//! Nearly every message the scheme hashes — a chain step, a digit value
//! hash, a Merkle leaf or node, `Comp`, an FDH block — is at most 55 bytes,
//! so with its padding it is exactly one SHA-256 block. Such a message
//! is written, domain byte and length-prefixed parts, straight into a padded
//! stack block and compressed once; only a longer one goes through the
//! streaming [`Sha256`]. Where a caller has several independent messages
//! (the digits of a key, the nodes of a Merkle level, the counter blocks of
//! an FDH), they go through the two-lane kernel in pairs
//! ([`crate::sha256::compress2`]).

use crate::digest::{Digest, MAX_DIGEST_LEN, MIN_DIGEST_LEN};
use crate::sha256::{digest_of_block, digests_of_blocks, Sha256};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Context tags for domain separation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HashDomain {
    /// First hash application over an encoded plaintext value.
    Value = 0x56,
    /// A chain step: hash of a previous digest.
    Step = 0x43,
    /// Merkle tree leaf.
    Leaf = 0x4c,
    /// Merkle tree internal node.
    Node = 0x4e,
    /// Signature-chain link digest (formula 1 inner hash).
    Link = 0x4b,
    /// Full-domain-hash expansion for RSA signing.
    Sig = 0x53,
    /// Free-form application data.
    Data = 0x44,
    /// A digit-representation digest `h(δ)` (Section 5.1 of the paper):
    /// hash over the per-digit chain digests of one representation.
    Rep = 0x52,
    /// A direction component `h(h(δ_t) | MHT-root)` combining the canonical
    /// representation digest with the non-canonical-representation tree.
    Comp = 0x4f,
}

static HASH_OPS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_HASH_OPS: Cell<u64> = const { Cell::new(0) };
}

/// Total number of hash-function applications performed process-wide since
/// start.
pub fn hash_ops() -> u64 {
    HASH_OPS.load(Ordering::Relaxed)
}

/// Number of hash-function applications performed **by the calling thread**
/// since it started, including those [`crate::par`] helpers performed on its
/// behalf. Monotone; sample it before and after a piece of work to count
/// that work alone, whatever other threads hash meanwhile.
pub fn thread_hash_ops() -> u64 {
    THREAD_HASH_OPS.with(Cell::get)
}

/// Records `n` hash applications on both counters.
#[inline]
pub(crate) fn count_ops(n: u64) {
    HASH_OPS.fetch_add(n, Ordering::Relaxed);
    credit_thread_ops(n);
}

/// Adds `n` to the calling thread's counter only: how [`crate::par`] hands a
/// helper thread's hashes, already on the global counter, to the thread
/// that asked for the work.
#[inline]
pub(crate) fn credit_thread_ops(n: u64) {
    THREAD_HASH_OPS.with(|ops| ops.set(ops.get() + n));
}

/// Longest message whose padding (`0x80`, zeros, 64-bit length) still fits
/// the same 64-byte block.
const ONE_BLOCK_MAX: usize = 55;

/// Offset of the digest inside a chain-step message: the domain byte and
/// the `u32` length prefix come first.
const STEP_DIGEST_AT: usize = 5;

/// Where the bytes of a message go: a length count, the one block they fit,
/// or the streaming hash.
pub(crate) trait Sink {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Appends one length-prefixed part. The prefix makes concatenation
    /// injective: `h(a|b)` with `a = "x"`, `b = "yz"` must differ from
    /// `a = "xy"`, `b = "z"`.
    #[inline]
    fn put_part(&mut self, part: &[u8]) {
        self.put(&(part.len() as u32).to_le_bytes());
        self.put(part);
    }
}

/// A message to hash, described by how to write it: it is written once to
/// measure it and once more into whichever sink its length selects.
pub(crate) trait Message {
    fn write_to(&self, sink: &mut impl Sink);
}

/// A domain byte followed by length-prefixed parts: the layout of every
/// hash in the scheme except the FDH counter blocks.
pub(crate) struct Parts<I>(pub(crate) HashDomain, pub(crate) I);

impl<'a, I: Iterator<Item = &'a [u8]> + Clone> Message for Parts<I> {
    #[inline]
    fn write_to(&self, sink: &mut impl Sink) {
        sink.put(&[self.0 as u8]);
        for part in self.1.clone() {
            sink.put_part(part);
        }
    }
}

/// Counter block `counter` of the full-domain hash of `seed`.
struct FdhBlock<'a> {
    counter: u32,
    seed: &'a [u8],
}

impl Message for FdhBlock<'_> {
    #[inline]
    fn write_to(&self, sink: &mut impl Sink) {
        sink.put(&[HashDomain::Sig as u8]);
        sink.put(&self.counter.to_le_bytes());
        sink.put(self.seed);
    }
}

/// Measures a message.
struct Length(usize);

impl Sink for Length {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

impl Sink for Sha256 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Writes a message of at most [`ONE_BLOCK_MAX`] bytes straight into the
/// block that, once padded, is its whole SHA-256 input.
struct OneBlock<'a> {
    block: &'a mut [u8; 64],
    len: usize,
}

impl Sink for OneBlock<'_> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.block[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// Writes `message`, padded, into `block` if it fits one block; `false`,
/// with `block` untouched, if it does not. The caller hashes the block where
/// it stands: a block moved after being written is copied before it is
/// hashed.
#[inline]
pub(crate) fn block_of(message: &impl Message, block: &mut [u8; 64]) -> bool {
    let mut length = Length(0);
    message.write_to(&mut length);
    if length.0 > ONE_BLOCK_MAX {
        return false;
    }
    *block = [0; 64];
    let mut sink = OneBlock { block, len: 0 };
    message.write_to(&mut sink);
    block[length.0] = 0x80;
    block[56..].copy_from_slice(&(length.0 as u64 * 8).to_be_bytes());
    true
}

/// The full SHA-256 of `message`: one compression if it fits one block, the
/// streaming hash otherwise.
#[inline]
pub(crate) fn sha256_of(message: &impl Message) -> [u8; 32] {
    let mut block = [0; 64];
    if block_of(message, &mut block) {
        return digest_of_block(&block);
    }
    let mut stream = Sha256::new();
    message.write_to(&mut stream);
    stream.finalize()
}

/// Hashes a run of independent messages two at a time, handing each full
/// SHA-256 output to `emit` in order. Counts the whole run once.
pub(crate) fn hash_batch<M: Message>(
    messages: impl IntoIterator<Item = M>,
    mut emit: impl FnMut([u8; 32]),
) {
    let mut messages = messages.into_iter();
    let mut ops = 0;
    while let Some(a) = messages.next() {
        ops += 1;
        let Some(b) = messages.next() else {
            emit(sha256_of(&a));
            break;
        };
        ops += 1;
        let (mut block_a, mut block_b) = ([0; 64], [0; 64]);
        if block_of(&a, &mut block_a) && block_of(&b, &mut block_b) {
            let [da, db] = digests_of_blocks([&block_a, &block_b]);
            emit(da);
            emit(db);
        } else {
            emit(sha256_of(&a));
            emit(sha256_of(&b));
        }
    }
    count_ops(ops);
}

/// A configured one-way hash function: SHA-256 truncated to `digest_len`
/// bytes (16..=32), with domain separation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hasher {
    digest_len: usize,
}

impl Default for Hasher {
    /// Default matches the paper's `M_digest` = 128 bits.
    fn default() -> Self {
        Hasher::new(16)
    }
}

impl Hasher {
    /// Creates a hasher producing `digest_len`-byte digests.
    ///
    /// # Panics
    /// If `digest_len` is outside `16..=32`.
    pub fn new(digest_len: usize) -> Self {
        assert!(
            (MIN_DIGEST_LEN..=MAX_DIGEST_LEN).contains(&digest_len),
            "digest length {digest_len} out of range 16..=32"
        );
        Hasher { digest_len }
    }

    /// Digest length in bytes.
    #[inline]
    pub fn digest_len(&self) -> usize {
        self.digest_len
    }

    /// Truncates a full SHA-256 output to this hasher's digest.
    #[inline]
    pub(crate) fn truncate(&self, full: [u8; 32]) -> Digest {
        Digest::truncated(full, self.digest_len)
    }

    /// [`hash_batch`] into this hasher's digests.
    fn digest_batch<M: Message>(&self, messages: impl Iterator<Item = M>) -> Vec<Digest> {
        let mut out = Vec::with_capacity(messages.size_hint().0);
        hash_batch(messages, |full| out.push(self.truncate(full)));
        out
    }

    /// One application of `h` over `parts` under `domain`.
    pub fn hash_parts(&self, domain: HashDomain, parts: &[&[u8]]) -> Digest {
        count_ops(1);
        self.truncate(sha256_of(&Parts(domain, parts.iter().copied())))
    }

    /// Bulk link hashing: one digest per consecutive window of three parts
    /// (`parts[i-1] | parts[i] | parts[i+1]` for every interior `i`), each
    /// byte-identical to `hash_parts(domain, &[prev, cur, next])`.
    ///
    /// This is the owner-side signature-chain shape (formula (1)): callers
    /// encode each record digest **once** and hash a whole run of tuples,
    /// instead of re-buffering every neighbour triple.
    pub fn hash_triple_windows(&self, domain: HashDomain, parts: &[&[u8]]) -> Vec<Digest> {
        assert!(parts.len() >= 3, "need at least one window of three parts");
        self.digest_batch(parts.windows(3).map(|w| Parts(domain, w.iter().copied())))
    }

    /// Bulk form of [`Self::hash`]: one digest per value, each
    /// byte-identical to `hash(domain, value)` (a Merkle leaf level).
    pub fn hash_each<'a>(
        &self,
        domain: HashDomain,
        values: impl IntoIterator<Item = &'a [u8]>,
    ) -> Vec<Digest> {
        self.digest_batch(values.into_iter().map(|v| Parts(domain, [v].into_iter())))
    }

    /// Bulk form of [`Self::hash_digests`] over adjacent pairs: one digest
    /// per `digests[2i], digests[2i + 1]`, each byte-identical to
    /// `hash_digests(domain, &[left, right])` (a Merkle node level). An odd
    /// last digest has no partner and produces nothing.
    pub fn hash_pairs(&self, domain: HashDomain, digests: &[Digest]) -> Vec<Digest> {
        self.digest_batch(
            digests
                .chunks_exact(2)
                .map(|pair| Parts(domain, pair.iter().map(Digest::as_bytes))),
        )
    }

    /// One application of `h` over a single byte string.
    #[inline]
    pub fn hash(&self, domain: HashDomain, data: &[u8]) -> Digest {
        self.hash_parts(domain, &[data])
    }

    /// One application of `h` over a sequence of digests (concatenation).
    pub fn hash_digests(&self, domain: HashDomain, digests: &[Digest]) -> Digest {
        count_ops(1);
        self.truncate(sha256_of(&Parts(
            domain,
            digests.iter().map(Digest::as_bytes),
        )))
    }

    /// Expands a digest into `out_len` pseudo-random bytes (counter-mode
    /// full-domain hash, used for RSA-FDH signature padding).
    pub fn expand(&self, seed: &[u8], out_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(out_len);
        let blocks = out_len.div_ceil(32) as u32;
        hash_batch(
            (0..blocks).map(|counter| FdhBlock { counter, seed }),
            |full| {
                let take = (out_len - out.len()).min(full.len());
                out.extend_from_slice(&full[..take]);
            },
        );
        out
    }

    /// Writes the padded one-block message of the chain step
    /// `h(Step, digest)` into `block`.
    #[inline]
    pub(crate) fn step_block(&self, digest: &Digest, block: &mut [u8; 64]) {
        let step = Parts(HashDomain::Step, [digest.as_bytes()].into_iter());
        let fits = block_of(&step, block);
        debug_assert!(fits, "a digest and its prefix fit one block");
    }

    /// Turns the [`Self::step_block`] of one of this hasher's digests into
    /// the step block of the next digest on the chain, `full` truncated:
    /// only the digest bytes differ.
    #[inline]
    pub(crate) fn restep(&self, block: &mut [u8; 64], full: &[u8; 32]) {
        block[STEP_DIGEST_AT..STEP_DIGEST_AT + self.digest_len]
            .copy_from_slice(&full[..self.digest_len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lengths_respected() {
        for len in [16, 20, 32] {
            let h = Hasher::new(len);
            assert_eq!(h.hash(HashDomain::Data, b"hello").len(), len);
        }
    }

    #[test]
    fn domains_separate() {
        let h = Hasher::default();
        assert_ne!(
            h.hash(HashDomain::Value, b"x"),
            h.hash(HashDomain::Step, b"x")
        );
    }

    #[test]
    fn length_prefix_prevents_concat_ambiguity() {
        let h = Hasher::default();
        assert_ne!(
            h.hash_parts(HashDomain::Data, &[b"ab", b"c"]),
            h.hash_parts(HashDomain::Data, &[b"a", b"bc"])
        );
    }

    #[test]
    fn deterministic() {
        let h = Hasher::new(32);
        assert_eq!(
            h.hash(HashDomain::Data, b"z"),
            h.hash(HashDomain::Data, b"z")
        );
    }

    #[test]
    fn op_counter_counts() {
        let h = Hasher::default();
        let (before, mine) = (hash_ops(), thread_hash_ops());
        let _ = h.hash(HashDomain::Data, b"1");
        let _ = h.hash_digests(HashDomain::Node, &[h.hash(HashDomain::Leaf, b"2")]);
        let _ = h.expand(b"seed", 65);
        // Other tests hash on other threads: the global count can only be
        // bounded from below, this thread's own is exact.
        assert!(hash_ops() >= before + 6);
        assert_eq!(thread_hash_ops(), mine + 6);
    }

    #[test]
    fn thread_counter_ignores_other_threads() {
        let h = Hasher::default();
        let start = std::sync::Barrier::new(2);
        let work = |n: u64| {
            start.wait();
            let before = thread_hash_ops();
            for i in 0..n {
                let _ = h.hash(HashDomain::Data, &i.to_le_bytes());
            }
            thread_hash_ops() - before
        };
        let (here, there) = std::thread::scope(|s| {
            let other = s.spawn(|| work(3_000));
            (work(2_000), other.join().unwrap())
        });
        assert_eq!((here, there), (2_000, 3_000));
    }

    #[test]
    fn triple_windows_match_singles() {
        let h = Hasher::default();
        let parts: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 3 + i as usize]).collect();
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let bulk = h.hash_triple_windows(HashDomain::Link, &refs);
        assert_eq!(bulk.len(), 4);
        for (i, d) in bulk.iter().enumerate() {
            assert_eq!(
                *d,
                h.hash_parts(HashDomain::Link, &[refs[i], refs[i + 1], refs[i + 2]]),
                "window {i}"
            );
        }
    }

    #[test]
    fn expand_lengths() {
        let h = Hasher::default();
        assert_eq!(h.expand(b"seed", 10).len(), 10);
        assert_eq!(h.expand(b"seed", 100).len(), 100);
        // Deterministic and prefix-consistent.
        assert_eq!(h.expand(b"seed", 100)[..10], h.expand(b"seed", 10)[..]);
    }
}
