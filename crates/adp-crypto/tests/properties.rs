//! Property-based tests for the cryptographic substrate: algebraic laws of
//! the big-integer arithmetic, Merkle tree soundness, chain composition,
//! and signature scheme round-trips.

use adp_crypto::bigint::{is_probable_prime, BigUint};
use adp_crypto::sha256::{compress2, compress_blocks, compress_blocks_scalar, Sha256};
use adp_crypto::{
    chain_extend, chain_extend_many, chain_from_value, chain_run, hasher::HashDomain,
    root_from_mixed, root_from_range, verify_inclusion, AggregateSignature, Digest, Hasher,
    Keypair, MerkleTree, MixedLeaf, MontgomeryCtx,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::OnceLock;

fn keypair() -> &'static Keypair {
    static K: OnceLock<Keypair> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x9909);
        Keypair::generate(512, &mut rng)
    })
}

prop_compose! {
    fn arb_biguint()(bytes in prop::collection::vec(any::<u8>(), 0..40)) -> BigUint {
        BigUint::from_bytes_be(&bytes)
    }
}

/// Limb widths straddling the fixed-width Montgomery kernels: the 8- and
/// 16-limb fast paths plus one limb on either side of each.
const BOUNDARY_LIMBS: [usize; 6] = [7, 8, 9, 15, 16, 17];

/// A Montgomery context over a random odd modulus of exactly
/// `BOUNDARY_LIMBS[widx]` limbs (`extra` scatters the bit length within
/// the top limb), plus the modulus and the RNG for operand generation.
fn boundary_ctx(widx: usize, extra: usize, seed: u64) -> (MontgomeryCtx, BigUint, StdRng) {
    let limbs = BOUNDARY_LIMBS[widx];
    let bits = (limbs - 1) * 64 + 1 + (extra % 64);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = BigUint::random_bits(&mut rng, bits);
    if m.is_even() {
        m = m.add(&BigUint::one());
    }
    let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
    (ctx, m, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- BigUint ring laws ----------------

    #[test]
    fn add_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn div_rem_reconstructs(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn shifts_roundtrip(a in arb_biguint(), s in 0usize..200) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn bytes_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn mod_pow_multiplicative(a in arb_biguint(), b in arb_biguint(), m in arb_biguint()) {
        prop_assume!(m > BigUint::one());
        // (a*b)^2 == a^2 * b^2 (mod m)
        let two = BigUint::from_u64(2);
        let lhs = a.mul(&b).mod_pow(&two, &m);
        let rhs = a.mod_pow(&two, &m).mul_mod(&b.mod_pow(&two, &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inverse_is_inverse(a in arb_biguint(), m in arb_biguint()) {
        prop_assume!(m > BigUint::one());
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn gcd_divides_both(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn primes_pass_fermat(seed in any::<u64>()) {
        // For random 64-bit odd numbers that Miller-Rabin accepts, Fermat's
        // little theorem must hold for a few bases.
        let mut rng = StdRng::seed_from_u64(seed);
        let candidate = BigUint::from_u64(rand::Rng::gen_range(&mut rng, 3u64..u64::MAX) | 1);
        if is_probable_prime(&candidate, 16, &mut rng) {
            for base in [2u64, 3, 5, 7] {
                let b = BigUint::from_u64(base);
                let exp = candidate.sub(&BigUint::one());
                prop_assert_eq!(b.mod_pow(&exp, &candidate), BigUint::one());
            }
        }
    }

    // ---------------- Merkle trees ----------------

    #[test]
    fn inclusion_proofs_sound(n in 1usize..50, idx in 0usize..50) {
        let h = Hasher::default();
        let leaves: Vec<_> = (0..n).map(|i| h.hash(HashDomain::Leaf, &(i as u64).to_le_bytes())).collect();
        let tree = MerkleTree::build(h, leaves.clone());
        let idx = idx % n;
        let proof = tree.prove(idx);
        prop_assert_eq!(verify_inclusion(&h, leaves[idx], &proof), tree.root());
        // A different leaf with the same proof must fail.
        if n > 1 {
            let other = (idx + 1) % n;
            prop_assert_ne!(verify_inclusion(&h, leaves[other], &proof), tree.root());
        }
    }

    #[test]
    fn range_proofs_sound(n in 1usize..40, lo in 0usize..40, len in 1usize..10) {
        let h = Hasher::default();
        let leaves: Vec<_> = (0..n).map(|i| h.hash(HashDomain::Leaf, &(i as u64).to_le_bytes())).collect();
        let tree = MerkleTree::build(h, leaves.clone());
        let lo = lo % n;
        let hi = (lo + len - 1).min(n - 1);
        let fringe = tree.prove_range(lo, hi);
        let root = root_from_range(&h, n, lo, &leaves[lo..=hi], &fringe);
        prop_assert_eq!(root, Some(tree.root()));
    }

    #[test]
    fn mixed_roots_agree_with_plain(n in 1usize..20, mask in any::<u32>()) {
        let h = Hasher::default();
        let values: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; (i % 5) + 1]).collect();
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        let tree = MerkleTree::from_values(h, &refs);
        let mixed: Vec<MixedLeaf> = refs.iter().enumerate().map(|(i, v)| {
            if mask >> (i % 32) & 1 == 1 {
                MixedLeaf::Digest(h.hash(HashDomain::Leaf, v))
            } else {
                MixedLeaf::Value(v)
            }
        }).collect();
        prop_assert_eq!(root_from_mixed(&h, &mixed), tree.root());
    }

    // ---------------- Montgomery differential suite ----------------
    //
    // The 8- and 16-limb operand widths take dedicated fixed-width CIOS
    // kernels (512/1024 bits: the CRT halves and full moduli); everything
    // else runs the generic loop. Each law below therefore samples limb
    // counts straddling those fast-path boundaries (7/8/9 and 15/16/17)
    // and checks the Montgomery result against the division-based
    // reference arithmetic bit for bit.

    #[test]
    fn mont_mul_matches_mul_mod(widx in 0usize..6, extra in 0usize..64, seed in any::<u64>()) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let a = BigUint::random_below(&mut rng, &m);
        let b = BigUint::random_below(&mut rng, &m);
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    fn mont_sqr_matches_mul_mod(widx in 0usize..6, extra in 0usize..64, seed in any::<u64>()) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let a = BigUint::random_below(&mut rng, &m);
        prop_assert_eq!(ctx.sqr_mod(&a), a.mul_mod(&a, &m));
    }

    #[test]
    fn mont_mod_pow_matches_plain(
        widx in 0usize..6,
        extra in 0usize..64,
        exp_bits in 1usize..224,
        seed in any::<u64>(),
    ) {
        // exp_bits spans every sliding-window width the ladder selects.
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let base = BigUint::random_below(&mut rng, &m);
        let exp = BigUint::random_bits(&mut rng, exp_bits);
        prop_assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_plain(&exp, &m));
    }

    #[test]
    fn mont_mod_pow_degenerate_exponents(widx in 0usize..6, extra in 0usize..64, seed in any::<u64>()) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let base = BigUint::random_below(&mut rng, &m);
        prop_assert_eq!(ctx.mod_pow(&base, &BigUint::zero()), BigUint::one());
        prop_assert_eq!(ctx.mod_pow(&base, &BigUint::one()), base.rem(&m));
        // Unreduced base: the kernel must reduce before entering the domain.
        let big_base = base.add(&m);
        let exp = BigUint::from_u64(3);
        prop_assert_eq!(ctx.mod_pow(&big_base, &exp), base.mod_pow_plain(&exp, &m));
    }

    #[test]
    fn mont_product_matches_fold(
        widx in 0usize..6,
        count in 0usize..10,
        extra in 0usize..64,
        seed in any::<u64>(),
    ) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let factors: Vec<BigUint> =
            (0..count).map(|_| BigUint::random_below(&mut rng, &m)).collect();
        let expected = factors.iter().fold(BigUint::one(), |acc, f| acc.mul_mod(f, &m));
        prop_assert_eq!(ctx.product_mod(factors.iter()), expected);
    }

    // ---------------- SHA-256 kernels ----------------

    #[test]
    fn two_lane_kernel_equals_two_single_compressions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut states = [[0u32; 8]; 2];
        let mut blocks = [[0u8; 64]; 2];
        for lane in 0..2 {
            states[lane] = std::array::from_fn(|_| rng.next_u32());
            rng.fill_bytes(&mut blocks[lane]);
        }
        let mut two_lane = states;
        compress2(&mut two_lane, [&blocks[0], &blocks[1]]);
        // Against the dispatched kernel (SHA-NI where the host has it) and
        // against the portable one called directly.
        let (mut dispatched, mut scalar) = (states, states);
        for lane in 0..2 {
            compress_blocks(&mut dispatched[lane], &blocks[lane]);
            compress_blocks_scalar(&mut scalar[lane], &blocks[lane]);
        }
        prop_assert_eq!(two_lane, dispatched);
        prop_assert_eq!(two_lane, scalar);
    }

    // ---------------- Chains ----------------

    #[test]
    fn chain_extension_composes(a in 0u64..200, b in 0u64..200, tag in any::<u32>()) {
        let h = Hasher::default();
        let part = chain_from_value(&h, b"v", tag, a);
        prop_assert_eq!(chain_extend(&h, part, b), chain_from_value(&h, b"v", tag, a + b));
    }

    #[test]
    fn bulk_chains_agree_with_singles(
        chains in prop::collection::vec((any::<u32>(), 0u64..12), 0..8),
        len_idx in 0usize..3,
    ) {
        // Odd and even chain counts, zero and uneven step counts: the
        // two-lane scheduler must land every chain where the plain loop does.
        let h = Hasher::new(DIGEST_LENS[len_idx]);
        let mut bulk = vec![h.hash(HashDomain::Data, b"filler"); chains.len()];
        chain_run(&h, b"prop-value", &chains, &mut bulk);
        for (d, &(pos, st)) in bulk.iter().zip(&chains) {
            prop_assert_eq!(*d, chain_from_value(&h, b"prop-value", pos, st));
        }
        let steps: Vec<u64> = chains.iter().map(|c| c.1).collect();
        let mut extended = bulk.clone();
        chain_extend_many(&h, &mut extended, &steps);
        for ((e, b), st) in extended.iter().zip(&bulk).zip(steps) {
            prop_assert_eq!(*e, chain_extend(&h, *b, st));
        }
    }

    #[test]
    fn chains_injective_over_steps(a in 0u64..100, b in 0u64..100) {
        prop_assume!(a != b);
        let h = Hasher::default();
        prop_assert_ne!(
            chain_from_value(&h, b"v", 0, a),
            chain_from_value(&h, b"v", 0, b)
        );
    }

    // ---------------- Signatures ----------------

    #[test]
    fn sign_verify_roundtrip(msg in prop::collection::vec(any::<u8>(), 0..100)) {
        let h = Hasher::default();
        let kp = keypair();
        let d = h.hash(HashDomain::Data, &msg);
        let sig = kp.sign(&h, &d);
        prop_assert!(kp.public().verify(&h, &d, &sig));
    }

    #[test]
    fn aggregates_verify_and_reject_subsets(count in 1usize..8) {
        let h = Hasher::default();
        let kp = keypair();
        let digests: Vec<_> = (0..count).map(|i| h.hash(HashDomain::Data, &[i as u8])).collect();
        let sigs: Vec<_> = digests.iter().map(|d| kp.sign(&h, d)).collect();
        let refs: Vec<_> = sigs.iter().collect();
        let agg = AggregateSignature::combine(kp.public(), &refs);
        prop_assert!(agg.verify(&h, kp.public(), &digests));
        if count > 1 {
            prop_assert!(!agg.verify(&h, kp.public(), &digests[..count - 1]));
        }
    }
}

// ---------------- One-block path vs. the streaming reference ----------------

const DIGEST_LENS: [usize; 3] = [16, 20, 32];

const DOMAINS: [HashDomain; 9] = [
    HashDomain::Value,
    HashDomain::Step,
    HashDomain::Leaf,
    HashDomain::Node,
    HashDomain::Link,
    HashDomain::Sig,
    HashDomain::Data,
    HashDomain::Rep,
    HashDomain::Comp,
];

/// What every `Hasher` entry point must equal: the domain byte, then each
/// part behind its `u32` length, through the streaming SHA-256.
fn reference(h: &Hasher, domain: HashDomain, parts: &[&[u8]]) -> Digest {
    let mut s = Sha256::new();
    s.update(&[domain as u8]);
    for p in parts {
        s.update(&(p.len() as u32).to_le_bytes());
        s.update(p);
    }
    Digest::from_bytes(&s.finalize()[..h.digest_len()])
}

/// `total` pseudo-random bytes cut into `count` parts at pseudo-random
/// places (empty parts included).
fn cut(rng: &mut StdRng, total: usize, count: usize) -> Vec<Vec<u8>> {
    let mut bytes = vec![0u8; total];
    rng.fill_bytes(&mut bytes);
    let mut cuts: Vec<usize> = (1..count)
        .map(|_| rng.next_u32() as usize % (total + 1))
        .collect();
    cuts.sort_unstable();
    cuts.push(total);
    let mut from = 0;
    cuts.into_iter()
        .map(|to| {
            let part = bytes[from..to].to_vec();
            from = to;
            part
        })
        .collect()
}

#[test]
fn one_block_path_equals_streaming_reference() {
    // Payloads of 0..=130 bytes in 1..=4 parts put the whole message on
    // every side of the 55/56 one-block limit and the 63/64 block edge.
    let mut rng = StdRng::seed_from_u64(0x0b10c);
    for digest_len in DIGEST_LENS {
        let h = Hasher::new(digest_len);
        for domain in DOMAINS {
            for count in 1..=4usize {
                for total in 0..=130usize {
                    let parts = cut(&mut rng, total, count);
                    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                    let expected = reference(&h, domain, &refs);
                    let ctx = format!("len={digest_len} {domain:?} parts={count} total={total}");
                    assert_eq!(h.hash_parts(domain, &refs), expected, "{ctx}");
                    if count == 1 {
                        assert_eq!(h.hash(domain, refs[0]), expected, "{ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn digest_hashing_equals_streaming_reference() {
    let mut rng = StdRng::seed_from_u64(0xd16e57);
    for digest_len in DIGEST_LENS {
        let h = Hasher::new(digest_len);
        for domain in DOMAINS {
            for count in 1..=4usize {
                // Inputs of every legal length, not only the hasher's own.
                let digests: Vec<Digest> = (0..count)
                    .map(|i| {
                        let mut raw = [0u8; 32];
                        rng.fill_bytes(&mut raw);
                        Digest::from_bytes(&raw[..DIGEST_LENS[(i + count) % 3]])
                    })
                    .collect();
                let refs: Vec<&[u8]> = digests.iter().map(Digest::as_bytes).collect();
                assert_eq!(
                    h.hash_digests(domain, &digests),
                    reference(&h, domain, &refs),
                    "len={digest_len} {domain:?} count={count}"
                );
            }
        }
    }
}

#[test]
fn bulk_hashing_equals_singles() {
    let mut rng = StdRng::seed_from_u64(0xb01c);
    for digest_len in DIGEST_LENS {
        let h = Hasher::new(digest_len);
        // Values on both sides of the one-block limit, odd and even counts.
        for count in 0..=5usize {
            let values: Vec<Vec<u8>> = (0..count)
                .map(|i| cut(&mut rng, 44 + 3 * i, 1).remove(0))
                .collect();
            let refs: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            let leaves = h.hash_each(HashDomain::Leaf, refs.iter().copied());
            assert_eq!(leaves.len(), count);
            for (leaf, v) in leaves.iter().zip(&refs) {
                assert_eq!(*leaf, h.hash(HashDomain::Leaf, v));
            }
            let nodes = h.hash_pairs(HashDomain::Node, &leaves);
            assert_eq!(nodes.len(), count / 2);
            for (node, pair) in nodes.iter().zip(leaves.chunks_exact(2)) {
                assert_eq!(*node, h.hash_digests(HashDomain::Node, pair));
            }
            if count >= 3 {
                let links = h.hash_triple_windows(HashDomain::Link, &refs);
                for (link, w) in links.iter().zip(refs.windows(3)) {
                    assert_eq!(*link, h.hash_parts(HashDomain::Link, w));
                }
            }
        }
    }
}

#[test]
fn fdh_expansion_equals_streaming_reference() {
    let h = Hasher::default();
    let mut rng = StdRng::seed_from_u64(0xfd4);
    // Seeds of 50 bytes and fewer put each counter block in one SHA block.
    for seed_len in [0usize, 11, 16, 32, 50, 51, 59, 64, 130] {
        let seed = cut(&mut rng, seed_len, 1).remove(0);
        for out_len in [0usize, 1, 32, 33, 64, 96, 128, 130] {
            let mut expected = Vec::new();
            for counter in 0..out_len.div_ceil(32) as u32 {
                let mut s = Sha256::new();
                s.update(&[HashDomain::Sig as u8]);
                s.update(&counter.to_le_bytes());
                s.update(&seed);
                expected.extend_from_slice(&s.finalize());
            }
            expected.truncate(out_len);
            assert_eq!(
                h.expand(&seed, out_len),
                expected,
                "seed={seed_len} out={out_len}"
            );
        }
    }
}
