//! # adp-crypto
//!
//! Cryptographic substrate for the `adp` authenticated-data-publishing
//! workspace, which reproduces *"Verifying Completeness of Relational Query
//! Results in Data Publishing"* (Pang, Jain, Ramamritham, Tan — SIGMOD
//! 2005).
//!
//! Everything here is implemented from scratch (the offline dependency set
//! contains no cryptography), mirroring the primitives of the paper's
//! Section 2.1:
//!
//! | Paper primitive | Module |
//! |-----------------|--------|
//! | one-way hash `h(.)` | [`sha256`], [`hasher`] |
//! | digital signature `s(.)` | [`rsa`] (needs [`bigint`]) |
//! | signature aggregation | [`aggregate`] (condensed RSA, single signer) |
//! | Merkle hash tree | [`merkle`] |
//! | iterated hash `h^i(r)` (Sections 3.1/5.1) | [`chain`] |
//!
//! ## Security posture
//!
//! This is a research reproduction: the RSA implementation is not hardened
//! against timing side channels and the FDH padding is a textbook
//! construction. It is suitable for studying the protocol's completeness /
//! authenticity guarantees and cost profile — the purpose of this
//! repository — not for protecting production data.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod aggregate;
pub mod bigint;
pub mod chain;
pub mod digest;
pub mod hasher;
pub mod merkle;
pub mod montgomery;
pub mod par;
pub mod sha256;

pub use aggregate::AggregateSignature;
pub use bigint::BigUint;
pub use chain::{chain_extend, chain_extend_many, chain_from_value, chain_run};
pub use digest::Digest;
pub use hasher::{hash_ops, thread_hash_ops, HashDomain, Hasher};
pub use merkle::{
    root_from_mixed, root_from_range, verify_inclusion, InclusionProof, MerkleTree, MixedLeaf,
    ProofStep, RangeProofNode,
};
pub use montgomery::MontgomeryCtx;
pub use rsa::{Keypair, PublicKey, Signature};

pub mod rsa;
