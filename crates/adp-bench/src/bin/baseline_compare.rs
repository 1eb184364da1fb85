//! Reproduces the paper's evaluation across all four schemes — the
//! `adp-core` signature chain vs the Devanbu Merkle tree \[10\], the Ma
//! aggregated-signature scheme \[13\], and the VB-tree \[20\] — over a
//! shared workload grid, and keeps `docs/EVALUATION.md` provably in sync
//! with the code. See `adp_bench::compare` for the harness itself.
//!
//! ```text
//! cargo run --release -p adp-bench --bin baseline_compare            # full grid,
//!                                  #   prints tables, writes BENCH_PR5.json
//!     -- --write-doc               # …and regenerates docs/EVALUATION.md's
//!                                  #   generated region in place
//!     -- --check                   # re-derive every deterministic cell and
//!                                  #   fail if the committed doc/snapshot drifted
//!     -- --tiny [--out P]          # seconds-scale smoke grid (CI)
//!     -- --out P --doc P --label L # path/label overrides
//! ```
//!
//! `ADP_PERF_SAMPLES` bounds timing samples (default 25); `--check` takes
//! no timings at all, so it is fast and machine-independent.

use adp_bench::compare;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match compare::parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("baseline_compare: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = compare::run(&opts) {
        eprintln!("baseline_compare: {e}");
        std::process::exit(1);
    }
}
