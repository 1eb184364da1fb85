//! End-to-end CLI tests: drive the real `adp` binary through the
//! publish → query → verify file workflow, including tampering scenarios.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn adp(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adp"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary runs")
}

fn assert_ok(out: &Output, ctx: &str) {
    assert!(
        out.status.success(),
        "{ctx} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adp-cli-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_csv(dir: &Path) {
    fs::write(
        dir.join("emp.csv"),
        "id,name,salary,dept\n\
         5,Alice,2000,1\n\
         2,\"Chen, C\",3500,2\n\
         1,Dana,8010,1\n\
         4,Bob,12100,3\n\
         3,Eve,25000,2\n",
    )
    .unwrap();
}

fn publish(dir: &Path) {
    let out = adp(
        &[
            "publish",
            "--csv",
            "emp.csv",
            "--key",
            "salary",
            "--domain",
            "0..100000",
            "--out",
            "pub",
            "--bits",
            "512",
        ],
        dir,
    );
    assert_ok(&out, "publish");
}

#[test]
fn publish_query_verify_roundtrip() {
    let dir = workdir("roundtrip");
    sample_csv(&dir);
    publish(&dir);
    for f in ["table.csv", "signatures.bin", "certificate.bin"] {
        assert!(dir.join("pub").join(f).exists(), "missing {f}");
    }

    let out = adp(
        &[
            "query", "--dir", "pub", "--range", "0..10000", "--out", "ans",
        ],
        &dir,
    );
    assert_ok(&out, "query");
    let result_csv = fs::read_to_string(dir.join("ans/result.csv")).unwrap();
    assert_eq!(result_csv.lines().count(), 3);
    assert!(result_csv.contains("Alice"));
    assert!(!result_csv.contains("Bob"), "12100 is out of range");

    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "0..10000",
            "--answer",
            "ans",
        ],
        &dir,
    );
    assert_ok(&out, "verify");
    assert!(String::from_utf8_lossy(&out.stdout).contains("VERIFIED: 3 rows"));
}

#[test]
fn projection_flag_flows_through() {
    let dir = workdir("project");
    sample_csv(&dir);
    publish(&dir);
    let out = adp(
        &[
            "query",
            "--dir",
            "pub",
            "--range",
            "0..10000",
            "--project",
            "name",
            "--out",
            "ans",
        ],
        &dir,
    );
    assert_ok(&out, "query");
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "0..10000",
            "--project",
            "name",
            "--answer",
            "ans",
        ],
        &dir,
    );
    assert_ok(&out, "verify");
    // Wrong projection on the verifier side must fail.
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "0..10000",
            "--answer",
            "ans",
        ],
        &dir,
    );
    assert!(
        !out.status.success(),
        "projection mismatch must be rejected"
    );
}

#[test]
fn empty_range_verifies() {
    let dir = workdir("empty");
    sample_csv(&dir);
    publish(&dir);
    let out = adp(
        &[
            "query",
            "--dir",
            "pub",
            "--range",
            "4000..8000",
            "--out",
            "ans",
        ],
        &dir,
    );
    assert_ok(&out, "query");
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "4000..8000",
            "--answer",
            "ans",
        ],
        &dir,
    );
    assert_ok(&out, "verify empty");
    assert!(String::from_utf8_lossy(&out.stdout).contains("provably empty"));
}

#[test]
fn tampered_answer_rejected() {
    let dir = workdir("tamper");
    sample_csv(&dir);
    publish(&dir);
    assert_ok(
        &adp(
            &[
                "query", "--dir", "pub", "--range", "0..10000", "--out", "ans",
            ],
            &dir,
        ),
        "query",
    );
    // Flip a byte in the result.
    let path = dir.join("ans/result.bin");
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    fs::write(&path, bytes).unwrap();
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "0..10000",
            "--answer",
            "ans",
        ],
        &dir,
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("REJECTED"));
}

#[test]
fn range_replay_rejected() {
    // Verifying an answer against a different range must fail.
    let dir = workdir("replay");
    sample_csv(&dir);
    publish(&dir);
    assert_ok(
        &adp(
            &[
                "query", "--dir", "pub", "--range", "0..10000", "--out", "ans",
            ],
            &dir,
        ),
        "query",
    );
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "0..13000",
            "--answer",
            "ans",
        ],
        &dir,
    );
    assert!(
        !out.status.success(),
        "answer for a narrower range must not verify"
    );
}

#[test]
fn corrupted_publication_refused_by_publisher() {
    let dir = workdir("corrupt");
    sample_csv(&dir);
    publish(&dir);
    // The publisher's copy of the data is altered (the adversary scenario
    // of Section 2.2: overwriting storage).
    let table_path = dir.join("pub/table.csv");
    let text = fs::read_to_string(&table_path).unwrap();
    fs::write(&table_path, text.replace("8010", "8011")).unwrap();
    let out = adp(
        &[
            "query", "--dir", "pub", "--range", "0..10000", "--out", "ans",
        ],
        &dir,
    );
    assert!(
        !out.status.success(),
        "publisher must refuse unverifiable data"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not match its signatures"));
}

fn publish_with_store(dir: &Path) {
    let out = adp(
        &[
            "publish",
            "--csv",
            "emp.csv",
            "--key",
            "salary",
            "--domain",
            "0..100000",
            "--out",
            "pub",
            "--bits",
            "512",
            "--seed",
            "41",
            "--store",
            "store",
        ],
        dir,
    );
    assert_ok(&out, "publish --store");
}

#[test]
fn store_publish_ingest_compact_query_verify() {
    let dir = workdir("store-flow");
    sample_csv(&dir);
    publish_with_store(&dir);
    for f in ["snapshot.adps", "update.adpl"] {
        assert!(dir.join("store").join(f).exists(), "missing {f}");
    }

    // Ingest two inserts and one delete through the update log.
    fs::write(
        dir.join("more.csv"),
        "id,name,salary,dept\n9,Frank,5000,1\n10,Grace,15000,2\n",
    )
    .unwrap();
    let out = adp(
        &[
            "ingest", "--store", "store", "--csv", "more.csv", "--delete", "3500", "--bits", "512",
            "--seed", "41",
        ],
        &dir,
    );
    assert_ok(&out, "ingest");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 mutation(s)"), "{stdout}");
    assert!(stdout.contains("6 rows"), "{stdout}");

    // A wrong seed regenerates a different keypair and is refused.
    let out = adp(
        &[
            "ingest", "--store", "store", "--delete", "2000", "--bits", "512", "--seed", "999",
        ],
        &dir,
    );
    assert!(!out.status.success(), "wrong seed must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));

    // Query straight from the store (snapshot + replayed log) and verify
    // against the certificate from publish time.
    let out = adp(
        &[
            "query", "--store", "store", "--range", "0..10000", "--out", "ans",
        ],
        &dir,
    );
    assert_ok(&out, "query --store");
    let result_csv = fs::read_to_string(dir.join("ans/result.csv")).unwrap();
    assert!(result_csv.contains("Frank"), "ingested row served");
    assert!(!result_csv.contains("Chen"), "deleted row (3500) gone");
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "0..10000",
            "--answer",
            "ans",
        ],
        &dir,
    );
    assert_ok(&out, "verify post-ingest");
    assert!(String::from_utf8_lossy(&out.stdout).contains("VERIFIED: 3 rows"));

    // Compact, then everything still loads and verifies.
    let out = adp(&["compact", "--store", "store"], &dir);
    assert_ok(&out, "compact");
    assert!(String::from_utf8_lossy(&out.stdout).contains("folded 1 log record(s)"));
    let out = adp(
        &[
            "query", "--store", "store", "--range", "0..10000", "--out", "ans2",
        ],
        &dir,
    );
    assert_ok(&out, "query after compact");
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            "0..10000",
            "--answer",
            "ans2",
        ],
        &dir,
    );
    assert_ok(&out, "verify after compact");
}

#[test]
fn corrupted_store_refused() {
    let dir = workdir("store-corrupt");
    sample_csv(&dir);
    publish_with_store(&dir);
    let snap = dir.join("store/snapshot.adps");
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&snap, bytes).unwrap();
    let out = adp(
        &[
            "query", "--store", "store", "--range", "0..10000", "--out", "ans",
        ],
        &dir,
    );
    assert!(!out.status.success(), "corrupt snapshot must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CRC"));
}

#[test]
fn bad_flags_reported() {
    let dir = workdir("flags");
    sample_csv(&dir);
    let out = adp(&["publish", "--csv", "emp.csv"], &dir);
    assert!(!out.status.success());
    let out = adp(
        &[
            "publish", "--csv", "emp.csv", "--key", "name", "--domain", "0..10", "--out", "p",
        ],
        &dir,
    );
    assert!(!out.status.success(), "text key column rejected");
    let out = adp(&["frobnicate"], &dir);
    assert!(!out.status.success());
}

/// Asserts a clean refusal: exit code 1, `needle` on stderr, no panic.
fn assert_clean_error(out: &Output, needle: &str, ctx: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{ctx}: {stderr}");
    assert!(stderr.contains(needle), "{ctx}: {stderr}");
    assert!(!stderr.contains("panicked"), "{ctx}: {stderr}");
}

#[test]
fn degenerate_domain_and_bits_fail_cleanly() {
    let dir = workdir("narrow");
    sample_csv(&dir);
    let out = adp(
        &[
            "publish", "--csv", "emp.csv", "--key", "salary", "--domain", "0..3", "--out", "p",
        ],
        &dir,
    );
    assert_clean_error(&out, "--domain 0..3", "publish with a width-3 domain");
    let out = adp(
        &[
            "sql",
            "--csv",
            "emp.csv",
            "--key",
            "salary",
            "--domain",
            "0..2",
            "--query",
            "SELECT * FROM emp",
        ],
        &dir,
    );
    assert_clean_error(&out, "--domain 0..2", "sql with a width-2 domain");
    for bits in ["64", "511"] {
        let out = adp(
            &[
                "publish",
                "--csv",
                "emp.csv",
                "--key",
                "salary",
                "--domain",
                "0..100000",
                "--out",
                "p",
                "--bits",
                bits,
            ],
            &dir,
        );
        assert_clean_error(
            &out,
            &format!("--bits {bits}"),
            "publish with a bad modulus",
        );
    }
}

/// Queries and verifies the one-key range `key..key`, returning verify's
/// stdout.
fn query_verify_one_key(dir: &Path, key: &str) -> String {
    let range = format!("{key}..{key}");
    let ans = format!("ans-{key}");
    let out = adp(
        &["query", "--dir", "pub", "--range", &range, "--out", &ans],
        dir,
    );
    assert_ok(&out, "one-key query");
    let out = adp(
        &[
            "verify",
            "--cert",
            "pub/certificate.bin",
            "--range",
            &range,
            "--answer",
            &ans,
        ],
        dir,
    );
    assert_ok(&out, "one-key verify");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn one_key_range_round_trips() {
    let dir = workdir("one-key");
    sample_csv(&dir);
    publish(&dir);
    let hit = query_verify_one_key(&dir, "8010");
    assert!(hit.contains("VERIFIED: 1 rows"), "{hit}");
    assert!(!hit.contains("provably empty"), "{hit}");
    let miss = query_verify_one_key(&dir, "8011");
    assert!(miss.contains("VERIFIED: 0 rows"), "{miss}");
    assert!(miss.contains("provably empty"), "{miss}");
    // A reversed range is still refused.
    let out = adp(
        &["query", "--dir", "pub", "--range", "9..8", "--out", "ans"],
        &dir,
    );
    assert_clean_error(&out, "empty interval", "reversed range");
}
