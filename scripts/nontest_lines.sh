#!/usr/bin/env bash
# Prints the workspace's non-test line count, one row per crate and a
# total: every tracked `.rs` file up to its first `#[cfg(test)]`, plus
# every `Cargo.toml`. `tests/` directories and the frozen benchmark
# package (`crates/adp-bench/src/bin/adpbench/`) are left out. `root` is
# the facade package: `src/`, `examples/` and the root manifest.
#
#     scripts/nontest_lines.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rows=$(
  git ls-files -- '*.rs' '*Cargo.toml' ':!crates/adp-bench/src/bin/adpbench/' |
    grep -vE '(^|/)tests/' |
    while read -r f; do
      case "$f" in
        *.rs) n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f") ;;
        *) n=$(wc -l <"$f") ;;
      esac
      case "$f" in
        crates/shims/*) unit=$(echo "$f" | cut -d/ -f1-3) ;;
        crates/*) unit=$(echo "$f" | cut -d/ -f1-2) ;;
        *) unit=root ;;
      esac
      echo "$unit $n"
    done |
    awk '{ s[$1] += $2 } END { for (k in s) printf "%-24s %6d\n", k, s[k] }' |
    sort
)
echo "$rows"
echo "$rows" | awk '{ t += $2 } END { printf "%-24s %6d\n", "total", t }'
