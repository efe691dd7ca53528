#!/bin/sh
# Product (non-test) lines per crate under `crates/`: for every `src/` file
# of a crate, the lines before its first top-level `#[cfg(test)]` (the whole
# file when it has none). `mars-bench`, `mars-oracle` and the dependency
# shims are left out: they are benchmarks, a test oracle and stand-ins for
# published crates. So is the root package, which only re-exports the crates.
#
# Usage, from anywhere in the repository: scripts/product_lines.sh
set -eu
cd "$(dirname "$0")/.."

total=0
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)
    case "$name" in
    mars-bench | mars-oracle) continue ;;
    esac
    [ -d "$dir/src" ] || continue
    lines=$(find "$dir/src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-16s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' total "$total"
