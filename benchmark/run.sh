#!/usr/bin/env bash
# The benchmark's one command: builds the root release binaries and the
# benchmark from source, then runs it with the arguments given.
#
#   bash benchmark/run.sh                                  all five workloads
#   bash benchmark/run.sh --trace trace.json --out r.json  traced run, Chrome traces, result file
#   bash benchmark/run.sh --workload sim_fast --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh compare a1.json,a2.json b1.json,b2.json
#
# Both builds go into one target directory (CARGO_TARGET_DIR, default the
# root's target/), so sms-serve, sms-fleet and sms-benchmark end up side by
# side and always match the checked-out source.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "benchmark/run.sh: $root is not the repository (no Cargo.toml, no crates/): nothing to measure" >&2
    exit 2
fi

target=${CARGO_TARGET_DIR:-$root/target}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p sms-serve >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/sms-benchmark" "$@"
