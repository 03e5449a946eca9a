#!/usr/bin/env bash
# The measurement protocol ROADMAP's "One perf contract" asks of a perf PR,
# as one command:
#
#   tools/bench-ab.sh <base-rev> [pairs=10] [seed=11]
#
# Checks <base-rev> out beside the working tree, builds both sides'
# benchmark/ once (separate target directories, --offline), runs
# `all --seed <seed>` <pairs> times per side, alternating which side goes
# first, writes benchmark/out/ab/{base,new}-<i>.json (a .log beside each),
# and ends with `compare --base ... --new ...`, whose exit code it returns.
# The "new" side is the working tree as it is, uncommitted edits included.
# Everything it creates is under .bench_build/ and benchmark/out/, both
# git-ignored. One to two minutes per run per side on a 2-core box: 20 to
# 45 min at the default ten pairs. Run nothing else meanwhile.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <base-rev> [pairs=10] [seed=11]" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
    echo "$0: $1 is not a commit" >&2
    exit 2
}
pairs=${2:-10}
seed=${3:-11}

work=$root/.bench_build/ab
out=$root/benchmark/out/ab
rm -rf "$work/base" "$out"
mkdir -p "$work" "$out"

# A local clone, not `git worktree add`: the base side still reports its own
# commit in the result header, and nothing is registered in this checkout's
# .git that a failed run could leave behind.
git clone --quiet --no-checkout "$root" "$work/base"
git -C "$work/base" checkout --quiet --detach "$rev"

build() { # <side> <checkout>
    CARGO_TARGET_DIR=$work/target-$1 cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml"
}
build base "$work/base"
build new "$root"

run() { # <side> <pair>
    echo "pair $2/$pairs: $1" >&2
    "$work/target-$1/release/rumor-benchmark" all --seed "$seed" \
        --out "$out/$1-$2.json" >"$out/$1-$2.log"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run new "$i"
    else
        run new "$i"
        run base "$i"
    fi
done

"$work/target-new/release/rumor-benchmark" compare \
    --base "$out"/base-*.json --new "$out"/new-*.json
