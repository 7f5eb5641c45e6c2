#!/bin/sh
# experiments_smoke.sh — run cmd/experiments cold, warm, and resumed
# after a simulated crash, and assert every file each run writes (the
# text tables, the -csv and the -json export) is byte-identical to the
# cold run's, for the default run and the two Section 3 studies
# (-only smt, -only vpred). A warm run must also simulate nothing, and
# the resumed default run must replay persisted traces, not run the VM.
#
# Run from the repository root: scripts/experiments_smoke.sh
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
go build -o "$tmp/experiments" ./cmd/experiments

run() { # run <name> <pass> <only>
    "$tmp/experiments" -n 2000 -only "$3" \
        -cache "$tmp/$1-cache" -trace-dir "$tmp/$1-traces" \
        -out "$tmp/$1-$2.txt" -csv "$tmp/$1-$2.csv" -json "$tmp/$1-$2.json" \
        2> "$tmp/$1-$2.log"
}

same() { # same <name> <pass>: the pass wrote the cold run's bytes
    for ext in txt csv json; do
        cmp "$tmp/$1-cold.$ext" "$tmp/$1-$2.$ext"
    done
}

for only in "" smt vpred; do
    name=${only:-default}
    run "$name" cold "$only"
    run "$name" warm "$only"
    same "$name" warm
    if ! grep -q '(0 simulated' "$tmp/$name-warm.log"; then
        echo "experiments_smoke: warm $name run simulated cells" >&2
        cat "$tmp/$name-warm.log" >&2
        exit 1
    fi
    # A crash that lost 5 cache entries: the rerun resumes those cells.
    find "$tmp/$name-cache" -name '*.json' | sort | head -n 5 | while read -r f; do
        rm -f "$f"
    done
    run "$name" resumed "$only"
    same "$name" resumed
    if grep -q '(0 simulated' "$tmp/$name-resumed.log"; then
        echo "experiments_smoke: resumed $name run did not re-simulate the lost cells" >&2
        exit 1
    fi
    # The resumed default run re-simulates from the traces the cold run
    # persisted: no VM run, and at least one trace read from disk.
    if [ "$name" = default ] &&
        ! grep -Eq 'traces: 0 VM runs, [0-9]+ memory hits, [1-9][0-9]* disk hits' "$tmp/$name-resumed.log"; then
        echo "experiments_smoke: resumed $name run did not reuse the persisted traces" >&2
        cat "$tmp/$name-resumed.log" >&2
        exit 1
    fi
    echo "experiments_smoke: $name cold, warm and resumed runs byte-identical"
done
echo "experiments_smoke: ok"
