#!/bin/sh
# experiments_smoke.sh — run cmd/experiments cold, warm, and resumed
# after a simulated crash, and assert every file each run writes (the
# text tables, the -csv and the -json export) is byte-identical to the
# cold run's, for the default run and the two Section 3 studies
# (-only smt, -only vpred). A warm run must also simulate nothing, and no
# run may execute the VM more than once per benchmark (at most 8 "VM
# runs": traces live in memory, one recording per benchmark per process).
# The cold default run must simulate each of its 180 cells once. Last,
# it starts arvid on a free loopback port and asserts that every
# GET /v1/artifacts/{name} body is the `experiments -only {name} -out`
# file, byte for byte.
#
# Run from the repository root: scripts/experiments_smoke.sh
set -eu

tmp=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2> /dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM
go build -o "$tmp/experiments" ./cmd/experiments
go build -o "$tmp/arvid" ./cmd/arvid

run() { # run <name> <pass> <only>
    "$tmp/experiments" -n 2000 -only "$3" \
        -cache "$tmp/$1-cache" \
        -out "$tmp/$1-$2.txt" -csv "$tmp/$1-$2.csv" -json "$tmp/$1-$2.json" \
        2> "$tmp/$1-$2.log"
}

same() { # same <name> <pass>: the pass wrote the cold run's bytes
    for ext in txt csv json; do
        cmp "$tmp/$1-cold.$ext" "$tmp/$1-$2.$ext"
    done
}

recorded_once() { # recorded_once <name> <pass>: at most one VM run per benchmark
    vm=$(sed -n 's/.*traces: \([0-9][0-9]*\) VM runs.*/\1/p' "$tmp/$1-$2.log")
    if [ -z "$vm" ] || [ "$vm" -gt 8 ]; then
        echo "experiments_smoke: $2 $1 run logged ${vm:-no} VM runs, want at most 8" >&2
        cat "$tmp/$1-$2.log" >&2
        exit 1
    fi
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
    for pass in cold warm resumed; do
        recorded_once "$name" "$pass"
    done
    echo "experiments_smoke: $name cold, warm and resumed runs byte-identical"
done

# The artifacts' cells overlap (fig5a, fig5b, conf=8 and full-chain are
# fig6 cells): a cold default run simulates each cell once, so nothing
# comes from the cache it is writing.
if ! grep -q '(180 simulated, 0 from cache)' "$tmp/default-cold.log"; then
    echo "experiments_smoke: cold default run did not simulate 180 distinct cells" >&2
    cat "$tmp/default-cold.log" >&2
    exit 1
fi

# arvid on a free loopback port: skip ports something answers on, and
# move on when the daemon exits (it could not bind) or never answers.
port=$((20000 + $$ % 20000))
up=""
tries=0
while [ -z "$up" ] && [ "$tries" -lt 20 ]; do
    tries=$((tries + 1))
    port=$((port + 1))
    if curl -s -o /dev/null "http://127.0.0.1:$port/"; then
        continue
    fi
    "$tmp/arvid" -addr "127.0.0.1:$port" -cache "$tmp/arvid-cache" \
        2> "$tmp/arvid.log" &
    pid=$!
    i=0
    while [ "$i" -lt 50 ] && kill -0 "$pid" 2> /dev/null; do
        if curl -sf "http://127.0.0.1:$port/healthz" > /dev/null; then
            up=1
            break
        fi
        i=$((i + 1))
        sleep 0.2
    done
    if [ -z "$up" ]; then
        kill "$pid" 2> /dev/null || true
        pid=""
    fi
done
if [ -z "$up" ]; then
    echo "experiments_smoke: arvid never became healthy" >&2
    cat "$tmp/arvid.log" >&2
    exit 1
fi
for name in table2 table4 fig5a fig5b fig6 sweep-conf sweep-cut; do
    "$tmp/experiments" -n 2000 -only "$name" -cache "$tmp/art-cache" \
        -out "$tmp/$name-cli.txt" 2> /dev/null
    curl -sf "http://127.0.0.1:$port/v1/artifacts/$name?n=2000" > "$tmp/$name-http.txt"
    cmp "$tmp/$name-cli.txt" "$tmp/$name-http.txt"
done
echo "experiments_smoke: every /v1/artifacts body equals the experiments -only file"
echo "experiments_smoke: ok"
