#!/bin/sh
# cluster_smoke.sh — boot a real cluster (one coordinator, two workers)
# plus a solo daemon from the built arvid binary, sweep the same small
# matrix and render the same artifact through both paths, and assert the
# distributed responses are byte-identical to the single-node ones, with
# every cell computed on a worker. The in-process cluster suite
# (internal/server's TestCluster*) covers the behaviour matrix; this
# script proves the wiring holds for real processes over real sockets.
#
# Run from the repository root: scripts/cluster_smoke.sh
set -eu

tmp=$(mktemp -d)
go build -o "$tmp/arvid" ./cmd/arvid

pids=""
cleanup() {
    for p in $pids; do kill "$p" 2> /dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

start() { # start <name> <flags...>
    name=$1
    shift
    "$tmp/arvid" "$@" 2> "$tmp/$name.log" &
    pids="$pids $!"
}

wait_healthy() { # wait_healthy <port>
    i=0
    while [ "$i" -lt 50 ]; do
        if curl -sf "http://127.0.0.1:$1/healthz" > /dev/null; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.2
    done
    echo "cluster_smoke: daemon on :$1 never became healthy" >&2
    return 1
}

start solo -addr 127.0.0.1:8750 -cache "$tmp/solo-cache"
start w1 -role worker -addr 127.0.0.1:8751 -cache "$tmp/w1-cache"
start w2 -role worker -addr 127.0.0.1:8752 -cache "$tmp/w2-cache"
start coord -role coordinator -addr 127.0.0.1:8753 \
    -workers-list http://127.0.0.1:8751,http://127.0.0.1:8752 \
    -cache "$tmp/coord-cache"
for port in 8750 8751 8752 8753; do
    wait_healthy "$port"
done

# A 16-cell grid: 2 benches x 2 depths x the full mode set.
body='{"benches":["li","gcc"],"depths":[20,40],"max_insts":20000}'

remote_jobs() { # remote_jobs: the coordinator's remote_jobs counter
    curl -sf http://127.0.0.1:8753/healthz | sed -n 's/.*"remote_jobs": \([0-9]*\).*/\1/p'
}

no_coord_sims() { # no_coord_sims <failure message>: the coordinator has simulated nothing
    curl -sf http://127.0.0.1:8753/healthz > "$tmp/health.json"
    if ! grep -q '"simulated": 0,' "$tmp/health.json"; then
        echo "cluster_smoke: $1" >&2
        cat "$tmp/health.json" >&2
        exit 1
    fi
}

curl -sf -d "$body" http://127.0.0.1:8750/v1/matrix > "$tmp/single.json"
curl -sf -d "$body" http://127.0.0.1:8753/v1/matrix > "$tmp/dist.json"
cmp "$tmp/single.json" "$tmp/dist.json"
echo "cluster_smoke: distributed matrix byte-identical to single-node"
cold_remote=$(remote_jobs)

# Warm repeat: still byte-identical, now answered from the coordinator's
# own cache, which kept every worker answer of the cold sweep: no job
# goes to a worker.
curl -sf -d "$body" http://127.0.0.1:8753/v1/matrix > "$tmp/dist-warm.json"
cmp "$tmp/single.json" "$tmp/dist-warm.json"
warm_remote=$(remote_jobs)
if [ -z "$cold_remote" ] || [ "$warm_remote" != "$cold_remote" ]; then
    echo "cluster_smoke: warm repeat placed jobs: remote_jobs $cold_remote after the cold sweep, $warm_remote after the warm one" >&2
    exit 1
fi
echo "cluster_smoke: warm repeat answered from the coordinator's cache ($warm_remote remote jobs, unchanged)"

# The coordinator really fanned out (its health reports remote jobs) and
# never had to fall back to computing locally.
curl -sf http://127.0.0.1:8753/healthz > "$tmp/health.json"
if grep -q '"remote_jobs": 0,' "$tmp/health.json"; then
    echo "cluster_smoke: coordinator reports zero remote jobs" >&2
    cat "$tmp/health.json" >&2
    exit 1
fi
if ! grep -q '"local_jobs": 0' "$tmp/health.json"; then
    echo "cluster_smoke: coordinator fell back to local compute with healthy workers" >&2
    cat "$tmp/health.json" >&2
    exit 1
fi

# Streaming: 16 cell lines plus the mandatory trailer.
curl -sf -d "$body" 'http://127.0.0.1:8753/v1/matrix?stream=1' > "$tmp/stream.ndjson"
lines=$(wc -l < "$tmp/stream.ndjson")
if [ "$lines" -ne 17 ]; then
    echo "cluster_smoke: stream has $lines lines, want 17 (16 cells + trailer)" >&2
    exit 1
fi
tail -n 1 "$tmp/stream.ndjson" | grep -q '"done"'

# Artifacts fan out like sweeps: the coordinator's fig5b is the solo
# daemon's, byte for byte, and the coordinator simulated nothing itself.
curl -sf 'http://127.0.0.1:8750/v1/artifacts/fig5b?n=20000' > "$tmp/single-fig5b.txt"
curl -sf 'http://127.0.0.1:8753/v1/artifacts/fig5b?n=20000' > "$tmp/dist-fig5b.txt"
cmp "$tmp/single-fig5b.txt" "$tmp/dist-fig5b.txt"
no_coord_sims "coordinator simulated cells itself with healthy workers"
echo "cluster_smoke: distributed fig5b byte-identical to single-node, all cells on workers"

# A /v1/run always runs on the daemon it is sent to, and a daemon's cache
# serves only that daemon. The coordinator's own /v1/run of a swept cell
# is answered from the entry it kept, byte-identical to the solo
# daemon's, so the coordinator still simulates nothing.
run='{"bench":"li","depth":20,"mode":"arvi-current","max_insts":20000}'
curl -sf -d "$run" http://127.0.0.1:8750/v1/run > "$tmp/single-run.json"
curl -sf -d "$run" http://127.0.0.1:8753/v1/run > "$tmp/dist-run.json"
cmp "$tmp/single-run.json" "$tmp/dist-run.json"
no_coord_sims "coordinator simulated a /v1/run of a cell it kept"
echo "cluster_smoke: coordinator /v1/run answered from its kept entry"

echo "cluster_smoke: ok"
