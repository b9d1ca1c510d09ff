#!/usr/bin/env bash
# bench_ab.sh — interleaved A/B of the codec hot-path benchmarks between the
# working tree (B) and a baseline git ref (A).
#
# Usage:
#   scripts/bench_ab.sh [baseline-ref] [rounds] [benchtime]
#
# Defaults: baseline-ref=HEAD~1, rounds=5, benchtime=1s.
#
# The baseline is materialized in a temporary git worktree so the working
# tree (including uncommitted changes) is never touched. Rounds alternate
# A,B,A,B,... rather than running all of A then all of B, so slow drift in
# machine load (thermal, background daemons) hits both sides equally.
#
# Results go through benchstat when it is on PATH; otherwise a small awk
# comparator prints per-benchmark means and the B/A throughput ratio.
set -euo pipefail

cd "$(dirname "$0")/.."

REF="${1:-HEAD~1}"
ROUNDS="${2:-5}"
BENCHTIME="${3:-1s}"
PATTERN="${BENCH_PATTERN:-BenchmarkCore(Compress|Decompress)(Parallel)?Into}"

if ! git rev-parse --verify --quiet "$REF^{commit}" >/dev/null; then
    echo "bench_ab: baseline ref '$REF' does not resolve to a commit" >&2
    exit 1
fi

work="$(mktemp -d)"
trap 'git worktree remove --force "$work/base" 2>/dev/null || true; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/base" "$REF"

A="$work/a.txt" # baseline
B="$work/b.txt" # working tree
: >"$A"
: >"$B"

echo "bench_ab: baseline=$(git rev-parse --short "$REF") rounds=$ROUNDS benchtime=$BENCHTIME" >&2
for ((i = 1; i <= ROUNDS; i++)); do
    echo "bench_ab: round $i/$ROUNDS (A: baseline)" >&2
    (cd "$work/base" && go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" ./internal/core) >>"$A"
    echo "bench_ab: round $i/$ROUNDS (B: working tree)" >&2
    go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" ./internal/core >>"$B"
done

if command -v benchstat >/dev/null 2>&1; then
    benchstat "old=$A" "new=$B"
else
    echo "bench_ab: benchstat not found; falling back to mean comparison" >&2
    awk '
        FNR == 1 { file++ }
        /^Benchmark/ {
            for (i = 3; i <= NF; i++) {
                if ($i == "MB/s") {
                    name = $1
                    mbs = $(i - 1)
                    if (file == 1) { asum[name] += mbs; an[name]++ }
                    else           { bsum[name] += mbs; bn[name]++ }
                    seen[name] = 1
                    break
                }
            }
        }
        END {
            printf "%-45s %12s %12s %8s\n", "benchmark", "old MB/s", "new MB/s", "ratio"
            for (name in seen) {
                if (an[name] && bn[name]) {
                    a = asum[name] / an[name]
                    b = bsum[name] / bn[name]
                    printf "%-45s %12.2f %12.2f %7.2fx\n", name, a, b, b / a
                }
            }
        }
    ' "$A" "$B" | sort
fi

# Wall-clock breakdown for the working tree: szxbench -obs interleaves
# telemetry-disabled/enabled rounds on the serial hot paths and reports the
# per-stage means from the telemetry timers alongside the overhead numbers,
# so an A/B run also says *where* the time goes. Skip with BENCH_OBS=0.
if [[ "${BENCH_OBS:-1}" != 0 ]]; then
    echo "bench_ab: telemetry overhead + stage breakdown (working tree)" >&2
    go run ./cmd/szxbench -obs - -benchtime "$BENCHTIME"
fi

# Streaming dump/load A/B for the working tree: serial Writer/Reader vs the
# pipelined engine over file, simulated-PFS, and balanced sinks (the
# BENCH_STREAM.json workload). Skip with BENCH_STREAM=0.
if [[ "${BENCH_STREAM:-1}" != 0 ]]; then
    echo "bench_ab: streaming serial-vs-pipelined A/B (working tree)" >&2
    go run ./cmd/szxbench -stream - -benchtime "$BENCHTIME"
fi

# Service A/B: the szxd load generator (the BENCH_SERVE.json workload) run
# interleaved between the baseline worktree and the working tree, same
# A,B,A,B discipline as the codec benchmarks. The headline comparison is
# the 1-client 8 MiB row (levels[0].mb_s) — the "batching must not tax
# large one-shot requests" guard — plus the working tree's small-payload
# oneshot-vs-batch64 ratios when present. Skip with BENCH_SERVE=0; rounds
# default to 3 (override with SERVE_ROUNDS) because each round runs the
# full level sweep on both sides.
if [[ "${BENCH_SERVE:-1}" != 0 ]]; then
    SERVE_ROUNDS="${SERVE_ROUNDS:-3}"
    echo "bench_ab: szxd service A/B (interleaved, $SERVE_ROUNDS rounds)" >&2
    for ((i = 1; i <= SERVE_ROUNDS; i++)); do
        echo "bench_ab: serve round $i/$SERVE_ROUNDS (A: baseline)" >&2
        (cd "$work/base" && go run ./cmd/szxbench -serve "$work/serve_a_$i.json" -benchtime "$BENCHTIME")
        echo "bench_ab: serve round $i/$SERVE_ROUNDS (B: working tree)" >&2
        go run ./cmd/szxbench -serve "$work/serve_b_$i.json" -benchtime "$BENCHTIME"
    done
    python3 - "$work" "$SERVE_ROUNDS" <<'PY'
import json, sys
work, rounds = sys.argv[1], int(sys.argv[2])

def rows(side):
    out = []
    for i in range(1, rounds + 1):
        try:
            out.append(json.load(open(f"{work}/serve_{side}_{i}.json")))
        except FileNotFoundError:
            pass
    return out

a, b = rows("a"), rows("b")
mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
am = mean([r["levels"][0]["mb_s"] for r in a])
bm = mean([r["levels"][0]["mb_s"] for r in b])
if am:
    print(f"serve 8 MiB one-shot (1 client): old {am:.2f} MB/s  new {bm:.2f} MB/s  "
          f"ratio {bm/am:.3f}x ({(bm/am-1)*100:+.1f}%)")
small = {}
for r in b:
    for lvl in r.get("small_levels", []):
        small.setdefault((lvl["size_bytes"], lvl["mode"]), []).append(lvl["arrays_per_s"])
for size in sorted({k[0] for k in small}):
    one = mean(small.get((size, "oneshot"), []))
    b64 = mean(small.get((size, "batch64"), []))
    if one and b64:
        print(f"serve {size >> 10:3d} KiB: oneshot {one:9.1f} arrays/s  "
              f"batch64 {b64:9.1f} arrays/s  ratio {b64/one:.2f}x")
PY
fi

# Fixed-ratio bound-search sweep for the working tree: target-ratio search
# over the synthetic corpus (the BENCH_RATIO.json workload) — probe counts,
# search time, convergence rate, achieved-vs-target error. Skip with
# BENCH_RATIO=0.
if [[ "${BENCH_RATIO:-1}" != 0 ]]; then
    echo "bench_ab: fixed-ratio bound-search sweep (working tree)" >&2
    go run ./cmd/szxbench -ratio BENCH_RATIO.json -scale 16
    python3 - <<'PY' 2>/dev/null || cat BENCH_RATIO.json
import json
r = json.load(open("BENCH_RATIO.json"))
print(f"ratio sweep: {r['cases']} cases, converged {100*r['converged_rate']:.1f}%, "
      f"mean probes {r['mean_probes']}, max {r['max_probes']}, "
      f"mean |achieved-target| {r['mean_abs_err_pct']}%")
PY
fi

# Cluster routing sweep for the working tree: 1- vs 3-node in-process
# fleets under hash / least-loaded routing (the BENCH_CLUSTER.json
# workload) — failed/shed/retry counts and p50/p99 per level. Skip with
# BENCH_CLUSTER=0.
if [[ "${BENCH_CLUSTER:-1}" != 0 ]]; then
    echo "bench_ab: cluster routing sweep (working tree)" >&2
    go run ./cmd/szxbench -cluster BENCH_CLUSTER.json -benchtime "$BENCHTIME"
    python3 - <<'PY' 2>/dev/null || cat BENCH_CLUSTER.json
import json
r = json.load(open("BENCH_CLUSTER.json"))
for l in r["levels"]:
    print(f"cluster {l['nodes']} node(s) {l['policy']:>12}: {l['requests']:4d} ok "
          f"{l['failed']:2d} failed  shed {l['shed']:3d}  retries {l['retries']:3d}  "
          f"p50 {l['p50_ms']:.1f}ms p99 {l['p99_ms']:.1f}ms  {l['mb_s']:.1f} MB/s")
PY
fi

# Kernel-level sweep for the working tree: per-kernel ns/block for the
# generic vs CPU-dispatched implementation sets plus the end-to-end serial
# A/B between them (the BENCH_KERNEL.json workload). Skip with
# BENCH_KERNEL=0.
if [[ "${BENCH_KERNEL:-1}" != 0 ]]; then
    echo "bench_ab: kernel generic-vs-dispatched sweep (working tree)" >&2
    go run ./cmd/szxbench -kernel BENCH_KERNEL.json -benchtime "$BENCHTIME"
fi
