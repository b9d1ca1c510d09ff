#!/usr/bin/env bash
# bench_ab.sh — paired A/B of the repository benchmark (BENCHMARK.json)
# between a parent ref and the working tree.
#
# Usage:
#   scripts/bench_ab.sh [ref] [pairs] [seed]
#
# Defaults: ref=HEAD~1, pairs=10, seed=1. Pass HEAD as ref to measure
# uncommitted edits against the commit they sit on.
#
# The parent is checked out in a temporary git worktree, so the change side
# is the working tree as it stands, uncommitted edits included. Workloads,
# run length, end-to-end metrics, their direction and their bounds all come
# from BENCHMARK.json. Each pair runs every workload once per side, on the
# same seed with tracing off; the side that runs first swaps every pair, so
# drift in machine load hits both sides alike. Every result line is appended
# to .bench_build/ab/collected.jsonl, tagged with run, pair, side, workload.
#
# Per workload and metric the summary prints both medians, change/parent,
# the pairs the change won (ties count for neither), the parent's spread
# (q3 - q1) / median, and any move past the metric's bound. The exit status
# is 1 if a run failed, an op failed, or a metric got worse past its bound.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
REF="${1:-HEAD~1}"
PAIRS="${2:-10}"
SEED="${3:-1}"

if ! git rev-parse --verify --quiet "$REF^{commit}" >/dev/null; then
    echo "bench_ab: ref '$REF' does not resolve to a commit" >&2
    exit 1
fi

mkdir -p .bench_build/ab
BASE="$(mktemp -d "$ROOT/.bench_build/ab/base.XXXXXX")"
trap 'git worktree remove --force "$BASE" 2>/dev/null || rm -rf "$BASE"; git worktree prune' EXIT
git worktree add --quiet --detach "$BASE" "$REF"

python3 - "$BASE" "$ROOT" "$(git rev-parse --short "$REF")" "$PAIRS" "$SEED" <<'PY'
import json, statistics, subprocess, sys, time

base, change, ref, pairs, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
bench = json.load(open(change + "/BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]
dirs = {"parent": base, "change": change}
run_id = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
log = open(change + "/.bench_build/ab/collected.jsonl", "a")
results = {}  # (workload, side) -> [result or None per pair]
hosts = set()


def run(side, workload, pair):
    args = bench["command"] + ["--workload", workload, "--seed", seed,
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    print("bench_ab: pair %d/%d %s %s" % (pair + 1, pairs, workload, side), file=sys.stderr, flush=True)
    proc = subprocess.run(args, cwd=dirs[side], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    res = None
    if proc.returncode == 0 and lines and not lines[-1].startswith("#"):
        res = json.loads(lines[-1])
    hosts.update(l[len("# host: "):] for l in lines if l.startswith("# host: "))
    rec = {"run": run_id, "ref": ref, "seed": int(seed), "pair": pair + 1, "side": side,
           "workload": workload, "exit": proc.returncode, "result": res}
    log.write(json.dumps(rec) + "\n")
    log.flush()
    results.setdefault((workload, side), []).append(res)


for pair in range(pairs):
    order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
    for workload in workloads:
        for side in order:
            run(side, workload, pair)

bad = False
print("A/B: parent %s vs working tree, %d pairs, seed %s, %d s runs, run %s"
      % (ref, pairs, seed, bench["run_seconds"], run_id))
for h in sorted(hosts):
    print("host: " + h)
for workload in workloads:
    print("\n%s" % workload)
    for side in ("parent", "change"):
        rs = results[(workload, side)]
        ok = [r for r in rs if r is not None]
        att, fail = sum(r["attempted"] for r in ok), sum(r["failed"] for r in ok)
        wrong = sum(1 for r in ok if not r["correct"])
        print("  %-6s runs: %d of %d ok; ops: %d attempted, %d failed; %d runs incorrect"
              % (side, len(ok), len(rs), att, fail, wrong))
        bad |= len(ok) < len(rs) or fail > 0 or wrong > 0
    print("  %-18s %12s %12s %8s %6s %7s %6s" % ("metric", "parent", "change", "ratio", "won", "spread", "bound"))
    for m in metrics:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        pv = [r["metrics"][name]["value"] if r and name in r["metrics"] else None
              for r in results[(workload, "parent")]]
        cv = [r["metrics"][name]["value"] if r and name in r["metrics"] else None
              for r in results[(workload, "change")]]
        pairs_ok = [(p, c) for p, c in zip(pv, cv) if p is not None and c is not None]
        if not pairs_ok:
            print("  %-18s no paired results" % name)
            continue
        ps, cs = [p for p, _ in pairs_ok], [c for _, c in pairs_ok]
        pm, cm = statistics.median(ps), statistics.median(cs)
        won = sum(1 for p, c in pairs_ok if (c > p if higher else c < p))
        spread = float("nan")
        if len(ps) > 1 and pm:
            q1, _, q3 = statistics.quantiles(ps, n=4)
            spread = (q3 - q1) / pm
        ratio = cm / pm if pm else float("nan")
        moved = ""
        if pm and abs(ratio - 1) > bound:
            worse = (ratio < 1) if higher else (ratio > 1)
            moved = "%s past %g" % ("WORSE" if worse else "better", bound)
            bad |= worse
        print(("  %-18s %12.6g %12.6g %8.4f %3d/%-2d %7.4f %6g  %s"
               % (name, pm, cm, ratio, won, len(pairs_ok), spread, bound, moved)).rstrip())
sys.exit(1 if bad else 0)
PY
