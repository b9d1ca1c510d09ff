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
#
# Code placement moves these metrics on its own (a hot loop's 64-byte phase
# has moved compress by 12%), so once both sides have built, the summary
# also lists every text symbol of internal/kernels and internal/core, the
# root package's stream code (the PipeWriter and PipeReader methods,
# frameReader.next, and the CompressInto/DecompressInto instantiations
# the linker kept), plus datagen.genField, with its address and 64-byte
# phase on each side (go tool nm of each side's .bench_build/perfbench),
# and flags the symbols whose phase moved. Data placement moves with edits
# far from any code (a new package-level variable, or the binary's VCS
# stamp), so a second table does the same for every data and bss symbol of
# internal/core, internal/kernels, telemetry and the root package, and the
# summary prints each binary's module and vcs.* build lines (go version
# -m). Both tables and the build lines are appended to collected.jsonl.
# The parent's worktree keeps its .git as a file, which Go's VCS stamping
# does not take for a repository root, so both binaries carry the stamp of
# the checkout this script runs in: the lines match on both sides and name
# that checkout, not the ref.
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


TEXT_PREFIXES = ("repro/internal/kernels.", "repro/internal/core.",
                 "repro.(*PipeWriter).", "repro.(*PipeReader).",
                 "repro.CompressInto[", "repro.compressInto[", "repro.DecompressInto[")
TEXT_NAMES = ("repro/internal/datagen.genField", "repro.(*frameReader).next")
DATA_PREFIXES = ("repro/internal/core.", "repro/internal/kernels.", "repro/telemetry.", "repro.")


def rows_of(table):
    return [{"symbol": name, "parent": sides.get("parent"), "change": sides.get("change"),
             "moved": len(sides) == 2 and sides["parent"] % 64 != sides["change"] % 64}
            for name, sides in sorted(table.items(), key=lambda kv: min(kv[1].values()))]


def placement():
    """Address per side of the hot text symbols and of the codec packages'
    data symbols, plus each binary's module and VCS build lines."""
    text, data, stamp = {}, {}, {}
    for side in ("parent", "change"):
        binary = dirs[side] + "/.bench_build/perfbench"
        proc = subprocess.run(["go", "tool", "nm", "-size", "-sort", "address", binary],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        for line in proc.stdout.splitlines():
            f = line.split(None, 3)
            if len(f) != 4:
                continue
            if f[2] in ("T", "t") and (f[3].startswith(TEXT_PREFIXES) or f[3] in TEXT_NAMES):
                text.setdefault(f[3], {})[side] = int(f[0], 16)
            elif f[2] in ("D", "d", "B", "b") and f[3].startswith(DATA_PREFIXES):
                data.setdefault(f[3], {})[side] = int(f[0], 16)
        proc = subprocess.run(["go", "version", "-m", binary],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        stamp[side] = []
        for line in proc.stdout.splitlines():
            f = line.split()
            if f[:1] == ["mod"] or (f[:1] == ["build"] and f[1].startswith("vcs")):
                stamp[side].append(" ".join(f))
    text, data = rows_of(text), rows_of(data)
    log.write(json.dumps({"run": run_id, "ref": ref, "placement": text,
                          "data_placement": data, "build": stamp}) + "\n")
    log.flush()
    return text, data, stamp


layout, data_layout, stamp = [], [], {}
for pair in range(pairs):
    order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
    for workload in workloads:
        for side in order:
            run(side, workload, pair)
    if pair == 0:
        layout, data_layout, stamp = placement()

bad = False
print("A/B: parent %s vs working tree, %d pairs, seed %s, %d s runs, run %s"
      % (ref, pairs, seed, bench["run_seconds"], run_id))
for h in sorted(hosts):
    print("host: " + h)
for side in ("parent", "change"):
    for l in stamp.get(side, []):
        print("%s build: %s" % (side, l))


def print_table(title, rows):
    moved = sum(1 for row in rows if row["moved"])
    print("\n%s (address/phase, phase = address mod 64; - = absent): %d of %d moved phase"
          % (title, moved, len(rows)))
    for row in rows:
        cells = ["%x/%d" % (row[s], row[s] % 64) if row[s] is not None else "-" for s in ("parent", "change")]
        short = row["symbol"].removeprefix("repro/internal/").removeprefix("repro.")
        print(("  %-72s %12s %12s  %s" % (short, cells[0], cells[1],
                                           "MOVED" if row["moved"] else "")).rstrip())


print_table("text placement", layout)
print_table("data placement", data_layout)
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
