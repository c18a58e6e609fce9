"""Run the benchmark in alternating pairs against another checkout.

    python tools/bench_pairs.py PARENT_DIR --workload oracle --seed 31 \
        --pairs 10 --seconds 20

Pair i runs ``python3 bench/run.py --workload W --seed S+i --seconds N
--trace 0`` once in PARENT_DIR (another checkout of the repository, e.g.
a ``git worktree`` of the parent commit) and once in the checkout this
file sits in; the side that runs first alternates from pair to pair.
Only the last line of each run's stdout is read: the JSON of end-to-end
metrics.

Prints every run's metrics with its ``correct`` flag and failed count,
each pair's winner on verdicts_per_s (higher is better; a tie counts for
neither side), the win count, and each side's median and quartiles of
every metric.  For every other end-to-end metric of ``BENCHMARK.json``
(setup_s, peak_rss_mb), read with its direction, it then says whether
the change's median is worse than the parent's by more than the
parent's interquartile range.  The last line says whether a gain in
verdicts_per_s may be claimed: the change wins at least nine tenths of
the pairs and its median beats the parent's by more than the parent's
interquartile range.  The exit code is 1 when a run failed or reported
``correct: false`` or failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "verdicts_per_s"


def directions() -> dict:
    """Each end-to-end metric's "better" ("lower" or "higher"), by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout ``root``; its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit code {proc.returncode}"}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}

    runs = {"parent": [], "change": []}
    wins = {"parent": 0, "change": 0}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            res = run_once(sides[side], args.workload, seed, args.seconds)
            got[side] = res
            runs[side].append(res)
            values = {k: v["value"] for k, v in res["metrics"].items()}
            good = res["correct"] and res["failed"] == 0
            ok = ok and good
            print(f"pair {i + 1} seed {seed} {side}: correct {res['correct']} "
                  f"failed {res['failed']} "
                  + " ".join(f"{k} {v:.6g}" for k, v in values.items())
                  + ("" if good else f"  RUN NOT CLEAN {res.get('error', '')}"),
                  flush=True)
        rate = {side: got[side]["metrics"].get(METRIC, {}).get("value", 0.0)
                for side in got}
        winner = ("change" if rate["change"] > rate["parent"]
                  else "parent" if rate["change"] < rate["parent"] else "tie")
        if winner != "tie":
            wins[winner] += 1
        print(f"pair {i + 1} winner on {METRIC}: {winner} (first ran {order[0]})",
              flush=True)

    print(f"wins on {METRIC}: change {wins['change']}, parent {wins['parent']}, "
          f"of {args.pairs} pairs")
    names = sorted({k for side in runs.values() for r in side for k in r["metrics"]})
    stats = {}
    for name in names:
        for side in ("parent", "change"):
            values = [r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]]
            if len(values) < 2:
                continue
            stats[side, name] = statistics.quantiles(values, n=4)
            q1, med, q3 = stats[side, name]
            print(f"{name} {side}: median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g}, "
                  f"IQR {q3 - q1:.6g}, n {len(values)}")
    for name, better in directions().items():
        if name == METRIC or not {("parent", name), ("change", name)} <= stats.keys():
            continue
        pq1, pmed, pq3 = stats["parent", name]
        cmed = stats["change", name][1]
        worse = (cmed - pmed if better == "lower" else pmed - cmed) > pq3 - pq1
        print(f"{name} ({better} is better): change median {cmed:.6g} vs parent "
              f"{pmed:.6g}, parent IQR {pq3 - pq1:.6g}; "
              + ("worse" if worse else "not worse")
              + " by more than the parent's IQR")
    if ("parent", METRIC) in stats and ("change", METRIC) in stats:
        pq1, pmed, pq3 = stats["parent", METRIC]
        cmed = stats["change", METRIC][1]
        claim = wins["change"] >= 0.9 * args.pairs and cmed - pmed > pq3 - pq1
        print(f"{METRIC}: change median {cmed:.6g} vs parent {pmed:.6g} "
              f"(x{cmed / pmed:.4g}), parent IQR {pq3 - pq1:.6g}; gain "
              + ("may be claimed" if claim else "may not be claimed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
