"""One run of one workload in a fresh interpreter (started by run.py).

Set-up (imports, configs, inputs) ends with a ``READY <perf_counter>
<probe seconds>`` line, so the parent can time the interpreter's whole
start.  Then whole rounds run until ``--seconds`` of round time have
passed; only the operations themselves are inside the round clock, and
each stretch of about PROBE_EVERY_S of them is rescaled by the mean of the
host-speed probes taken right before and right after it (probe.py).  The first round's answers are
checked afterwards, and every later round must repeat them exactly.  The
last line of stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 0.2


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import subharmonic  # noqa: F401  (set-up includes the package import)
    import subharmonic.cli  # noqa: F401
    import workloads

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, ROOT / "configs", out_dir)
    ready = time.perf_counter()
    print(f"READY {ready!r} {probe.probe(5)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    first, first_digest = [], []
    round_s, round_raw_s, mismatched = [], [], set()
    spent = 0.0
    while spent < args.seconds:
        results = []
        raw = scaled = stretch = 0.0
        before = probe.probe(3)
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                results.append(op.run())
            except Exception as exc:  # an operation that raises has failed
                results.append(exc)
            stretch += time.perf_counter() - t0
            if stretch >= PROBE_EVERY_S or k == len(ops) - 1:
                after = probe.probe(3)
                scaled += stretch * probe.NOMINAL_S / (0.5 * (before + after))
                raw += stretch
                stretch, before = 0.0, after
        round_s.append(scaled)
        round_raw_s.append(raw)
        spent += raw
        for i, (op, res) in enumerate(zip(ops, results)):
            d = (f"raised {type(res).__name__}: {res}" if isinstance(res, Exception)
                 else workloads.digest(workloads.collect(op, res)))
            if not first:
                first_digest.append(d)
            elif d != first_digest[i]:
                mismatched.add(i)
        if not first:
            first = results
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed_ops, problems = set(mismatched), []
    for i, (op, res) in enumerate(zip(ops, first)):
        if isinstance(res, Exception):
            found = [f"raised {type(res).__name__}: {res}"]
        else:
            try:
                found = op.check(res)
            except Exception as exc:  # a check that cannot read the answer fails it
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if i in mismatched:
            found.append("answer changed between rounds")
        if found:
            failed_ops.add(i)
            if not op.expect_fail or i in mismatched:
                problems += [f"{op.name}: {p}" for p in found]
    if args.workload == "oracle":
        problems += _validate_reference(args.seed)

    rounds = len(round_s)
    passed = len(ops) - len(failed_ops)
    summary = {
        "correct": not problems,
        "problems": problems[:20],
        "ops_per_round": len(ops),
        "failed_per_round": len(failed_ops),
        "rounds": rounds,
        "round_s": round_s,
        "verdicts_per_s": passed / statistics.median(round_s),
        "raw_verdicts_per_s": passed / statistics.median(round_raw_s),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        import layers

        summary["layers"] = layers.metrics(tracer, rounds, ops, summary["verdicts_per_s"])
        tracer.write_spans(out_dir / "trace_spans.csv")
    print(json.dumps(summary), flush=True)
    return 0


def _validate_reference(seed):
    """One catalog closed form of the reference against its direct series sum."""
    from fractions import Fraction

    import mpmath as mp
    import reference

    cid = reference.CASES[seed % len(reference.CASES)]
    kw = {}
    if cid in reference.NEEDS_P:
        kw["p"] = 0.05
    if cid in reference.NEEDS_Z:
        kw["z"] = 0.8
    D = Fraction(1, 4)
    T, t_inf = reference.shape(cid, 2 * mp.pi, **kw)
    direct = reference.series_direct(T, t_inf, D, 2 * mp.pi)
    closed = reference.catalog(cid, mp.mpf(1) / 4, 2 * mp.pi, **kw)
    if abs(direct - closed) > mp.mpf(10) ** -30:
        return [f"reference {cid} off its direct series by {mp.nstr(abs(direct - closed), 3)}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
