"""The pair runner alternates sides, counts wins and applies the gain rule."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(rate, correct=True, failed=0, setup=0.3, rss=45.0):
    return {"correct": correct, "failed": failed, "metrics": {
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "verdicts_per_s": {"value": rate, "unit": "1/s"}}}


def _run(tmp_path, capsys, rates, others=None, **result):
    # others[side] optionally gives each run's (setup_s, peak_rss_mb)
    tool = _tool()
    calls = []

    def fake(root, workload, seed, seconds):
        side = "parent" if root == str(tmp_path) else "change"
        calls.append((side, seed))
        extra = {}
        if others is not None:
            extra = dict(zip(("setup", "rss"), others[side][seed - 7]))
        return _result(rates[side][seed - 7], **result, **extra)

    tool.run_once = fake
    code = tool.main([str(tmp_path), "--workload", "oracle", "--seed", "7",
                      "--pairs", str(len(rates["parent"])), "--seconds", "1"])
    return code, calls, capsys.readouterr().out.splitlines()


def test_sides_alternate_and_a_clear_win_may_be_claimed(tmp_path, capsys):
    rates = {"parent": [100.0, 101.0, 99.0, 100.0], "change": [120.0, 121.0, 119.0, 120.0]}
    code, calls, out = _run(tmp_path, capsys, rates)
    assert code == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]
    assert "wins on verdicts_per_s: change 4, parent 0, of 4 pairs" in out
    assert out[-1].endswith("gain may be claimed")


def test_ties_count_for_neither_side_and_a_narrow_gap_is_no_gain(tmp_path, capsys):
    rates = {"parent": [100.0, 90.0, 110.0, 100.0], "change": [100.0, 95.0, 112.0, 101.0]}
    code, _, out = _run(tmp_path, capsys, rates)
    assert code == 0
    assert "wins on verdicts_per_s: change 3, parent 0, of 4 pairs" in out
    # 3 of 4 pairs is under nine tenths
    assert out[-1].endswith("gain may not be claimed")


def test_a_run_with_failed_operations_sets_the_exit_code(tmp_path, capsys):
    rates = {"parent": [100.0, 100.0], "change": [120.0, 120.0]}
    code, _, out = _run(tmp_path, capsys, rates, failed=1)
    assert code == 1
    assert any("RUN NOT CLEAN" in line for line in out)


def test_setup_and_memory_are_judged_by_their_direction_against_the_parent_iqr(
        tmp_path, capsys):
    rates = {"parent": [100.0, 101.0, 99.0, 100.0], "change": [120.0, 121.0, 119.0, 120.0]}
    # setup_s: the change's median 0.4 is 0.1 above the parent's 0.3, whose
    # IQR is 0.02; peak_rss_mb: the change's is lower, which is better
    others = {"parent": [(0.29, 45.0), (0.31, 46.0), (0.30, 44.0), (0.30, 45.0)],
              "change": [(0.40, 40.0), (0.41, 41.0), (0.39, 39.0), (0.40, 40.0)]}
    code, _, out = _run(tmp_path, capsys, rates, others)
    assert code == 0
    setup = next(line for line in out if line.startswith("setup_s (lower is better)"))
    rss = next(line for line in out if line.startswith("peak_rss_mb (lower is better)"))
    assert setup.endswith("; worse by more than the parent's IQR")
    assert rss.endswith("; not worse by more than the parent's IQR")
    assert out.index(setup) < len(out) - 1 and out.index(rss) < len(out) - 1
    assert out[-1].endswith("gain may be claimed")


def test_a_change_within_the_parent_iqr_is_not_worse(tmp_path, capsys):
    rates = {"parent": [100.0, 101.0, 99.0, 100.0], "change": [100.0, 101.0, 99.0, 100.0]}
    # a slightly higher setup_s, inside the parent's spread of 0.1
    others = {"parent": [(0.25, 45.0), (0.35, 45.0), (0.20, 45.0), (0.40, 45.0)],
              "change": [(0.31, 45.0), (0.32, 45.0), (0.30, 45.0), (0.33, 45.0)]}
    code, _, out = _run(tmp_path, capsys, rates, others)
    assert code == 0
    judged = [line for line in out if "by more than the parent's IQR" in line]
    assert len(judged) == 2
    assert all(line.endswith("; not worse by more than the parent's IQR")
               for line in judged)
    assert out[-1].endswith("gain may not be claimed")
