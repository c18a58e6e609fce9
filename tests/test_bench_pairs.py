"""The pair runner alternates sides, counts wins and applies the gain rule."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(rate, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "metrics": {
        "setup_s": {"value": 0.3, "unit": "s"},
        "peak_rss_mb": {"value": 45.0, "unit": "MB"},
        "verdicts_per_s": {"value": rate, "unit": "1/s"}}}


def _run(tmp_path, capsys, rates, **result):
    tool = _tool()
    calls = []

    def fake(root, workload, seed, seconds):
        side = "parent" if root == str(tmp_path) else "change"
        calls.append((side, seed))
        return _result(rates[side][seed - 7], **result)

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
