"""Per-layer metrics of a traced run, each per round of the workload.

``*.calls`` counts calls, ``*.self_s`` is span time minus child spans
(summed over the round), ``*.points`` counts the work items handed to a
layer.  The ``setup.import_*`` metrics come from run.py (``python -X
importtime``), the rest from the tracer.
"""

from __future__ import annotations

from pathlib import Path


def _per_round(tr, rounds):
    def calls(name):
        return tr.stat(name, "calls") / rounds

    def self_s(name):
        return tr.stat(name, "self_s") / rounds

    def total_s(name):
        return tr.stat(name, "total_s") / rounds

    def points(name):
        return tr.stat(name, "points") / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    return calls, self_s, total_s, points, ratio


def table(tr, rounds, csv_bytes, verdicts_per_s):
    """(name, unit, value) for every traced per-layer metric."""
    calls, self_s, total_s, points, ratio = _per_round(tr, rounds)
    steps = tr.steps_in
    return [
        ("config.load_config.calls", "count", calls("config.load_config")),
        ("config.load_config.self_s", "s", self_s("config.load_config")),
        ("cli.main.calls", "count", calls("cli.main")),
        ("cli.main.self_s", "s", self_s("cli.main")),
        ("cli.csv_bytes", "bytes", csv_bytes),
        ("transform.alpha.calls", "count", calls("transform.alpha")),
        ("transform.alpha.points", "count", points("transform.alpha")),
        ("transform.alpha.self_s", "s", self_s("transform.alpha")),
        ("transform.correction_c.calls", "count", calls("transform.correction_c")),
        ("transform.correction_c.self_s", "s", self_s("transform.correction_c")),
        ("transform.f_transform_case.calls", "count",
         calls("transform.f_transform_case")),
        ("transform.f_transform_case.self_s", "s",
         self_s("transform.f_transform_case")),
        ("transform.f_transform_series.calls", "count",
         calls("transform.f_transform_series")),
        ("transform.f_transform_series.self_s", "s",
         self_s("transform.f_transform_series")),
        ("transform.f_transform_series.failed", "count",
         tr.stat("transform.f_transform_series", "failed") / rounds),
        ("tf.RationalTF.call.calls", "count", calls("tf.RationalTF.call")),
        ("tf.RationalTF.call.points", "count", points("tf.RationalTF.call")),
        ("tf.RationalTF.call.self_s", "s", self_s("tf.RationalTF.call")),
        ("schemes.loop_gain_hf.calls", "count", calls("schemes.loop_gain_hf")),
        ("schemes.closed_form_lvalue.calls", "count",
         calls("schemes.closed_form_lvalue")),
        ("schemes.closed_form_lvalue.self_s", "s",
         self_s("schemes.closed_form_lvalue")),
        ("schemes.duty_ratio.calls", "count", calls("schemes.duty_ratio")),
        ("schemes.lplot.calls", "count", calls("schemes.lplot")),
        ("schemes.lplot.self_s", "s", self_s("schemes.lplot")),
        ("schemes.lplot.lvalues_per_curve", "count",
         ratio(points("schemes.lplot"), calls("schemes.lplot"))),
        ("schemes.solve_critical.calls", "count", calls("schemes.solve_critical")),
        ("schemes.solve_critical.self_s", "s", self_s("schemes.solve_critical")),
        ("schemes.contour_data.points", "count", points("schemes.contour_data")),
        ("schemes.contour_data.self_s", "s", self_s("schemes.contour_data")),
        ("schemes.bisect.calls", "count", calls("schemes.bisect")),
        ("schemes.brentq.calls", "count", calls("schemes.brentq")),
        ("schemes.root_s", "s",
         total_s("schemes.bisect") + total_s("schemes.brentq")),
        ("simulation.CycleEngine.step.calls", "count",
         calls("simulation.CycleEngine.step")),
        ("simulation.CycleEngine.step.self_s", "s",
         self_s("simulation.CycleEngine.step")),
        ("simulation.brentq.calls", "count", calls("simulation.brentq")),
        ("simulation.brentq.self_s", "s", self_s("simulation.brentq")),
        ("simulation.CycleEngine.step_dense.calls", "count",
         calls("simulation.CycleEngine.step_dense")),
        ("simulation.CycleEngine.step_dense.self_s", "s",
         self_s("simulation.CycleEngine.step_dense")),
        ("simulation.simulate.calls", "count", calls("simulation.simulate")),
        ("simulation.simulate.cycles", "count", points("simulation.simulate")),
        ("simulation.simulate.self_s", "s", self_s("simulation.simulate")),
        ("simulation.build_closed_loop.calls", "count",
         calls("simulation.build_closed_loop")),
        ("simulation.build_closed_loop.self_s", "s",
         self_s("simulation.build_closed_loop")),
        ("simulation.CycleEngine.builds", "count",
         calls("simulation.CycleEngine.init")),
        ("simulation.CycleEngine.build_s", "s",
         total_s("simulation.CycleEngine.init")),
        ("simulation.expm.calls", "count", calls("simulation.expm")),
        ("simulation.expm.self_s", "s", self_s("simulation.expm")),
        ("simulation.steady_state.calls", "count", calls("simulation.steady_state")),
        ("simulation.steady_state.self_s", "s", self_s("simulation.steady_state")),
        ("simulation.steady_state.steps_per_solve", "count",
         ratio(steps["simulation.steady_state"],
               tr.stat("simulation.steady_state", "calls"))),
        ("simulation.steady_state.cold_starts", "count",
         points("simulation.steady_state")),
        ("simulation.cycle_jacobian.calls", "count",
         calls("simulation.cycle_jacobian")),
        ("simulation.cycle_jacobian.self_s", "s",
         self_s("simulation.cycle_jacobian")),
        ("sampled.poincare_jacobian.calls", "count",
         calls("sampled.poincare_jacobian")),
        ("sampled.poincare_jacobian.self_s", "s",
         self_s("sampled.poincare_jacobian")),
        ("sampled.linear_sum_assignment.calls", "count",
         calls("sampled.linear_sum_assignment")),
        ("sampled.linear_sum_assignment.self_s", "s",
         self_s("sampled.linear_sum_assignment")),
        ("sampled.pole_trajectory.calls", "count", calls("sampled.pole_trajectory")),
        ("sampled.pole_trajectory.self_s", "s", self_s("sampled.pole_trajectory")),
        ("sampled.pole_trajectory.points", "count",
         points("sampled.pole_trajectory")),
        ("sampled.pole_trajectory.steps_per_point", "count",
         ratio(steps["sampled.pole_trajectory"],
               tr.stat("sampled.pole_trajectory", "points"))),
        ("sampled.poles.calls", "count", calls("sampled.poles")),
        ("sampled.poles.self_s", "s", self_s("sampled.poles")),
        ("trace.verdicts_per_s", "1/s", verdicts_per_s),
    ]


def metrics(tr, rounds, ops, verdicts_per_s):
    """Per-layer metrics as the JSON result holds them; CSV bytes are one round's."""
    csv_bytes = sum(Path(path).stat().st_size for op in ops for path in op.outputs
                    if Path(path).exists())
    return {name: {"value": value, "unit": unit}
            for name, unit, value in table(tr, rounds, csv_bytes, verdicts_per_s)}
