"""Spans and counts around the calls into each layer of ``subharmonic``.

The tracer wraps public functions from the outside: every module
attribute that holds the original function is replaced by a wrapper that
records one span (name, start, end, parent) and bumps the name's call
count.  Self time is a span's duration minus the durations of its child
spans.  Spans live in flat arrays while the run lasts and are written out
when it ends; nothing is installed unless the benchmark runs traced.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer name, module, attribute); "Class.method" patches the class
TARGETS = (
    ("config.load_config", "subharmonic.config", "load_config"),
    ("cli.main", "subharmonic.cli", "main"),
    ("transform.alpha", "subharmonic.transform", "alpha"),
    ("transform.correction_c", "subharmonic.transform", "correction_c"),
    ("transform.f_transform_case", "subharmonic.transform", "f_transform_case"),
    ("transform.f_transform_series", "subharmonic.transform", "f_transform_series"),
    ("tf.RationalTF.call", "subharmonic.tf", "RationalTF.__call__"),
    ("schemes.loop_gain_hf", "subharmonic.schemes", "loop_gain_hf"),
    ("schemes.closed_form_lvalue", "subharmonic.schemes", "closed_form_lvalue"),
    ("schemes.duty_ratio", "subharmonic.schemes", "duty_ratio"),
    ("schemes.lplot", "subharmonic.schemes", "lplot"),
    ("schemes.solve_critical", "subharmonic.schemes", "solve_critical"),
    ("schemes.contour_data", "subharmonic.schemes", "contour_data"),
    ("schemes.bisect", "subharmonic.schemes", "bisect"),
    ("schemes.brentq", "subharmonic.schemes", "brentq"),
    ("simulation.build_closed_loop", "subharmonic.simulation", "build_closed_loop"),
    ("simulation.CycleEngine.init", "subharmonic.simulation", "CycleEngine.__init__"),
    ("simulation.expm", "subharmonic.simulation", "expm"),
    ("simulation.CycleEngine.step", "subharmonic.simulation", "CycleEngine.step"),
    ("simulation.CycleEngine.step_dense", "subharmonic.simulation", "CycleEngine.step_dense"),
    ("simulation.brentq", "subharmonic.simulation", "brentq"),
    ("simulation.simulate", "subharmonic.simulation", "simulate"),
    ("simulation.steady_state", "subharmonic.simulation", "steady_state"),
    ("simulation.cycle_jacobian", "subharmonic.simulation", "cycle_jacobian"),
    ("sampled.poincare_jacobian", "subharmonic.sampled", "poincare_jacobian"),
    ("sampled.linear_sum_assignment", "subharmonic.sampled", "linear_sum_assignment"),
    ("sampled.pole_trajectory", "subharmonic.sampled", "pole_trajectory"),
    ("sampled.poles", "subharmonic.sampled", "poles"),
)

# names whose open spans get the CycleEngine.step calls made inside them
STEP_OWNERS = ("simulation.steady_state", "sampled.pole_trajectory")
# layers whose work items are counted, see _points
POINT_LAYERS = ("transform.alpha", "tf.RationalTF.call", "schemes.lplot",
                "schemes.contour_data", "simulation.simulate",
                "simulation.steady_state", "sampled.pole_trajectory")


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _points(name, args, kwargs):
    """Work items of one call, for the layers whose cost scales with them."""
    if name == "transform.alpha":
        return np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size
    if name == "tf.RationalTF.call":
        return np.size(args[1])
    if name == "schemes.lplot":
        return len(_arg(args, kwargs, 3, "grid"))
    if name == "schemes.contour_data":
        return np.size(args[0]) * np.size(args[1])
    if name == "simulation.simulate":
        return _arg(args, kwargs, 2, "cycles", 576)
    if name == "simulation.steady_state":
        return int(isinstance(_arg(args, kwargs, 2, "x_init", "auto"), str))
    if name == "sampled.pole_trajectory":
        return len(_arg(args, kwargs, 3, "values"))
    return 0


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.points = [0] * n
        self.failed = [0] * n
        self.open = [0] * n
        self.steps_in = dict.fromkeys(STEP_OWNERS, 0)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []  # [span index, seconds of child spans]
        self._restore = []

    def _wrap(self, nid, fn):
        name = self.names[nid]
        counts_points = name in POINT_LAYERS
        step_id = self.names.index("simulation.CycleEngine.step")
        owner_ids = [(self.names.index(o), o) for o in STEP_OWNERS]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_points:
                self.points[nid] += _points(name, args, kwargs)
            if nid == step_id:
                for oid, owner in owner_ids:
                    if self.open[oid]:
                        self.steps_in[owner] += 1
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            self.open[nid] += 1
            start = perf_counter()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[nid] += 1
                raise
            finally:
                end = perf_counter()
                self.open[nid] -= 1
                stack.pop()
                dur = end - start
                self.span_end[idx] = end
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def install(self):
        """Wrap every target wherever the package holds a reference to it."""
        for nid, (_, modname, attr) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(nid, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(nid, orig)
            # a package function is wrapped in every module that imported
            # it; a scipy routine only where the named module calls it
            mods = [owner]
            if orig.__module__.startswith("subharmonic"):
                mods = [m for m in list(sys.modules.values())
                        if getattr(m, "__name__", "").startswith("subharmonic")
                        and getattr(m, attr, None) is orig]
            for mod in mods:
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def stat(self, name, field):
        return getattr(self, field)[self.names.index(name)]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]},{self.span_start[i]!r},"
                         f"{self.span_end[i]!r},{self.span_parent[i]}\n")
