"""The public API as the README shows it and as tools/public_api.py lists it."""

import contextlib
import io
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_readme_library_use_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert "period-" in out.getvalue()


def test_public_api_lists_every_name_and_counts_its_values():
    import subharmonic

    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "public_api.py")],
        capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == len(subharmonic.__all__) + 1
    assert [re.match(r"\w+", line).group() for line in lines[:-1]] == \
        subharmonic.__all__
    params = [p for line in lines[:-1] if "(" in line
              for p in line[line.index("(") + 1:-1].split(", ") if p]
    assert lines[-1] == f"settable values: {len(params)}"
    # a default shows as its repr, so a changed default shows in a diff
    assert "steady_state(params, scheme, x_init='auto', grid=64)" in lines
    assert "BuckParams(v_s, v_r, V_l, V_h, f_s, L, R, C=None, R_c=0.0)" in lines
    assert ("simulate(params, scheme, cycles=576, x_init='auto', window=64, "
            "grid=64, dense_cycles=0, divergence_bound=None)") in lines
