"""The config-output comparison states how far the numbers of a changed
text line moved."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "config_outputs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("config_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_changed_text_lines_report_the_largest_relative_move(tmp_path):
    head = "lplot: 181 points over p, wrote <OUT>/ex2_lplot.csv\n"
    old, new = tmp_path / "old.stdout", tmp_path / "new.stdout"
    old.write_text(head + "crossing at p = 0.5\ncrossing at p = 2e-3\n")
    new.write_text(head + "crossing at p = 0.5000005\ncrossing at p = 2.5e-3\n")
    tool = _tool()
    assert tool.number_change(str(new), str(old)) == \
        "max relative change of a number = 0.2"
    new.write_text(head + "crossing at p = 0.5\n")
    assert tool.number_change(str(new), str(old)) == \
        "changed lines differ in their count of numbers"
