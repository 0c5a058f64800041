import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


# a comment line
class Shape:
    """Class docstring."""

    sides = 4

    def area(self, side):
        """Function docstring."""
        text = """a string
        that is not a docstring"""
        return math.fsum([side, side, len(text)])
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_alone(tmp_path, capsys):
    # the counter behind CHANGES.md's net line figures skips blank lines,
    # comments and docstrings, and counts each line a multi-line string
    # spans once
    code_lines = _load("code_lines")
    assert code_lines.code_lines(SOURCE) == 7
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shape.py").write_text(SOURCE)
    (tmp_path / "top.py").write_text("x = 1\n\n# note\ny = [x,\n     2]\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     7 pkg/shape.py", "     3 top.py", "    10 total", ""]
