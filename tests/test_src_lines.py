"""tools/src_lines.py: raw and code line counts of the package modules."""

import importlib.util
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import os


class A:
    """Class docstring."""

    x = """not a docstring,
    so both lines count"""

    def f(self):
        """Function
        docstring."""
        return os.sep  # trailing comment
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_skip_docstrings_comments_and_blank_lines():
    # code: import, class, the two lines of x, def, return
    assert load_tool().count(SOURCE) == (17, 6)


def test_prints_every_module_and_the_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    modules, total = rows[:-1], rows[-1]
    src = TOOL.parent.parent / "src" / "pfol"
    assert [name for name, _, _ in modules] == sorted(p.name for p in src.glob("*.py"))
    assert total[0] == "total"
    assert int(total[1]) == sum(int(raw) for _, raw, _ in modules)
    assert int(total[2]) == sum(int(code) for _, _, code in modules)
    for name, raw, code in modules:
        assert int(raw) == len((src / name).read_text().splitlines())
        assert 0 < int(code) <= int(raw)
