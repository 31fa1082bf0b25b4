"""The line counts that tools/bench_pairs.py records in a BENCH file and CI logs."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

#: one line, no code: a one-line module docstring
PACKAGE_INIT = '''"""One-line module docstring."""
'''

#: 33 lines, of which 10 are code: every line that is not blank, a comment
#: or a docstring, a multi-line string that is not a docstring included
MODULE = '''"""A module docstring
over two lines.
"""

# a comment line
import os  # a code line with a trailing comment


class OneLine:
    """One-line class docstring."""

    x = 1


class MultiLine:
    """A class docstring
    over two lines.
    """


def multi_line():
    """A function docstring
    over two lines."""
    # an indented comment

    text = """a string
that is not a docstring
"""
    return text


def one_line():
    """One-line function docstring."""
'''


def test_src_counts_are_the_lines_and_the_code_lines_under_src(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PACKAGE_INIT, encoding="utf-8")
    (package / "mod.py").write_text(MODULE, encoding="utf-8")
    # neither a file under src that is not Python nor Python outside src is counted
    (package / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
    (tmp_path / "setup.py").write_text("import os\n", encoding="utf-8")
    assert bench_pairs.src_counts(str(tmp_path)) == {"lines": 1 + 33, "code_lines": 10}
