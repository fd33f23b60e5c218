"""The counting rule of ``tools/code_lines.py``, which every line count in ROADMAP.md uses."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment line
class Box:
    """Class docstring."""

    def grow(self, x):
        """Function
        docstring."""

        total = (x +
                 1)
        return [
            total,
        ]
'''


def test_docstrings_blanks_and_comment_lines_do_not_count():
    # import, class, def, the two lines of the assignment and the three of the return
    assert code_lines.code_lines(SOURCE) == 8


@pytest.mark.parametrize("source", ['"""Only a docstring."""\n', "# a comment\n\n# another\n", ""])
def test_a_module_without_code_counts_nothing(source):
    assert code_lines.code_lines(source) == 0


def test_each_line_of_a_multi_line_statement_counts():
    assert code_lines.code_lines("x = [\n    1,\n\n    2,\n]\n") == 4
    assert code_lines.code_lines("x = 1\n") == 1


def test_a_string_that_is_no_docstring_counts():
    assert code_lines.code_lines('x = 1\n"""not the first statement"""\n') == 2
