"""The counting rule of ``tools/code_lines.py``, which every line count in ROADMAP.md uses."""

import importlib.util
import shutil
import subprocess
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


def _git_repo(tmp_path, monkeypatch):
    """A git repository in ``tmp_path`` holding a package ``src/unabench`` of two modules, committed."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    package = tmp_path / "src" / "unabench"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").write_text("y = [\n    1,\n]\n")
    (package / "notes.txt").write_text("not a module\n")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com", "-c",
           "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "base"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    monkeypatch.setattr(code_lines, "PACKAGE", package)
    return package


def test_base_prints_each_module_at_the_ref_in_the_work_tree_and_the_difference(tmp_path, monkeypatch, capsys):
    package = _git_repo(tmp_path, monkeypatch)
    (package / "a.py").write_text("x = 1\nz = 2\n")
    (package / "b.py").unlink()
    (package / "c.py").write_text('"""Docstring."""\nw = 3\n')
    code_lines.main(["--base", "HEAD"])
    assert capsys.readouterr().out.splitlines() == [
        "        base   work   diff",
        "a.py       1      2     +1",
        "b.py       3      0     -3",
        "c.py       0      1     +1",
        "total      4      3     -1",
    ]


def test_base_at_an_unknown_revision_is_a_usage_error(tmp_path, monkeypatch, capsys):
    _git_repo(tmp_path, monkeypatch)
    with pytest.raises(SystemExit) as exit:
        code_lines.main(["--base", "no_such_ref"])
    assert exit.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("error: --base: no package at git revision 'no_such_ref'")
    assert "Traceback" not in err
