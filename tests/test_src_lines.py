"""`tools/src_lines.py` counts code, docstring and comment-only lines as
it says: on a snippet with module, class and function docstrings, a
comment-only line, a comment after code, a multi-line string expression
that is not a docstring and blank lines; and over the package, whose
module rows add up to its total row."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_lines)

SNIPPET = '''"""A module docstring
on two lines."""

# a comment-only line
X = 1  # a comment after code


class C:
    """One line."""

    def f(self):
        """Three
        lines
        """
        text = """a string
        over three
        lines"""
        """a string expression after the first statement"""
        return text
'''


def test_counts_on_a_snippet():
    # code: X, class, def, the three lines of `text`, the later string and return
    assert src_lines.count(SNIPPET) == {"code": 8, "docstring": 6, "comment_only": 1}


def test_package_rows_add_up(capsys):
    assert src_lines.main(["src_lines.py", str(ROOT / "src" / "weylfans")]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    total = lines[-1].split()
    assert total[0] == "total" and len(rows) == len(list((ROOT / "src" / "weylfans").glob("*.py")))
    assert [sum(int(row[i]) for row in rows) for i in (1, 2, 3)] == [int(x) for x in total[1:]]
