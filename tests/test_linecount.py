"""The code-line counter (``tests/linecount.py``) on a small fixture."""

from linecount import code_lines

FIXTURE = '''"""A module docstring,
on two lines."""

import os  # a comment after code

# a comment on its own line


def f(x):
    """A function docstring."""
    text = """a multi-line
string"""
    return text


class C:
    """A class docstring."""

    y = 1
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, def, the two lines of the multi-line string, return, class and the assignment
    assert code_lines(FIXTURE) == 7
