"""tests/src_lines.py counts code lines only: no docstring, comment or
blank line."""

import src_lines


def test_code_lines_skip_docstrings_comments_and_blanks():
    snippet = ('"""A module docstring\n'
               'over two lines."""\n'
               '\n'
               'import math  # a trailing comment\n'
               '\n'
               '# a comment line\n'
               'def f(x):\n'
               '    """One line."""\n'
               '    s = """a string that is\n'
               'not a docstring"""\n'
               '    return (x +\n'
               '            math.pi)\n')
    assert src_lines.code_lines(snippet) == 6
    assert src_lines.code_lines("") == 0
