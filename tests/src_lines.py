"""Code lines of the package, per module: the lines that hold code,
leaving out docstrings, comments and blank lines.

    python tests/src_lines.py

A line counts when a token other than a comment, a newline or an
indent starts on it or runs across it; a docstring is a string that
stands alone as a statement, and its lines do not count.  pytest does
not collect this file; `tests/test_src_lines.py` checks the count."""

import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        docstring = (tok.type == tokenize.STRING
                     and (i == 0 or tokens[i - 1].type in _LAYOUT)
                     and tokens[i + 1].type == tokenize.NEWLINE)
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
