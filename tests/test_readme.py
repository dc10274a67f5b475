"""Every `$ quadfactor ...` example in README.md, run through cli.main.

An example is a `$ quadfactor` line inside a fenced block followed by
its expected stdout, up to the next blank line or the end of the block.
Output must match byte for byte, except that a line reading `...`
stands for any number of output lines."""

import ast
import pathlib
import re
import shlex

import pytest

from quadfactor.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def examples():
    out = []
    in_block = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
            continue
        if not in_block:
            continue
        if line.startswith("$ quadfactor "):
            current = (line[len("$ quadfactor "):], [])
            out.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            current[1].append(line)
    return out


EXAMPLES = examples()


def expected_pattern(lines) -> str:
    return "".join(r"(?:.*\n)*" if line == "..." else re.escape(line + "\n")
                   for line in lines)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 14


def library_block() -> str:
    """The python code block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    # a `# value` comment line gives the repr of the expression above it
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        below = lines[node.end_lineno] if node.end_lineno < len(lines) else ""
        if below.startswith("# "):
            assert repr(eval(code, namespace)) == below[2:], code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == sum(line.startswith("# ") for line in lines) == 3


@pytest.mark.parametrize("command,expected", EXAMPLES,
                         ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert re.fullmatch(expected_pattern(expected), out), out
