"""The mutant table of tests/mutants.py stays applicable: every row's old
text occurs exactly once in its file of the package, and the test it
names exists.  No mutant runs here; `python tests/mutants.py --full`
runs them all."""

import pathlib

import mutants

TESTS = pathlib.Path(__file__).parent


def test_every_row_applies_exactly_once():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) >= 8 and len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        text = (mutants.SRC / "quadfactor" / m.path).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name


def test_every_row_names_a_test():
    for m in mutants.MUTANTS:
        path, func = m.test.split("::")
        assert path.startswith("tests/"), m.name
        assert f"\ndef {func}(" in (TESTS.parent / path).read_text(), m.name
