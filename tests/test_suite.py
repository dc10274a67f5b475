"""The check battery itself: its factorization oracle against the
ordered-split one, its power to catch a wrong answer, and its whole
stdout."""

import pathlib

import split_oracle
from quadfactor import factor, suite
from quadfactor.cli import main
from quadfactor.qint import ring


def test_oracle_matches_split_oracle():
    # the sieve multiplies, the split oracle divides; the suite itself
    # runs at max_norm 2000 on CORE_RINGS
    for d in suite.CORE_RINGS + (-6, -10, -21, -26):
        assert suite.naive_factorization_oracle(d, 500) == \
            split_oracle.naive_factorization_oracle(d, 500), d
    for d in suite.CORE_RINGS:
        assert suite.naive_factorization_oracle(d, 2000) == \
            split_oracle.naive_factorization_oracle(d, 2000), d


def test_factor_oracle_catches_a_dropped_factorization(monkeypatch):
    # 6 = 2*3 = (1+w)(1-w) over Z[sqrt(-5)]: hiding either factorization
    # must fail the check, though the oracle takes each split only once
    target = ring(-5).el(6)
    real = factor.factorizations

    def dropping(x):
        fs = real(x)
        if x != target:
            return fs
        assert len(fs.factorizations) == 2
        kept = fs.factorizations - {next(iter(fs.factorizations))}
        return factor.FactorizationSet(x, kept)

    monkeypatch.setattr(factor, "factorizations", dropping)
    r = suite.check_factor_oracle()
    assert not r.ok and r.detail == "mismatch at d=-5, element (6, 0)"


def test_factor_oracle_catches_an_extra_factorization(monkeypatch):
    # the mirror case: reporting 6 itself as a third factorization of 6
    # over Z[sqrt(-5)] must fail the check as well
    target = ring(-5).el(6)
    real = factor.factorizations

    def padding(x):
        fs = real(x)
        if x != target:
            return fs
        return factor.FactorizationSet(x, fs.factorizations | {(target,)})

    monkeypatch.setattr(factor, "factorizations", padding)
    r = suite.check_factor_oracle()
    assert not r.ok and r.detail == "mismatch at d=-5, element (6, 0)"


def test_paper_suite_tsv_pinned(capsys):
    # every check's status and detail, byte for byte; no timings
    path = pathlib.Path(__file__).with_name("paper_suite.tsv")
    assert main(["--format", "tsv", "paper-suite"]) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()
