import json
import pathlib
import random
from fractions import Fraction

import pytest

from quadfactor.errors import DomainError, ResourceLimitError
from quadfactor.factor import FactorizationSet, factorizations
from quadfactor.qint import (_is_irreducible_canonical, canonical_associate,
                             ring)


def verify_factorization_set(fs: FactorizationSet) -> bool:
    """Each multiset multiplies back to an associate of the element and
    consists of irreducibles."""
    x = fs.element
    for m in fs.factorizations:
        prod = x.cfg.el(1)
        for y in m:
            if not _is_irreducible_canonical(canonical_associate(y)):
                return False
            prod = prod * y
        if canonical_associate(prod) != canonical_associate(x):
            return False
    return True


def classes(x):
    """Factorizations as a set of string tuples, for readable asserts."""
    return {tuple(str(y) for y in m) for m in factorizations(x).factorizations}


def test_factor_six_two_ways():
    cfg = ring(-5)
    assert classes(cfg.el(6)) == {("2", "3"), ("1-w", "1+w")}
    assert factorizations(cfg.el(6)).lengths() == [2]
    assert factorizations(cfg.el(6)).elasticity() == 1


def test_factor_squares():
    cfg = ring(-5)
    assert classes(cfg.el(4)) == {("2", "2")}
    assert classes(cfg.el(9)) == {("3", "3"), ("2-w", "2+w")}
    assert classes(cfg.el(21)) == {
        ("1-2*w", "1+2*w"), ("4-w", "4+w"), ("3", "7")}


def test_factor_81_two_lengths():
    cfg = ring(-14)
    assert classes(cfg.el(81)) == {("5-2*w", "5+2*w"), ("3", "3", "3", "3")}
    assert factorizations(cfg.el(81)).lengths() == [2, 4]
    assert factorizations(cfg.el(81)).elasticity() == 2


def test_factor_18_unequal_lengths():
    # 18 = 2*3*3 = (2+w)(2-w): the smallest-norm witness at d = -14
    # that factorization lengths can differ
    cfg = ring(-14)
    assert classes(cfg.el(18)) == {("2", "3", "3"), ("2-w", "2+w")}
    assert factorizations(cfg.el(18)).elasticity() == Fraction(3, 2)


def test_length_singleton():
    cfg = ring(-5)
    assert factorizations(cfg.el(36)).lengths() == [4]


def test_irreducible_element():
    cfg = ring(-5)
    fs = factorizations(cfg.el(1, 1))
    assert fs.factorizations == frozenset({(cfg.el(1, 1),)})
    assert fs.lengths() == [1]
    assert fs.elasticity() == 1


def test_unit_input_rescaled():
    cfg = ring(-5)
    assert classes(cfg.el(-6)) == {("2", "3"), ("1-w", "1+w")}
    cfg1 = ring(-1)
    assert classes(cfg1.el(0, 2)) == {("1+w", "1+w")}


def test_ring_elasticity_lower_bound():
    # norm(18) = 324, so a bound of 400 sees the 3/2 witness; norm(81)
    # = 6561 brings the {2, 4} length set into range
    from elasticity_oracle import ring_elasticity_lower_bound
    got = ring_elasticity_lower_bound(ring(-14), 400)
    assert isinstance(got, Fraction) and got >= Fraction(3, 2)
    got = ring_elasticity_lower_bound(ring(-14), 6561)
    assert got >= 2
    got1 = ring_elasticity_lower_bound(ring(-1), 100)
    assert got1 == 1
    # Z[sqrt(-5)] has no element of norm 2
    assert ring_elasticity_lower_bound(ring(-5), 2) is None
    with pytest.raises(DomainError):
        ring_elasticity_lower_bound(ring(-5), 1)


def test_domain_guards():
    cfg = ring(-5)
    with pytest.raises(DomainError):
        factorizations(cfg.el(0))
    with pytest.raises(DomainError):
        factorizations(cfg.el(1))
    with pytest.raises(DomainError):
        factorizations(cfg.el(-1))
    with pytest.raises(ResourceLimitError):
        factorizations(cfg.el(10 ** 5))


def test_verify_random_factorizations():
    rng = random.Random(13)
    for _ in range(150):
        cfg = ring(rng.choice((-1, -2, -3, -5, -6, -10, -14)))
        x = cfg.el(rng.randint(-40, 40), rng.randint(-15, 15))
        if x.is_zero() or x.is_unit():
            continue
        fs = factorizations(x)
        assert fs.factorizations
        assert verify_factorization_set(fs)
        # lengths() and elasticity() agree with the raw multiset data
        lens = {len(m) for m in fs.factorizations}
        assert fs.lengths() == sorted(lens)
        assert fs.elasticity() == Fraction(max(lens), min(lens))


@pytest.mark.parametrize("d, classes_, total", [
    (-1, 1572, 1572), (-2, 2218, 2218), (-3, 1814, 2150),
    (-5, 1391, 1946), (-14, 834, 959)])
def test_reference_oracle_pinned(d, classes_, total):
    # the suite's factor-oracle compares against this dict; pinning its
    # size keeps a change to the oracle from shrinking the comparison
    from quadfactor.suite import naive_factorization_oracle
    oracle = naive_factorization_oracle(d, 2000)
    assert (len(oracle), sum(map(len, oracle.values()))) == (classes_, total)


def test_cli_factor_large_norms_pinned(capsys):
    # stdout of factor/elasticity on 61 seeded elements, one per ring,
    # norms log-uniform in [10^3, 10^8] and many of them products of two
    # or three factors, as the scan that read every divisor's norm
    # directly printed it
    from quadfactor.cli import main
    path = pathlib.Path(__file__).with_name("factor_norm1e8.jsonl")
    cases = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(cases) == 61
    for case in cases:
        assert main(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"], case["argv"]


ORACLE_RINGS = (-1, -2, -3, -5, -6, -7, -10, -14, -15, -17, -26, -30)


@pytest.mark.parametrize("d", ORACLE_RINGS)
def test_factorizations_match_oracle_small_norms(d):
    # every class of norm <= 3000 against the recursion that rescans
    # each quotient, sorts each tuple and merges copies in a set
    from factor_oracle import factorizations as oracle
    from quadfactor.qint import elements_of_norm
    cfg = ring(d)
    count = 0
    for n in range(2, 3001):
        for x in elements_of_norm(n, cfg):
            assert factorizations(x).factorizations == oracle(x), (d, str(x))
            count += 1
    assert count > 500


def test_factorizations_match_oracle_large_norms():
    # 200 seeded elements of norm 10^6 to 10^8: half drawn near a
    # log-uniform norm, half products of small nonunits, which have
    # many factorizations
    from factor_oracle import factorizations as oracle
    rng = random.Random(19)
    done = 0
    while done < 200:
        cfg = ring(rng.choice(ORACLE_RINGS))
        if done % 2:
            target = int(10 ** rng.uniform(6, 8))
            b = rng.randint(0, int((target / -cfg.d) ** 0.5))
            a = int((target + cfg.d * b * b) ** 0.5)
            x = cfg.el(rng.choice((a, -a)), rng.choice((b, -b)))
        else:
            x = cfg.el(1)
            while x.norm() < 10 ** 6:
                y = cfg.el(rng.randint(-6, 6), rng.randint(-2, 2))
                if not y.is_zero() and not y.is_unit():
                    x = x * y
        if not 10 ** 6 <= x.norm() <= 10 ** 8:
            continue
        assert factorizations(x).factorizations == oracle(x), \
            (cfg.d, str(x))
        done += 1


def test_atoms_match_divisor_oracle_large_norms():
    # the eager atom pass that factor reads against the try_div scan of
    # tests/divisor_oracle.py, on 120 seeded single elements of norm 10^6
    # to 10^8, the range of the elements workload: drawn near a
    # log-uniform norm, squares (whose atoms may have norm exactly
    # sqrt(N), the last pass), and products of small nonunits, whose
    # divisors are many.  The same irreducibles, sorted by (norm, a, b),
    # each carrying its own element
    import divisor_oracle
    from quadfactor.qint import _atoms
    rng = random.Random(27)
    done = 0
    while done < 120:
        cfg = ring(rng.choice(ORACLE_RINGS))
        if done % 3:
            target = int(10 ** rng.uniform(3 if done % 3 == 2 else 6, 8))
            b = rng.randint(0, int((target / -cfg.d) ** 0.5))
            a = int((target + cfg.d * b * b) ** 0.5)
            x = cfg.el(rng.choice((a, -a)), rng.choice((b, -b)))
            if done % 3 == 2:
                x = x * x
        else:
            x = cfg.el(1)
            while x.norm() < 10 ** 6:
                y = cfg.el(rng.randint(-6, 6), rng.randint(-2, 2))
                if not y.is_zero() and not y.is_unit():
                    x = x * y
        if not 10 ** 6 <= x.norm() <= 10 ** 8:
            continue
        atoms = _atoms(x.a, x.b, cfg)
        assert [t[:3] for t in atoms] == sorted(
            (c.norm(), c.a, c.b)
            for c in divisor_oracle.irreducible_common_divisors([x])), \
            (cfg.d, str(x))
        assert all((t[3].a, t[3].b, t[3].cfg) == (t[1], t[2], cfg)
                   for t in atoms)
        done += 1


@pytest.mark.parametrize("d, x, count", [
    (-5, 6 ** 5, 28), (-26, 15 ** 3 * 2, 31), (-6, 30 ** 2 * 5, 76),
    (-17, 3 ** 4 * 2 ** 4 * 7, 23)])
def test_factorizations_match_oracle_composites(d, x, count):
    from factor_oracle import factorizations as oracle
    fs = factorizations(ring(d).el(x))
    assert fs.factorizations == oracle(ring(d).el(x))
    assert len(fs.factorizations) == count
    assert verify_factorization_set(fs)


def test_one_divisor_scan_per_call(monkeypatch):
    # a cold call scans its input's divisors once: quotients take their
    # atoms from the input's.  A later call on one of those quotients
    # finds it in the memo and scans nothing
    from quadfactor import factor, qint
    scans = []
    scan = qint._norm_pair_scan

    def counted(cfg, xa, xb, g):
        scans.append((xa, xb))
        return scan(cfg, xa, xb, g)

    monkeypatch.setattr(qint, "_norm_pair_scan", counted)
    factor._factor_multisets.cache_clear()
    cfg = ring(-5)
    fs = factorizations(cfg.el(6 ** 5))
    assert len(fs.factorizations) == 28 and len(scans) == 1
    misses = factor._factor_multisets.cache_info().misses
    assert factorizations(cfg.el(-6 ** 3)).lengths() == [6]
    assert len(scans) == 1
    assert factor._factor_multisets.cache_info().misses == misses


def test_repeated_factorizations_return_the_checked_memo(monkeypatch):
    # the memo holds the checked tuple: a repeated call reuses that same
    # object, with no rebuild and no second multiply-back, and each
    # FactorizationSet builds from it a frozenset equal to the first
    from quadfactor import factor
    cfg = ring(-5)
    first = factorizations(cfg.el(6 ** 5)).factorizations
    checks = []
    monkeypatch.setattr(factor, "_check_products",
                        lambda x, fs: checks.append(x))
    assert factorizations(cfg.el(-6 ** 5)).factorizations == first
    entry = factor._factor_multisets(factor._Element(cfg, 6 ** 5, 0, None))
    assert type(entry) is tuple and entry is factor._factor_multisets(
        factor._Element(cfg, 6 ** 5, 0, None))
    assert checks == []


def test_memo_entries_hold_each_factorization_once(monkeypatch):
    # an entry is a tuple, so nothing merges a factorization built twice:
    # every entry filled by a sweep of each class of norm 2..2000 at the
    # suite's rings has distinct tuples
    from quadfactor import factor
    from quadfactor.qint import _canonical_points, _lattice_walk
    from quadfactor.suite import CORE_RINGS
    memo, entries = factor._factor_multisets, {}

    def recording(key):
        fs = memo(key)
        entries[id(fs)] = fs
        return fs

    memo.cache_clear()
    monkeypatch.setattr(factor, "_factor_multisets", recording)
    for d in CORE_RINGS:
        cfg = ring(d)
        for x in _canonical_points(cfg, _lattice_walk(cfg, 2000)):
            if x.norm() > 1:
                factorizations(x)
    assert len(entries) > 7000
    assert all(len(set(fs)) == len(fs) for fs in entries.values())


def test_lengths_hash_no_factor(monkeypatch):
    # lengths() and elasticity() read the memo's tuple; only a read of
    # .factorizations hashes factors, once per FactorizationSet
    from quadfactor import factor
    from quadfactor.qint import KElem
    hashes, real = [], KElem.__hash__

    def counted(self):
        hashes.append(self)
        return real(self)

    factor._factor_multisets.cache_clear()
    monkeypatch.setattr(KElem, "__hash__", counted)
    fs = factorizations(ring(-5).el(6 ** 5))
    assert fs.lengths() == [10] and fs.elasticity() == 1
    assert hashes == []
    first = fs.factorizations
    assert len(first) == 28 and hashes
    hashes.clear()
    assert fs.factorizations is first and hashes == []


@pytest.mark.parametrize("d", [-1, -3, -5, -89])
def test_conjugate_pairs_match_oracle_in_both_orders(monkeypatch, d):
    # seeded pairs of norm 10^3 to 10^8, half near a log-uniform norm and
    # half products of small nonunits, are factored x then conj(x) and,
    # with the memo cleared, conj(x) then x.  Each class of a pair takes
    # one atom pass, and both match the rescanning oracle in either order
    from factor_oracle import factorizations as oracle
    from quadfactor import factor
    scans = []
    atoms = factor._atoms
    monkeypatch.setattr(factor, "_atoms",
                        lambda *args: scans.append(args) or atoms(*args))
    cfg = ring(d)
    rng = random.Random(29 - d)
    done = 0
    while done < 16:
        if done % 2:
            target = int(10 ** rng.uniform(3, 8))
            b = rng.randint(1, int((target / -d) ** 0.5))
            x = cfg.el(rng.choice((-1, 1)) * int((target + d * b * b) ** 0.5),
                       b)
        else:
            x = cfg.el(1)
            while x.norm() < 10 ** 3 or rng.random() < 0.5:
                y = cfg.el(rng.randint(-6, 6), rng.randint(-2, 2))
                if not y.is_zero() and not y.is_unit():
                    x = x * y
        if not 10 ** 3 <= x.norm() <= 10 ** 8 or \
                canonical_associate(x) == canonical_associate(x.conj()):
            continue
        for pair in ((x, x.conj()), (x.conj(), x)):
            factor._factor_multisets.cache_clear()
            scans.clear()
            for y in pair:
                assert factorizations(y).factorizations == oracle(y), \
                    (d, str(y))
            assert len(scans) == 2, (d, str(x))
        done += 1


def test_corrupted_quotient_entry_fails_verification(monkeypatch):
    # a quotient's entry is multiplied back into its parent's: an extra
    # factor in the first quotient entry the recursion reads raises
    # VerificationError when the entry above it is checked
    from factor_oracle import factorizations as oracle
    from quadfactor import factor
    from quadfactor.errors import VerificationError
    real, corrupted = factor._factor_multisets, []

    def corrupting(key):
        fs = real(key)
        if key.atoms is None or corrupted:
            return fs
        corrupted.append(key)
        return frozenset(m + (m[0],) for m in fs)

    x = ring(-5).el(6 ** 5)
    factor._factor_multisets.cache_clear()
    monkeypatch.setattr(factor, "_factor_multisets", corrupting)
    with pytest.raises(VerificationError):
        factorizations(x)
    assert corrupted
    monkeypatch.undo()
    factor._factor_multisets.cache_clear()
    assert factorizations(x).factorizations == oracle(x)
