import time

import numpy as np
import pytest

import naive
from schurcensus.errors import SizingError
from schurcensus.gf import (
    _build_field,
    field_from_literal,
    make_field,
    parse_field_literal,
)

# Fields small enough for exhaustive triple checks.
TRIPLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4)]
# Larger fields up to 64 elements get exhaustive pair checks plus sampled
# triples.
PAIR_FIELDS = [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]


def mul_array(f):
    return np.array([[f.mul(a, b) for b in f.elements()] for a in f.elements()])


def add_array(f):
    return np.array([[f.add(a, b) for b in f.elements()] for a in f.elements()])


# ---------------------------------------------------------------------------
# construction against brute-force search
# ---------------------------------------------------------------------------

def test_modulus_is_first_primitive_poly():
    for p, e in [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (5, 2), (7, 2), (2, 5)]:
        f = make_field(p, e)
        assert f.modulus == naive.first_primitive_poly(p, e)
        assert f.zeta == p  # the class of x


def test_prime_fields_use_least_primitive_root():
    for p in (2, 3, 5, 7, 11, 13):
        f = make_field(p, 1)
        g = naive.least_primitive_root(p)
        assert f.zeta == g
        assert f.modulus == ((-g) % p, 1)


def test_frozen_small_moduli():
    # values pinned from an independent search (naive.first_primitive_poly)
    assert make_field(5, 1).modulus == (3, 1) and make_field(5, 1).zeta == 2
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (2, 1, 1) and make_field(3, 2).zeta == 3
    assert make_field(2, 3).modulus == (1, 0, 1, 1)


def test_make_field_is_deterministic():
    before = make_field(3, 2)
    snapshot = (before.modulus, before.zeta, mul_array(before).tolist())
    _build_field.cache_clear()
    after = make_field(3, 2)
    assert (after.modulus, after.zeta, mul_array(after).tolist()) == snapshot
    assert after == before


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(1, 1)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(SizingError):
        make_field(103, 3)  # 103^3 > 512


def test_huge_literals_are_refused_before_arithmetic():
    # trial division of p, the power p**e or printing it would not finish
    # (or would overflow the int-to-str digit limit) on these, and int()
    # itself refuses the last two, past its 4300-digit limit
    start = time.perf_counter()
    for text in ("2^20000", "2^1000000000", "1000000000000000003^1",
                 "1000000000000000003^1000000000", "2^" + "1" * 5000,
                 "1" * 5000 + "^1"):
        with pytest.raises(SizingError, match="above the cap of 512 elements"):
            field_from_literal(text)
    assert time.perf_counter() - start < 1.0


def test_field_literals():
    assert parse_field_literal("5^1") == (5, 1)
    assert parse_field_literal(" 3^2 ") == (3, 2)
    assert field_from_literal("2^3").q == 8
    assert make_field(7, 1).literal == "7^1"
    for bad in ("5", "5^", "^2", "a^2", "5^1^1", "5 ^ 1"):
        with pytest.raises(ValueError):
            parse_field_literal(bad)


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", TRIPLE_FIELDS)
def test_field_axioms_exhaustive(p, e):
    f = make_field(p, e)
    q = f.q
    M = mul_array(f)
    A = add_array(f)
    idx = np.arange(q)
    assert (A == A.T).all() and (M == M.T).all()
    assert (A[0] == idx).all() and (M[1] == idx).all() and (M[0] == 0).all()
    # negatives and inverses
    assert sorted(f.neg(a) for a in f.elements()) == list(idx)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
    for a in f.units():
        assert f.mul(a, f.inv(a)) == 1
    # associativity and distributivity over all triples, via the op tables
    assert (A[A[:, :, None], idx[None, None, :]]
            == A[idx[:, None, None], A[None, :, :]]).all()
    assert (M[M[:, :, None], idx[None, None, :]]
            == M[idx[:, None, None], M[None, :, :]]).all()
    assert (M[idx[:, None, None], A[None, :, :]]
            == A[M[:, :, None], M[:, None, :]]).all()


@pytest.mark.parametrize("p,e", PAIR_FIELDS)
def test_field_axioms_pairs_and_sampled_triples(p, e):
    f = make_field(p, e)
    for a in f.elements():
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    rng = np.random.default_rng(20260819)
    for a, b, c in rng.integers(0, f.q, size=(300, 3)):
        a, b, c = int(a), int(b), int(c)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_mul_matches_naive_polynomials():
    for p, e in [(3, 2), (2, 3), (2, 4), (7, 2)]:
        f = make_field(p, e)
        for a in f.elements():
            for b in f.elements():
                want = naive.pmod(naive.pmul(f.coords(a), f.coords(b), p),
                                  f.modulus, p)
                assert f.coords(f.mul(a, b)) == want


def test_gf4_zeta_squared():
    f = make_field(2, 2)
    assert f.mul(2, 2) == 3  # zeta * zeta = zeta + 1 under x^2 + x + 1


def test_untabled_field_paths():
    # every field carries its dense tables, so 512 elements is the largest
    # field there is
    f = make_field(2, 9)
    assert f.mul_table().shape == (512, 512)
    assert f.mul(f.zeta, f.zeta) == 4  # x * x = x^2, index p^2
    assert has_full_order(f, f.zeta)
    with pytest.raises(SizingError, match="1024 elements"):
        make_field(2, 10)


# ---------------------------------------------------------------------------
# encoding and powers
# ---------------------------------------------------------------------------

def test_coords_roundtrip():
    for p, e in TRIPLE_FIELDS:
        f = make_field(p, e)
        for a in f.elements():
            cs = f.coords(a)
            assert len(cs) == e and all(0 <= c < p for c in cs)
            assert sum(c * p ** i for i, c in enumerate(cs)) == a
        if e > 1:
            assert f.coords(f.zeta) == (0, 1) + (0,) * (e - 2)


def has_full_order(f, a):
    """True iff the powers of a run through every unit of f."""
    return len({f.power(a, k) for k in range(f.q - 1)}) == f.q - 1


def test_zeta_has_full_order():
    for p, e in TRIPLE_FIELDS + PAIR_FIELDS:
        f = make_field(p, e)
        assert has_full_order(f, f.zeta)


def test_power_negative_exponents():
    f = make_field(3, 2)
    for a in f.units():
        assert f.power(a, -1) == f.inv(a)
        assert f.power(a, -3) == f.inv(f.power(a, 3))
    assert f.power(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.power(0, -1)


# ---------------------------------------------------------------------------
# regular representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", TRIPLE_FIELDS)
def test_regular_representation_is_a_ring_hom(p, e):
    f = make_field(p, e)
    mats = [f.regular_representation(a) for a in f.elements()]
    assert (mats[1] == np.eye(e, dtype=int)).all()
    assert not mats[0].any()
    seen = {m.tobytes() for m in mats}
    assert len(seen) == f.q  # faithful
    for a in f.elements():
        for b in f.elements():
            assert (mats[a] @ mats[b] % p == mats[f.mul(a, b)]).all()
            assert ((mats[a] + mats[b]) % p == mats[f.add(a, b)]).all()


def test_gf9_representation_of_zeta():
    f = make_field(3, 2)
    assert f.regular_representation(f.zeta).tolist() == [[0, 1], [1, 2]]


def test_representation_acts_on_coordinate_rows():
    f = make_field(3, 2)
    for a in f.elements():
        psi = f.regular_representation(a)
        for b in f.elements():
            row = np.array(f.coords(b))
            assert tuple(row @ psi % f.p) == f.coords(f.mul(b, a))


# ---------------------------------------------------------------------------
# subfields
# ---------------------------------------------------------------------------

def test_subfield_counts_match_divisors():
    for p, e in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (2, 6)]:
        f = make_field(p, e)
        subs = f.subfields()
        divisors = [d for d in range(1, e + 1) if e % d == 0]
        assert len(subs) == len(divisors)
        assert [len(s) for s in subs] == [p ** d for d in divisors]
        for s in subs:
            assert f.is_subfield(s)


def test_prime_subfield_is_low_indices():
    # digit encoding puts F_p at indices 0..p-1
    for p, e in [(3, 2), (2, 4), (5, 2)]:
        f = make_field(p, e)
        assert f.subfields()[0] == frozenset(range(p))


def test_is_subfield_rejects_non_subfields():
    f9 = make_field(3, 2)
    assert f9.is_subfield({0, 1, 2})
    assert f9.is_subfield(range(9))
    assert not f9.is_subfield({0, 1})        # not closed under addition
    assert not f9.is_subfield({1, 2})        # no zero
    assert not f9.is_subfield({0, 1, 2, 3})  # wrong size, not closed
    f4 = make_field(2, 2)
    assert f4.is_subfield({0, 1})
    assert not f4.is_subfield({0, 1, 2})
    f8 = make_field(2, 3)
    assert f8.is_subfield({0, 1})
    assert not f8.is_subfield({0, 1, 2, 3})  # F_4 does not embed in F_8


def test_gf9_frobenius_fixed_set():
    f = make_field(3, 2)
    fixed = frozenset(a for a in f.elements() if f.power(a, 3) == a)
    assert fixed == frozenset({0, 1, 2})
    assert f.is_subfield(fixed)


# ---------------------------------------------------------------------------
# operand validation
# ---------------------------------------------------------------------------

def test_operand_range_checks():
    f = make_field(3, 2)
    with pytest.raises(ValueError):
        f.add(0, 9)
    with pytest.raises(ValueError):
        f.mul(-1, 2)
    with pytest.raises(ValueError):
        f.coords(81)  # an index from GF(81) is not a GF(9) element
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
