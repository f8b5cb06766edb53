"""Group algebra convolution, Schur axioms and line-sum identities."""

import numpy as np
import pytest

import naive
from schurcensus import make_field
from schurcensus.errors import SizingError
from schurcensus.lines import (
    LinePartition,
    enumerate_partitions,
    one_class_partition,
    singleton_partition,
    wielandt_partition,
)
from schurcensus.schur import (
    SchurBasis,
    convolve,
    full_line_sum,
    group_tables,
    structure_constants,
    verify_line_sum_identities,
    verify_schur_axioms,
)


def vector_add(field):
    """Pointwise addition on (x, y) pairs, bypassing the group tables."""
    return lambda a, b: (field.add(a[0], b[0]), field.add(a[1], b[1]))


# ---------------------------------------------------------------------------
# the group tables and convolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_group_tables_are_the_elementwise_sum(p, e):
    field = make_field(p, e)
    q = field.q
    add, neg = group_tables(field)
    plus = vector_add(field)
    for i in range(q * q):
        a = divmod(i, q)
        nx, ny = field.neg(a[0]), field.neg(a[1])
        assert neg[i] == nx * q + ny
        for j in range(q * q):
            b = divmod(j, q)
            sx, sy = plus(a, b)
            assert add[i, j] == sx * q + sy


def test_group_tables_are_read_only():
    # the tables are cached per field and shared by every caller
    add, neg = group_tables(make_field(3, 1))
    with pytest.raises(ValueError):
        add[0, 0] = 1
    with pytest.raises(ValueError):
        neg[0] = 1
    assert add[0, 0] == 0 and neg[0] == 0


def test_group_table_cap():
    with pytest.raises(SizingError):
        group_tables(make_field(47, 1))  # 2209 points


def test_convolve_matches_dict_oracle():
    field = make_field(5, 1)
    q = field.q
    rng = np.random.default_rng(20260819)
    plus = vector_add(field)
    for _ in range(10):
        u = rng.integers(0, 4, size=q * q)
        v = rng.integers(0, 4, size=q * q)
        du = {divmod(i, q): int(c) for i, c in enumerate(u) if c}
        dv = {divmod(i, q): int(c) for i, c in enumerate(v) if c}
        expect = naive.dict_convolve(du, dv, plus)
        got = convolve(field, u, v)
        assert {divmod(i, q): int(c) for i, c in enumerate(got) if c} == expect


def test_convolve_rejects_wrong_length():
    field = make_field(3, 1)
    with pytest.raises(ValueError):
        convolve(field, np.ones(9, dtype=np.int64), np.ones(8, dtype=np.int64))


def test_full_line_sum_is_a_subgroup_indicator():
    field = make_field(5, 1)
    for s in range(6):
        vec = full_line_sum(field, s)
        assert vec.sum() == 5 and vec[0] == 1
        assert np.array_equal(convolve(field, vec, vec), 5 * vec)


@pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (5, 1), (3, 2)])
def test_full_line_sum_marks_the_line_points(p, e):
    field = make_field(p, e)
    q = field.q
    for s in range(q + 1):
        expect = np.zeros(q * q, dtype=np.int64)
        for x, y in naive.line_points(s, q, field.mul):
            expect[x * q + y] = 1
        got = full_line_sum(field, s)
        assert got.dtype == np.int64 and np.array_equal(got, expect)
    for bad in (-1, q + 1):
        with pytest.raises(ValueError, match="not a slope"):
            full_line_sum(field, bad)


# ---------------------------------------------------------------------------
# bases and axioms
# ---------------------------------------------------------------------------

def test_basis_canonical_order_and_validation():
    field = make_field(3, 1)
    basis = SchurBasis(field, [[4, 8], [1, 2, 3, 5, 6, 7], [0]])
    assert basis.blocks[0] == (0,)
    assert basis.blocks == ((0,), (1, 2, 3, 5, 6, 7), (4, 8))
    assert basis.class_of[4] == 2
    with pytest.raises(ValueError):
        SchurBasis(field, [[0], [1, 1, 2, 3, 4, 5, 6, 7, 8]])
    with pytest.raises(ValueError):
        SchurBasis(field, [[0], [1, 2, 3]])
    with pytest.raises(ValueError):
        SchurBasis(field, [[0], list(range(1, 9)), [9]])


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_induced_bases_satisfy_axioms(p, e):
    field = make_field(p, e)
    candidates = [singleton_partition(field), one_class_partition(field)]
    if field.q >= 5:
        candidates.append(wielandt_partition(field))
    for pi in candidates:
        check = verify_schur_axioms(SchurBasis.from_partition(pi))
        assert check.ok and check.failures == ()


def test_every_q5_induced_basis_satisfies_axioms():
    field = make_field(5, 1)
    for pi in enumerate_partitions(field):
        assert verify_schur_axioms(SchurBasis.from_partition(pi)).ok


def test_axiom_s1_witness():
    field = make_field(5, 1)
    blocks = [b for b in SchurBasis.from_partition(wielandt_partition(field)).blocks]
    merged = [tuple(sorted(blocks[0] + blocks[1]))] + blocks[2:]
    check = verify_schur_axioms(SchurBasis(field, merged))
    assert not check.ok
    assert any(f.startswith("S1:") for f in check.failures)


def test_axiom_s2_witness():
    field = make_field(5, 1)
    # split the slope-0 line {(x, 0)} into {5, 10} and {15, 20}: negation
    # swaps (1,0) with (4,0), crossing the cut
    rest = sorted(set(range(25)) - {0, 5, 10, 15, 20})
    check = verify_schur_axioms(SchurBasis(field, [[0], [5, 10], [15, 20], rest]))
    assert not check.ok
    assert any("S2" in f and "negation" in f for f in check.failures)


def test_axiom_s3_witness_on_negation_closed_corruption():
    field = make_field(5, 1)
    # swap the negation-closed pairs {5, 20} and {6, 24} between the lines
    # of slope 0 and slope 1: S1 and S2 survive, the ring structure not
    blocks = [[0], [6, 10, 15, 24], [5, 12, 18, 20],
              [7, 9, 11, 13, 14, 16, 17, 19, 21, 22, 23, 8],
              [1, 2, 3, 4]]
    check = verify_schur_axioms(SchurBasis(field, blocks))
    s1 = [f for f in check.failures if f.startswith("S1")]
    s2 = [f for f in check.failures if f.startswith("S2")]
    s3 = [f for f in check.failures if f.startswith("S3")]
    assert not check.ok and not s1 and not s2 and len(s3) == 1
    assert "class" in s3[0] and "point" in s3[0]


def first_s3_witness(field, blocks):
    """The S3 witness of the class pairs taken one at a time in (i, j)
    order, each product counted point by point; None if S3 holds."""
    q = field.q
    plus = vector_add(field)
    blocks = sorted(sorted(b) for b in blocks)
    class_of = {p: k for k, b in enumerate(blocks) for p in b}
    for i, j in np.ndindex(len(blocks), len(blocks)):
        prod = [0] * (q * q)
        for a in blocks[i]:
            for b in blocks[j]:
                x, y = plus(divmod(a, q), divmod(b, q))
                prod[x * q + y] += 1
        for k in range(q * q):
            rep = blocks[class_of[k]][0]
            if prod[k] != prod[rep]:
                return (f"S3: class {i} times class {j} takes value {prod[k]} "
                        f"at point {k} but {prod[rep]} at point {rep}, both "
                        f"in class {class_of[k]}")
    return None


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (5, 1)])
def test_s3_witness_is_the_first_pair_in_order(p, e):
    # random bases with 0 alone, closed under negation or not: the one
    # bincount must name the witness the pair-by-pair count finds first
    field = make_field(p, e)
    neg = group_tables(field)[1]
    rng = np.random.default_rng(p * 10 + e)
    seen = 0
    for trial in range(40):
        labels = rng.integers(1, 5, size=field.q ** 2)
        if trial % 2:
            labels = np.maximum(labels, labels[neg])  # closed under negation
        labels[0] = 0
        blocks = [np.flatnonzero(labels == c).tolist() for c in np.unique(labels)]
        expect = first_s3_witness(field, blocks)
        s3 = [f for f in verify_schur_axioms(SchurBasis(field, blocks)).failures
              if f.startswith("S3")]
        assert s3 == ([expect] if expect else [])
        seen += expect is not None
    assert seen > 0


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def test_structure_constants_wielandt_q5():
    field = make_field(5, 1)
    basis = SchurBasis.from_partition(wielandt_partition(field))
    table = structure_constants(basis)
    m = len(basis.blocks)
    sizes = np.array([len(b) for b in basis.blocks])
    # |B_i| |B_j| elements land somewhere
    for i in range(m):
        for j in range(m):
            assert (table[i, j] @ sizes) == sizes[i] * sizes[j]
    # the group is abelian, so the table is symmetric in i, j
    assert np.array_equal(table, table.transpose(1, 0, 2))
    # identity class multiplies trivially
    assert np.array_equal(table[0, 0], np.eye(m, dtype=np.int64)[0])
    for i in range(m):
        assert np.array_equal(table[0, i], np.eye(m, dtype=np.int64)[i])
    # the coefficient on the identity class counts inverse pairs: every
    # class here is negation closed, so it is |B_i| on the diagonal
    for i in range(m):
        for j in range(m):
            assert table[i, j, 0] == (sizes[i] if i == j else 0)


def test_structure_constants_match_dict_oracle():
    field = make_field(5, 1)
    q = field.q
    basis = SchurBasis.from_partition(wielandt_partition(field))
    table = structure_constants(basis)
    plus = vector_add(field)
    reps = [b[0] for b in basis.blocks]
    for i in range(len(basis.blocks)):
        di = {divmod(p, q): 1 for p in basis.blocks[i]}
        for j in range(len(basis.blocks)):
            dj = {divmod(p, q): 1 for p in basis.blocks[j]}
            prod = naive.dict_convolve(di, dj, plus)
            for k, rep in enumerate(reps):
                assert table[i, j, k] == prod.get(divmod(rep, q), 0)


def test_structure_constants_refuse_broken_basis():
    field = make_field(5, 1)
    blocks = [[0], [6, 10, 15, 24], [5, 12, 18, 20],
              [7, 9, 11, 13, 14, 16, 17, 19, 21, 22, 23, 8],
              [1, 2, 3, 4]]
    with pytest.raises(ValueError, match="S3"):
        structure_constants(SchurBasis(field, blocks))


# ---------------------------------------------------------------------------
# line-sum identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_line_sum_identities_hold(p, e):
    field = make_field(p, e)
    candidates = [singleton_partition(field), one_class_partition(field)]
    if field.q >= 5:
        candidates.append(wielandt_partition(field))
    for pi in candidates:
        check = verify_line_sum_identities(pi)
        assert check.ok, check.failures


def test_line_sum_identities_all_q5_partitions():
    field = make_field(5, 1)
    for pi in enumerate_partitions(field):
        assert verify_line_sum_identities(pi).ok


def test_grouped_line_products_numerically():
    # Q_i Q_j for the Wielandt partition of F_5, straight from the dict
    # oracle: the class {2, 3, 4} gives the constant vector 3 * 1 * 25 mass
    field = make_field(5, 1)
    q = field.q
    plus = vector_add(field)
    pi = wielandt_partition(field)
    grouped = []
    for cls in pi.classes:
        d = {}
        for s in cls:
            vec = full_line_sum(field, s)
            for idx, c in enumerate(vec):
                if c:
                    key = divmod(idx, q)
                    d[key] = d.get(key, 0) + int(c)
        grouped.append(d)
    big = next(i for i, cls in enumerate(pi.classes) if len(cls) == 3)
    one = next(i for i, cls in enumerate(pi.classes) if cls == (1,))
    prod = naive.dict_convolve(grouped[big], grouped[one], plus)
    assert set(prod.values()) == {3}
    square = naive.dict_convolve(grouped[big], grouped[big], plus)
    expect = {k: 5 * v for k, v in grouped[big].items()}
    for k in expect:
        expect[k] += 6
    missing = [(x, y) for x in range(q) for y in range(q)
               if (x, y) not in expect]
    for k in missing:
        expect[k] = 6
    assert square == expect
