"""The schurian oracle, the prediction, linear slope actions, census."""

import gc
import logging
import math
import os
import time
from typing import NamedTuple

import numpy as np
import pytest

import naive
from schurcensus import analysis, make_field
from schurcensus.errors import InconsistencyError, SizingError, WorkerError
from schurcensus.gf import field_from_literal
from schurcensus.lines import (
    LinePartition,
    all_slopes,
    condition_holds,
    condition_mask,
    enumerate_partitions,
    one_class_partition,
    orbit_labels,
    partition_array,
    singleton_partition,
    singleton_slopes,
    wielandt_partition,
)
from schurcensus.schur import SchurBasis
from schurcensus.analysis import (
    analyze_partition,
    cayley_color_graph,
    census,
    coerce_matrix,
    cross_validate,
    gl_matrices,
    gl_order,
    invariant_slopes,
    line_fixing_maps,
    matrix_point_permutation,
    nonschurian_criterion,
    scalar_perms,
    schurian_test,
    translation_perms,
    verify_slope_closure,
)
from schurcensus.perms import PermGroup, automorphism_group

STRETCH = pytest.mark.skipif(os.environ.get("SCHURCENSUS_STRETCH") != "1",
                             reason="set SCHURCENSUS_STRETCH=1 for the large-field runs")


def assert_no_child_left():
    # every forked worker has been reaped: this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def diag_embed(field, block):
    e = field.e
    sigma = np.zeros((2 * e, 2 * e), dtype=np.int64)
    sigma[:e, :e] = block
    sigma[e:, e:] = block
    return sigma


# ---------------------------------------------------------------------------
# the Cayley color graph
# ---------------------------------------------------------------------------

def test_cayley_graph_colors_are_difference_classes():
    field = make_field(5, 1)
    basis = SchurBasis.from_partition(wielandt_partition(field))
    graph = cayley_color_graph(basis)
    assert np.array_equal(np.diagonal(graph.edge_colors), np.zeros(25))
    # spot check: color(u, v) is the class of v - u
    for u, v in ((3, 7), (10, 2), (24, 24), (0, 13)):
        diff = field.add(v // 5, field.neg(u // 5)) * 5 \
            + field.add(v % 5, field.neg(u % 5))
        assert graph.edge_colors[u, v] == basis.class_of[diff]


def test_translations_are_automorphisms():
    field = make_field(3, 1)
    basis = SchurBasis.from_partition(singleton_partition(field))
    aut = automorphism_group(cayley_color_graph(basis))
    perms = translation_perms(field)
    assert not perms.flags.writeable  # the cached group table itself
    for v, t in enumerate(perms):
        assert t in aut
        assert t[0] == v


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def test_wielandt_q5_is_not_schurian():
    field = make_field(5, 1)
    report = schurian_test(SchurBasis.from_partition(wielandt_partition(field)))
    assert not report.schurian
    # translations and the four scalar maps account for the whole group
    assert report.aut_order == 25 * 4
    assert report.stabilizer_order == 4
    # the scalars cannot merge punctured lines, so the 12-point class
    # splits into three line orbits
    assert sorted(len(o) for o in report.stabilizer_orbits) == [1] + [4] * 6
    assert sorted(len(c) for c in report.classes) == [1, 4, 4, 4, 12]


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (5, 1)])
def test_singleton_partition_is_schurian(p, e):
    field = make_field(p, e)
    report = schurian_test(SchurBasis.from_partition(singleton_partition(field)))
    assert report.schurian
    assert report.stabilizer_orbits == report.classes
    assert report.aut_order == field.q ** 2 * report.stabilizer_order


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2)])
def test_one_class_partition_is_schurian(p, e):
    field = make_field(p, e)
    n = field.q ** 2
    report = schurian_test(SchurBasis.from_partition(one_class_partition(field)))
    assert report.schurian
    assert report.aut_order == math.factorial(n)
    assert report.stabilizer_order == math.factorial(n - 1)


def test_oracle_rejects_broken_bases():
    field = make_field(5, 1)
    rest = sorted(set(range(25)) - {0, 5, 10, 15, 20})
    with pytest.raises(ValueError, match="S2"):
        schurian_test(SchurBasis(field, [[0], [5, 10], [15, 20], rest]))


def test_oracle_rejects_an_intransitive_group(monkeypatch):
    # a search that lost its generators must not pass for a verdict: the
    # one-class ring of 3^1 is schurian, but a trivial group would call it
    # non-schurian with |Aut| = 1
    monkeypatch.setattr(analysis, "automorphism_group",
                        lambda graph, cap, **_: PermGroup(graph.n))
    basis = SchurBasis.from_partition(one_class_partition(make_field(3, 1)))
    with pytest.raises(InconsistencyError, match="not transitive"):
        schurian_test(basis)


def test_oracle_rejects_a_group_without_the_scalars(monkeypatch):
    # the translations alone pass the transitivity guard (|Aut| = 9 * 1),
    # but without the scalar maps the one-class ring of 3^1 would come
    # back non-schurian
    field = make_field(3, 1)
    monkeypatch.setattr(analysis, "automorphism_group",
                        lambda graph, cap, **_: PermGroup(9, translation_perms(field)))
    basis = SchurBasis.from_partition(one_class_partition(field))
    with pytest.raises(InconsistencyError, match="scalar map by 2"):
        schurian_test(basis)


@pytest.mark.parametrize("make, p, e, drops", [
    (one_class_partition, 3, 1, 8),
    (one_class_partition, 5, 1, 24),
    (wielandt_partition, 5, 1, 3),
    (singleton_partition, 5, 1, 3),
    (singleton_partition, 2, 2, 3),
])
def test_oracle_rejects_a_lost_generator(monkeypatch, make, p, e, drops):
    # the chain is exact only for a strong generating set, so the guards
    # are what stand between a search that lost a generator and a verdict;
    # the search runs as tests call it and seeded with the translations,
    # as the oracle calls it
    field = make_field(p, e)
    basis = SchurBasis.from_partition(make(field))
    for table in (None, translation_perms(field)):
        aut = automorphism_group(cayley_color_graph(basis), translations=table)
        assert len(aut.generators) == drops
        for k in range(drops):
            kept = aut.generators[:k] + aut.generators[k + 1:]
            monkeypatch.setattr(analysis, "automorphism_group",
                                lambda graph, cap, **_: PermGroup(graph.n, kept, base=aut.base))
            with pytest.raises(InconsistencyError):
                schurian_test(basis)


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (5, 1)])
def test_scalars_fix_every_line(p, e):
    field = make_field(p, e)
    pi = singleton_partition(field)
    aut = automorphism_group(cayley_color_graph(SchurBasis.from_partition(pi)))
    blocks = SchurBasis.from_partition(pi).blocks
    for g in scalar_perms(field):
        assert g in aut
        assert all(sorted(g[list(b)].tolist()) == list(b) for b in blocks)


def test_oracle_cap():
    field = make_field(11, 1)
    with pytest.raises(SizingError):
        schurian_test(SchurBasis.from_partition(singleton_partition(field)), cap=100)


def test_analyze_partition_wielandt():
    report = analyze_partition(wielandt_partition(make_field(5, 1)))
    assert report.oracle_verdict == "non_schurian"
    assert report.criterion_verdict == "predicts_nonschurian"
    assert report.consistent
    assert report.scheme_rank == 5
    assert report.aut_order == 100
    assert report.class_sizes == (1, 4, 4, 4, 12)
    assert report.stabilizer_orbit_sizes == (1, 4, 4, 4, 4, 4, 4)


def test_analyze_partition_singleton():
    report = analyze_partition(singleton_partition(make_field(5, 1)))
    assert report.oracle_verdict == "schurian"
    assert report.criterion_verdict == "no_prediction"
    assert report.consistent
    assert report.scheme_rank == 7
    assert report.stabilizer_orbit_sizes == report.class_sizes == (1,) + (4,) * 6


# ---------------------------------------------------------------------------
# the prediction
# ---------------------------------------------------------------------------

def test_criterion_reports():
    f5 = make_field(5, 1)
    direct = nonschurian_criterion(wielandt_partition(f5))
    assert direct.holds and direct.normalized_holds
    assert direct.normalized == wielandt_partition(f5)

    shifted = nonschurian_criterion(
        LinePartition(f5, [[2], [3], [4], [0, 1, 5]]))
    assert not shifted.holds
    assert shifted.normalized_holds
    assert shifted.matrix is not None

    bare = nonschurian_criterion(one_class_partition(f5))
    assert not bare.holds
    assert bare.normalized is None and bare.normalized_holds is None


def test_criterion_gf9_prime_subfield_singletons_predict_nothing():
    # singleton slopes exactly {inf, 0, 1, 2}: the finite part is the
    # prime subfield of GF(9), so no prediction either way
    f9 = make_field(3, 2)
    pi = LinePartition(f9, [[0], [1], [2], [9], [3, 4, 5, 6, 7, 8]])
    assert singleton_slopes(pi) == {0, 1, 2, 9}
    report = nonschurian_criterion(pi)
    assert not report.holds
    assert report.normalized_holds is False


# ---------------------------------------------------------------------------
# linear maps on slopes
# ---------------------------------------------------------------------------

def test_matrix_point_permutation_is_an_action():
    for p, e in ((5, 1), (3, 2)):
        field = make_field(p, e)
        dim = 2 * field.e
        assert np.array_equal(
            matrix_point_permutation(field, np.eye(dim, dtype=int)),
            np.arange(field.q ** 2))
        rng = np.random.default_rng(20260819)
        picked = 0
        while picked < 5:
            a = rng.integers(0, p, size=(dim, dim))
            b = rng.integers(0, p, size=(dim, dim))
            try:
                pa = matrix_point_permutation(field, a)
                pb = matrix_point_permutation(field, b)
            except ValueError:
                continue  # singular draw
            picked += 1
            # rows act on the right, so a applies first in a @ b
            assert np.array_equal(
                matrix_point_permutation(field, a @ b % p), pb[pa])
            assert np.array_equal(np.sort(pa), np.arange(field.q ** 2))


def test_coerce_matrix_rejects_bad_input():
    field = make_field(5, 1)
    with pytest.raises(ValueError, match="singular"):
        coerce_matrix(field, [[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="2 x 2"):
        coerce_matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_invariant_slopes_scalar_and_diagonal():
    field = make_field(5, 1)
    assert invariant_slopes(field, 3 * np.eye(2, dtype=int)) \
        == set(all_slopes(field))
    # diag(1, 2) rescales slopes by 2: only 0 and the vertical line stay
    assert invariant_slopes(field, [[1, 0], [0, 2]]) == {0, 5}
    # a shear sends slope a to a + 1, keeping only the vertical line
    assert invariant_slopes(field, [[1, 1], [0, 1]]) == {5}


@pytest.mark.parametrize("p, e", [(2, 2), (5, 1), (3, 2)])
def test_invariant_slopes_match_the_line_point_sets(p, e):
    # the reference moves each line's point set and compares it whole
    field = make_field(p, e)
    q, dim = field.q, 2 * e
    members = [{x * q + y for x, y in naive.line_points(s, q, field.mul)}
               for s in all_slopes(field)]
    rng = np.random.default_rng(20261019)
    picked = 0
    while picked < 60:
        sigma = rng.integers(0, p, size=(dim, dim))
        if picked % 2:
            sigma = diag_embed(field, sigma[:e, :e])  # fixes 0 and inf at least
        try:
            perm = matrix_point_permutation(field, sigma)
        except ValueError:
            continue  # singular draw
        picked += 1
        expect = {s for s, points in enumerate(members)
                  if {int(perm[k]) for k in points} == points}
        assert invariant_slopes(field, sigma) == expect


def test_gf9_frobenius_fixes_the_prime_subfield_slopes():
    field = make_field(3, 2)
    # x -> x^3 on coordinate rows: row i holds the image of zeta^i
    frob = np.array([field.coords(field.power(field.zeta, i * field.p))
                     for i in range(field.e)], dtype=np.int64)
    assert frob.tolist() == [[1, 0], [2, 2]]
    sigma = diag_embed(field, frob)
    assert invariant_slopes(field, sigma) == {0, 1, 2, 9}
    report = verify_slope_closure(field, sigma)
    assert report.is_subfield
    assert report.invariant == {0, 1, 2, 9}


@pytest.mark.parametrize("p, e", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_line_fixing_maps_close_over_a_subfield(p, e):
    field = make_field(p, e)
    subfields = field.subfields()
    count = 0
    for sigma in line_fixing_maps(field):
        report = verify_slope_closure(field, sigma)
        assert report.is_subfield
        assert {0, 1, field.q} <= report.invariant
        assert report.invariant - {field.q} in subfields
        count += 1
    assert count == gl_order(p, e)


def test_line_fixing_maps_match_brute_force_q4():
    # over GF(4) the whole of GL(4, 2) is small enough to sieve directly
    field = make_field(2, 2)
    brute = [sigma for sigma in gl_matrices(2, 4)
             if {0, 1, 4} <= invariant_slopes(field, sigma)]
    assert len(brute) == gl_order(2, 2)
    param = sorted(s.tolist() for s in line_fixing_maps(field))
    assert sorted(s.tolist() for s in brute) == param


def test_line_fixing_maps_match_brute_force_q5():
    field = make_field(5, 1)
    brute = [sigma for sigma in gl_matrices(5, 2)
             if {0, 1, 5} <= invariant_slopes(field, sigma)]
    assert sorted(s.tolist() for s in brute) \
        == sorted(s.tolist() for s in line_fixing_maps(field))


def test_slope_closure_precondition():
    field = make_field(5, 1)
    with pytest.raises(ValueError, match="slope 1"):
        verify_slope_closure(field, [[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="slope 0"):
        verify_slope_closure(field, [[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# GL enumeration
# ---------------------------------------------------------------------------

def test_gl_enumeration_counts():
    assert sum(1 for _ in gl_matrices(2, 2)) == 6
    assert sum(1 for _ in gl_matrices(3, 2)) == 48
    assert sum(1 for _ in gl_matrices(5, 2)) == 480
    assert sum(1 for _ in gl_matrices(2, 3)) == 168
    assert sum(1 for _ in gl_matrices(2, 4)) == 20160  # 65,536 candidates
    assert gl_order(7, 2) == 2016
    assert gl_order(3, 4) == 24261120


def test_gl_refuses_a_p_that_is_not_prime():
    # Z/4 is no field: |GL(2, Z/4)| is 96, but the formula for F_p
    # would read 180 there
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            gl_order(p, 2)
        with pytest.raises(ValueError, match="p must be prime"):
            gl_matrices(p, 2)  # at the call, before any iteration


def test_gl_cap():
    with pytest.raises(SizingError):
        gl_matrices(3, 4)  # just above the default cap
    # the cap bounds the p**(dim*dim) candidates the sieve tests, not
    # |GL(5, 2)| = 9,999,360, so 2**25 candidates are refused at the call,
    # and a dim far too large before the power is formed
    assert gl_order(2, 5) < analysis.DEFAULT_GL_CAP < 2 ** 25
    for dim in (5, 10 ** 6):
        with pytest.raises(SizingError, match="candidate matrices"):
            gl_matrices(2, dim)


def test_gl_first_matrix_is_deterministic():
    first = next(iter(gl_matrices(3, 2)))
    assert first.tolist() == [[0, 1], [1, 0]]


# ---------------------------------------------------------------------------
# census and cross-validation
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    partition: str
    predicts: bool
    schurian: bool
    aut_order: int


def census_rows(table):
    """The census as (text, prediction) pairs, decoded from its columns."""
    return list(zip(table.texts.astype(str).tolist(), table.predicts.tolist()))


def cross_rows(table):
    """The cross-validation as one ``Row`` per partition, decoded from its
    columns, with the verdict and |Aut| looked up by each row's orbit."""
    orbits = table.orbit.tolist()
    return list(map(Row, table.texts.astype(str).tolist(), table.predicts.tolist(),
                    [bool(table.orbit_schurian[k]) for k in orbits],
                    [table.aut_orders[k] for k in orbits]))


def test_census_counts():
    for p, e, bell, expect in ((2, 1, 5, 0), (3, 1, 15, 0), (2, 2, 52, 0),
                               (5, 1, 203, 4)):
        table = census(make_field(p, e))
        assert table.total == bell
        assert table.predicted == expect
    field = make_field(5, 1)
    assert [text for text, predicts in census_rows(census(field)) if predicts] == [
        str(pi) for pi in enumerate_partitions(field)
        if nonschurian_criterion(pi).holds]


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])
def test_census_rows_match_the_per_partition_path(p, e):
    # the census renders its rows in bulk from the partition array; the
    # reference builds every row
    field = make_field(p, e)
    expected = [(str(pi), condition_holds(pi)) for pi in enumerate_partitions(field)]
    table = census(field)
    assert census_rows(table) == expected
    assert table.total == len(expected)
    assert table.predicted == sum(predicts for _, predicts in expected)


def test_census_builds_no_partition_one_at_a_time(monkeypatch):
    # texts and verdicts come from the array in bulk: no per-row
    # LinePartition and no condition_holds call
    calls = []
    real_condition, real_init = analysis.condition_holds, LinePartition.__init__

    def counting_condition(pi):
        calls.append(pi)
        return real_condition(pi)

    def counting_init(self, *args):
        calls.append(args)
        real_init(self, *args)

    monkeypatch.setattr(analysis, "condition_holds", counting_condition)
    monkeypatch.setattr(LinePartition, "__init__", counting_init)
    for p, e, bell in ((5, 1, 203), (2, 3, 21147)):
        assert census(make_field(p, e)).total == bell
    assert not calls
    with pytest.raises(SizingError, match="census cap of 12"):
        census(make_field(13, 1))
    assert not calls


def test_cross_validate_q5_all():
    field = make_field(5, 1)
    result = cross_validate(field, scope="all", workers=1)
    assert result.total == 203
    assert result.predicted_nonschurian == 4
    assert result.predicted_schurian == 0
    assert result.unpredicted_schurian \
        + result.unpredicted_nonschurian == 199
    # the verdict is kept once per orbit, next to |Aut|
    assert result.orbit_schurian.dtype == bool
    assert len(result.orbit_schurian) == len(result.aut_orders) \
        == int(result.orbit.max()) + 1 == 13
    for row in cross_rows(result):
        if row.predicts:
            assert not row.schurian
    by_text = {row.partition: row for row in cross_rows(result)}
    assert by_text[str(one_class_partition(field))].schurian
    assert by_text[str(singleton_partition(field))].schurian
    assert not by_text[str(wielandt_partition(field))].schurian


def test_cross_validate_scope_filtered_and_workers(monkeypatch):
    field = make_field(5, 1)
    seq = cross_validate(field, scope="filtered", workers=1)
    assert seq.total == seq.predicted_nonschurian == 4
    assert seq.unpredicted_schurian == seq.unpredicted_nonschurian == 0
    # the filtered scope has 2 orbits and "all" has 13: 5 workers leave
    # 3 with nothing to do, and 3 split the 13 orbits 5/4/4
    for scope, workers in (("filtered", 2), ("filtered", 5), ("all", 3)):
        seq = cross_validate(field, scope=scope, workers=1)
        par = cross_validate(field, scope=scope, workers=workers)
        assert type(par) is type(seq)
        for name, a, b in zip(seq._fields, par, seq):
            assert np.array_equal(a, b), (scope, workers, name)
    assert_no_child_left()

    def no_fork():
        raise AssertionError("a worker was forked for no orbit")
    monkeypatch.setattr(analysis.os, "fork", no_fork)
    assert cross_validate(make_field(2, 1), scope="filtered", workers=2).total == 0


@pytest.mark.parametrize("p, e, stride", [
    pytest.param(2, 1, 1, id="2-1"),
    pytest.param(3, 1, 1, id="3-1"),
    pytest.param(5, 1, 1, id="5-1"),
    pytest.param(2, 2, 1, id="2-2"),
    pytest.param(7, 1, 1, id="7-1", marks=[pytest.mark.stretch, STRETCH]),
    # the direct oracle takes about 9 ms a partition at 64 points, so it
    # sees every 5th of the 21147 rows of 2^3
    pytest.param(2, 3, 5, id="2-3", marks=[pytest.mark.stretch, STRETCH]),
])
def test_cross_validate_rows_match_the_direct_oracle(p, e, stride):
    # one oracle run per PGammaL(2, q)-orbit; 2^2 and 2^3 have a Frobenius
    # generator.  Texts and predictions come from the array in bulk; the
    # reference builds every partition
    field = make_field(p, e)
    rows = cross_rows(cross_validate(field, workers=1))
    partitions = list(enumerate_partitions(field))
    assert [row.partition for row in rows] == [str(pi) for pi in partitions]
    assert [row.predicts for row in rows] == [condition_holds(pi) for pi in partitions]
    assert cross_rows(cross_validate(field, scope="filtered", workers=1)) == [
        row for row in rows if row.predicts]
    for row, pi in zip(rows[::stride], partitions[::stride]):
        direct = schurian_test(SchurBasis.from_partition(pi))
        assert (row.schurian, row.aut_order) == (direct.schurian, direct.aut_order)


def test_cross_validate_builds_one_partition_per_orbit(monkeypatch):
    # rows come from the array in bulk, as in the census: one LinePartition
    # for each orbit's representative, which the worker takes as it is,
    # and one condition_holds call on each representative
    inits, checks = [], []
    real_condition, real_init = analysis.condition_holds, LinePartition.__init__

    def counting_condition(pi):
        checks.append(pi)
        return real_condition(pi)

    def counting_init(self, *args):
        inits.append(args)
        real_init(self, *args)

    monkeypatch.setattr(analysis, "condition_holds", counting_condition)
    monkeypatch.setattr(LinePartition, "__init__", counting_init)
    for p, e, scope, rows, orbits in ((5, 1, "all", 203, 13),
                                      (5, 1, "filtered", 4, 2),
                                      (2, 3, "all", 21147, 49)):
        inits.clear()
        checks.clear()
        assert cross_validate(make_field(p, e), scope=scope, workers=1).total == rows
        assert (len(inits), len(checks)) == (orbits, orbits)


@pytest.mark.parametrize("scope", ["all", "filtered"])
@pytest.mark.parametrize("literal", [
    "5^1", "7^1", "2^3",
    pytest.param("3^2", marks=[pytest.mark.stretch, STRETCH]),
])
def test_cross_validate_numbers_the_orbits_by_their_first_row(monkeypatch, literal, scope):
    # the oracle gets each orbit's first chosen row, in row order, and the
    # orbits are numbered in that order; the reference sorts the labels
    field = field_from_literal(literal)
    received = []

    def recording(pi, oracle_cap):
        received.append(str(pi))
        return False, 1

    monkeypatch.setattr(analysis, "_oracle_worker", recording)
    table = cross_validate(field, scope=scope, workers=1)
    rgs, labels = partition_array(field), orbit_labels(field)
    if scope == "filtered":
        chosen = condition_mask(field, rgs)
        rgs, labels = rgs[chosen], labels[chosen]
    _, firsts, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    number = np.empty(len(order), dtype=np.int64)
    number[order] = np.arange(len(order))
    assert received == [str(pi) for pi in enumerate_partitions(field, rgs[firsts[order]])]
    assert table.orbit.dtype == np.int32
    assert table.orbit.tolist() == number[inverse.ravel()].tolist()
    assert len(table.aut_orders) == len(received)


@pytest.mark.parametrize("scope", ["all", "filtered"])
@pytest.mark.parametrize("row, text", [(0, "0,1,2,3,4,inf"), (-1, "0|1|2|3|4|inf")],
                         ids=["one-class", "singletons"])
def test_cross_validate_checks_the_mask_per_orbit(monkeypatch, scope, row, text):
    # the one-class and the all-singleton partition are each an orbit of
    # their own, and neither meets the condition: flipping its bit in the
    # bulk mask contradicts its representative's condition_holds verdict
    real = analysis.condition_mask

    def flipped(field, rows):
        mask = real(field, rows)
        mask[row] = not mask[row]
        return mask

    monkeypatch.setattr(analysis, "condition_mask", flipped)
    with pytest.raises(InconsistencyError) as info:
        cross_validate(make_field(5, 1), scope=scope, workers=1)
    assert str(info.value) == (
        f"partition {text}: condition_holds gives False but the condition "
        f"mask gives True")


def test_cross_validate_runs_the_oracle_once_per_orbit(monkeypatch, caplog):
    field = make_field(5, 1)
    seen = []
    real = analysis.schurian_test

    def counting(basis, *, cap):
        seen.append(basis)
        return real(basis, cap=cap)

    monkeypatch.setattr(analysis, "schurian_test", counting)
    with caplog.at_level(logging.INFO, logger="schurcensus.analysis"):
        cross_validate(field, workers=1)
        cross_validate(field, scope="filtered", workers=1)
    assert len(seen) == 13 + 2
    messages = [r.getMessage() for r in caplog.records
                if r.name == "schurcensus.analysis"]
    assert messages == [
        "cross-validate 5^1 scope all: 203 partitions in 13 orbits",
        "cross-validate 5^1 scope filtered: 4 partitions in 2 orbits",
    ]


def test_cross_validate_aborts_per_orbit(monkeypatch):
    # pretend the oracle finds the Wielandt orbit of 5^1 schurian
    field = make_field(5, 1)
    labels = orbit_labels(field).tolist()
    partitions = list(enumerate_partitions(field))
    target = labels[partitions.index(wielandt_partition(field))]
    orbit = [pi for pi, label in zip(partitions, labels) if label == target]
    flipped = {SchurBasis.from_partition(pi) for pi in orbit}
    real = analysis.schurian_test

    def lying(basis, *, cap):
        report = real(basis, cap=cap)
        return report._replace(schurian=True) if basis in flipped else report

    monkeypatch.setattr(analysis, "schurian_test", lying)
    first = next(pi for pi in orbit if analysis.condition_holds(pi))
    # the same message in process and from forked workers, which are all
    # reaped after the abort
    for workers in (1, 2):
        with pytest.raises(InconsistencyError) as info:
            cross_validate(field, workers=workers)
        assert str(info.value) == (
            f"partition {first} is predicted non-schurian but the oracle finds "
            f"it schurian")
        with pytest.raises(InconsistencyError, match=f"partition {first} "):
            cross_validate(field, scope="filtered", workers=workers)
        assert_no_child_left()


def test_a_worker_exception_reaches_the_parent(monkeypatch):
    # the oracle's own alarm, raised in a forked worker on the first orbit
    # (the one-class ring) while the other worker is still running
    field = make_field(5, 1)
    target = SchurBasis.from_partition(one_class_partition(field))
    real = analysis.schurian_test

    def alarmed(basis, *, cap):
        if basis == target:
            raise InconsistencyError("stabilizer orbit (1, 2) straddles classes [1, 2]")
        return real(basis, cap=cap)

    monkeypatch.setattr(analysis, "schurian_test", alarmed)
    with pytest.raises(InconsistencyError) as info:
        cross_validate(field, workers=2)
    assert type(info.value) is InconsistencyError
    assert str(info.value) == "stabilizer orbit (1, 2) straddles classes [1, 2]"
    assert_no_child_left()


def test_forked_workers_freeze_what_they_inherit(monkeypatch):
    # a collection in a worker would write to every object it inherited, and
    # so copy the parent's pages; each worker reports its frozen count
    monkeypatch.setattr(analysis, "_oracle_worker",
                        lambda pi, oracle_cap: (False, gc.get_freeze_count()))
    table = cross_validate(make_field(3, 1), workers=2)
    assert len(table.aut_orders) > 1
    assert min(table.aut_orders) > gc.get_freeze_count() + 1000
    assert_no_child_left()


def test_cross_validate_guards():
    with pytest.raises(SizingError):
        cross_validate(make_field(11, 1))
    with pytest.raises(ValueError, match="scope"):
        cross_validate(make_field(5, 1), scope="some")


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    # pinned to one CPU of several, the pool must not oversubscribe it
    monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
    assert analysis.default_workers() == 1

    def no_fork():
        raise AssertionError("a worker was forked on a single allowed CPU")
    monkeypatch.setattr(analysis.os, "fork", no_fork)
    assert cross_validate(make_field(3, 1)).total == 15


def test_without_fork_there_is_one_worker(monkeypatch):
    # no silent fallback: an explicit count above 1 is refused before any
    # work, which would trip over the missing partition_array
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(analysis, "partition_array", None)
    assert analysis.default_workers() == 1
    with pytest.raises(ValueError, match="needs os.fork"):
        cross_validate(make_field(3, 1), workers=2)
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert cross_validate(make_field(3, 1)).total == 15


def test_cross_validate_takes_only_a_worker_count_of_at_least_one(monkeypatch):
    # the CLI refuses these; the library used to run them as one process
    def no_run(*args, **kwargs):
        raise AssertionError("a run started on a bad worker count")
    monkeypatch.setattr(analysis.os, "fork", no_run)
    monkeypatch.setattr(analysis, "_oracle_worker", no_run)
    for workers in (0, -1, 1.5, True, "2"):
        with pytest.raises(ValueError, match="workers must be an integer"):
            cross_validate(make_field(3, 1), workers=workers)
    monkeypatch.undo()
    assert cross_validate(make_field(3, 1), workers=np.int64(1)).total == 15


_real_worker = analysis._oracle_worker


def _worker_dying_on_one_class(pi, oracle_cap):
    if len(pi.classes) == 1:
        os._exit(1)  # no exception, no cleanup: as if killed
    return _real_worker(pi, oracle_cap)


def test_a_dead_worker_breaks_the_run(monkeypatch):
    # the pool used to lose the dead worker's task and wait for it forever
    monkeypatch.setattr(analysis, "_oracle_worker", _worker_dying_on_one_class)
    start = time.perf_counter()
    with pytest.raises(WorkerError, match="ended before sending all its results"):
        cross_validate(make_field(3, 1), workers=2)
    assert time.perf_counter() - start < 30
    assert_no_child_left()
    # a worker that sends every result but exits with a nonzero status
    monkeypatch.undo()
    real_exit = os._exit
    monkeypatch.setattr(analysis.os, "_exit", lambda status: real_exit(3))
    with pytest.raises(WorkerError, match="exited with status 3"):
        cross_validate(make_field(3, 1), workers=2)
    assert_no_child_left()
