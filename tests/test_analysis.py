"""The schurian oracle, the prediction, linear slope actions, census."""

import logging
import math
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from schurcensus import analysis, make_field
from schurcensus.errors import InconsistencyError, SizingError
from schurcensus.lines import (
    LinePartition,
    OrbitKeys,
    all_slopes,
    enumerate_partitions,
    one_class_partition,
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
    for t in translation_perms(field):
        assert t in aut


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
                        lambda graph, cap: PermGroup(graph.n))
    basis = SchurBasis.from_partition(one_class_partition(make_field(3, 1)))
    with pytest.raises(InconsistencyError, match="not transitive"):
        schurian_test(basis)


def test_oracle_rejects_a_group_without_the_scalars(monkeypatch):
    # the translations alone pass the transitivity guard (|Aut| = 9 * 1),
    # but without the scalar maps the one-class ring of 3^1 would come
    # back non-schurian
    field = make_field(3, 1)
    monkeypatch.setattr(analysis, "automorphism_group",
                        lambda graph, cap: PermGroup(9, translation_perms(field)))
    basis = SchurBasis.from_partition(one_class_partition(field))
    with pytest.raises(InconsistencyError, match="scalar map by 2"):
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
    assert gl_order(7, 2) == 2016
    assert gl_order(3, 4) == 24261120


def test_gl_cap():
    with pytest.raises(SizingError):
        gl_matrices(3, 4)  # just above the default cap


def test_gl_first_matrix_is_deterministic():
    first = next(iter(gl_matrices(3, 2)))
    assert first.tolist() == [[0, 1], [1, 0]]


# ---------------------------------------------------------------------------
# census and cross-validation
# ---------------------------------------------------------------------------

def test_census_counts():
    for p, e, bell, expect in ((2, 1, 5, 0), (3, 1, 15, 0), (2, 2, 52, 0),
                               (5, 1, 203, 4)):
        table = census(make_field(p, e))
        assert table.total == bell
        assert table.predicted == expect
    field = make_field(5, 1)
    assert [r.partition for r in census(field).rows if r.predicts] == [
        str(pi) for pi in enumerate_partitions(field)
        if nonschurian_criterion(pi).holds]


def test_cross_validate_q5_all():
    field = make_field(5, 1)
    result = cross_validate(field, scope="all", workers=1)
    assert result.total == 203
    assert result.predicted_nonschurian == 4
    assert result.predicted_schurian == 0
    assert result.unpredicted_schurian \
        + result.unpredicted_nonschurian == 199
    for row in result.rows:
        if row.predicts:
            assert not row.schurian
    by_text = {row.partition: row for row in result.rows}
    assert by_text[str(one_class_partition(field))].schurian
    assert by_text[str(singleton_partition(field))].schurian
    assert not by_text[str(wielandt_partition(field))].schurian


def test_cross_validate_scope_filtered_and_workers():
    field = make_field(5, 1)
    seq = cross_validate(field, scope="filtered", workers=1)
    assert seq.total == seq.predicted_nonschurian == 4
    assert seq.unpredicted_schurian == seq.unpredicted_nonschurian == 0
    par = cross_validate(field, scope="filtered", workers=2)
    assert par == seq


@pytest.mark.parametrize("p, e", [(5, 1), (2, 2)])
def test_cross_validate_rows_match_the_direct_oracle(p, e):
    # one oracle run per PGammaL(2, q)-orbit; 2^2 has a Frobenius generator
    field = make_field(p, e)
    rows = cross_validate(field, workers=1).rows
    partitions = list(enumerate_partitions(field))
    assert [row.partition for row in rows] == [str(pi) for pi in partitions]
    for row, pi in zip(rows, partitions):
        direct = schurian_test(SchurBasis.from_partition(pi))
        assert (row.schurian, row.aut_order) == (direct.schurian, direct.aut_order)


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
    key = OrbitKeys(field)
    target = key(wielandt_partition(field).classes)
    orbit = [pi for pi in enumerate_partitions(field) if key(pi.classes) == target]
    flipped = {SchurBasis.from_partition(pi) for pi in orbit}
    real = analysis.schurian_test

    def lying(basis, *, cap):
        report = real(basis, cap=cap)
        return report._replace(schurian=True) if basis in flipped else report

    monkeypatch.setattr(analysis, "schurian_test", lying)
    first = next(pi for pi in orbit if analysis.condition_holds(pi))
    with pytest.raises(InconsistencyError) as info:
        cross_validate(field, workers=1)
    assert str(info.value) == (
        f"partition {first} is predicted non-schurian but the oracle finds "
        f"it schurian")
    with pytest.raises(InconsistencyError, match=f"partition {first} "):
        cross_validate(field, scope="filtered", workers=1)


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

    def no_pool(*args):
        raise AssertionError("a pool was started on a single allowed CPU")
    monkeypatch.setattr(analysis.concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cross_validate(make_field(3, 1)).total == 15


_real_worker = analysis._oracle_worker


def _worker_dying_on_one_class(payload):
    if len(payload[1]) == 1:
        os._exit(1)  # no exception, no cleanup: as if killed
    return _real_worker(payload)


def test_a_dead_worker_breaks_the_run(monkeypatch):
    # the pool used to lose the dead worker's task and wait for it forever
    monkeypatch.setattr(analysis, "_oracle_worker", _worker_dying_on_one_class)
    start = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        cross_validate(make_field(3, 1), workers=2)
    assert time.perf_counter() - start < 30
