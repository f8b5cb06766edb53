"""Schurian verdicts for line-partition Schur rings, and the census.

A Schur basis is *schurian* when its classes are exactly the orbits of the
point stabilizer of some transitive group on V; by a classical argument it
is enough to look at the full automorphism group of the Cayley color graph
(vertices V, the pair (u, v) colored by the class of v - u).  Translations
are always automorphisms, so that group is transitive and the test reduces
to: do the orbits of the stabilizer of 0 equal the classes?  Those orbits
always refine the classes, which gives a built-in consistency alarm.

The predictive side never touches automorphisms: a partition whose
singleton slopes contain 0, 1 and infinity while their finite part is not
a subfield can never be schurian.  ``census`` streams the partitions the
prediction applies to, and ``cross_validate`` runs the oracle against the
prediction, raising ``InconsistencyError`` the moment they disagree.

A semilinear map of V fixes 0 and permutes the lines, so it carries the
Cayley color graph of a partition onto that of its image: the oracle
verdict and |Aut| are constant on PGammaL(2, q)-orbits of partitions, while
the prediction, which pins 0, 1 and infinity, is not.  ``cross_validate``
therefore runs the oracle once per orbit, on the orbit's first partition
in enumeration order, and evaluates the prediction on every partition.

The linear-map helpers make the subfield obstruction concrete: a matrix in
GL(2e, p) fixing the lines of slope 0, 1 and infinity must be a pair of
equal diagonal blocks, and the finite slopes it fixes form a subfield.
Matrices act on coordinate rows (x and y coordinates over the prime field,
concatenated), so composition reads left to right.
"""

from __future__ import annotations

import concurrent.futures
import functools
import logging
import math
import os
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import InconsistencyError, PartitionFormatError, SizingError
from .gf import Field, field_from_literal
from .lines import (
    LinePartition,
    OrbitKeys,
    all_slopes,
    condition_holds,
    enumerate_partitions,
    line_points,
    mobius_normalize,
    point_index,
    singleton_slopes,
)
from .perms import DEFAULT_ORACLE_CAP, ColorGraph, automorphism_group
from .schur import SchurBasis, group_tables, verify_schur_axioms

DEFAULT_GL_CAP = 10 ** 7  # refuse to enumerate larger general linear groups

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# the schurian oracle
# ---------------------------------------------------------------------------

def cayley_color_graph(basis: SchurBasis) -> ColorGraph:
    """The complete graph on V with (u, v) colored by the class of v - u.
    The identity class colors exactly the diagonal."""
    add, neg = group_tables(basis.field)
    differences = add[neg[:, None], np.arange(add.shape[0])[None, :]]
    return ColorGraph(basis.class_of[differences])


def translation_perms(field: Field) -> list[np.ndarray]:
    """The regular action of V on itself, one permutation per element."""
    add, _ = group_tables(field)
    return [add[:, t].astype(np.int32) for t in range(add.shape[0])]


def scalar_perms(field: Field) -> list[np.ndarray]:
    """The maps (x, y) -> (ax, ay), one per a != 0; they fix every line."""
    mul = field.mul_table()
    x, y = np.divmod(np.arange(field.q ** 2), field.q)
    return [(mul[a, x] * field.q + mul[a, y]).astype(np.int32)
            for a in field.units()]


class OracleReport(NamedTuple):
    schurian: bool
    aut_order: int
    stabilizer_order: int
    stabilizer_orbits: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]


def schurian_test(basis: SchurBasis, *, cap: int = DEFAULT_ORACLE_CAP) -> OracleReport:
    """Decide whether the basis is the orbit partition of the stabilizer
    of 0 inside the automorphism group of its Cayley color graph.

    Raises ValueError for bases that flunk the Schur axioms and
    InconsistencyError if the group is not transitive, misses a
    translation or a scalar map (automorphisms of every such graph), or
    its stabilizer orbits fail to refine the classes (impossible unless
    the machinery itself is broken, for instance a search that lost
    generators).
    """
    check = verify_schur_axioms(basis)
    if not check.ok:
        raise ValueError("not a Schur ring basis: " + "; ".join(check.failures))
    graph = cayley_color_graph(basis)
    aut = automorphism_group(graph, cap=cap)
    stab = aut.point_stabilizer()
    aut_order, stab_order = aut.order(), stab.order()
    if aut_order != basis.field.q ** 2 * stab_order:
        raise InconsistencyError(
            f"automorphism group of order {aut_order} is not transitive: "
            f"its stabilizer of 0 has order {stab_order}")
    field = basis.field
    missing = [f"the translation by point {t}"
               for t, g in enumerate(translation_perms(field)) if g not in aut]
    missing += [f"the scalar map by {a}"
                for a, g in zip(field.units(), scalar_perms(field)) if g not in aut]
    if missing:
        raise InconsistencyError(
            f"automorphism group of order {aut_order} misses {missing[0]}")
    orbits = stab.orbits()
    for orbit in orbits:
        marks = {int(basis.class_of[v]) for v in orbit}
        if len(marks) > 1:
            raise InconsistencyError(
                f"stabilizer orbit {orbit} straddles classes {sorted(marks)}")
    return OracleReport(
        schurian=orbits == basis.blocks,
        aut_order=aut_order,
        stabilizer_order=stab_order,
        stabilizer_orbits=orbits,
        classes=basis.blocks,
    )


SCHURIAN = "schurian"
NON_SCHURIAN = "non_schurian"
PREDICTS_NONSCHURIAN = "predicts_nonschurian"
NO_PREDICTION = "no_prediction"


class SchurianReport(NamedTuple):
    """One partition, both verdicts, and the orbit evidence behind them.

    ``consistent`` is False exactly when the prediction and the oracle
    contradict each other, which would falsify the sufficient condition."""
    partition: LinePartition
    scheme_rank: int
    aut_order: int
    stabilizer_orbit_sizes: tuple[int, ...]
    class_sizes: tuple[int, ...]
    oracle_verdict: str
    criterion_verdict: str
    consistent: bool


def analyze_partition(pi: LinePartition, *,
                      oracle_cap: int = DEFAULT_ORACLE_CAP) -> SchurianReport:
    """Run the oracle and the prediction on one partition side by side."""
    outcome = schurian_test(SchurBasis.from_partition(pi), cap=oracle_cap)
    predicts = condition_holds(pi)
    return SchurianReport(
        partition=pi,
        scheme_rank=len(outcome.classes),
        aut_order=outcome.aut_order,
        stabilizer_orbit_sizes=tuple(sorted(len(o) for o in outcome.stabilizer_orbits)),
        class_sizes=tuple(sorted(len(c) for c in outcome.classes)),
        oracle_verdict=SCHURIAN if outcome.schurian else NON_SCHURIAN,
        criterion_verdict=PREDICTS_NONSCHURIAN if predicts else NO_PREDICTION,
        consistent=not (predicts and outcome.schurian),
    )


# ---------------------------------------------------------------------------
# the prediction
# ---------------------------------------------------------------------------

class CriterionReport(NamedTuple):
    """``holds`` is the verdict on the partition exactly as given; the
    normalized fields describe the partition after moving its three least
    singleton slopes to 0, 1, infinity (None when that is impossible)."""
    holds: bool
    normalized_holds: Optional[bool]
    normalized: Optional[LinePartition]
    matrix: Optional[tuple[tuple[int, int], tuple[int, int]]]


def nonschurian_criterion(pi: LinePartition) -> CriterionReport:
    """The sufficient condition for a non-schurian verdict, as given and
    after fractional-linear normalization."""
    moved = mobius_normalize(pi)
    if moved is None:
        return CriterionReport(condition_holds(pi), None, None, None)
    return CriterionReport(
        condition_holds(pi), condition_holds(moved.partition),
        moved.partition, moved.matrix)


# ---------------------------------------------------------------------------
# linear maps on coordinate rows
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _coordinate_rows(field: Field) -> np.ndarray:
    return np.array([field.coords(a) for a in field.elements()], dtype=np.int64)


def coerce_matrix(field: Field, matrix) -> np.ndarray:
    """An invertible 2e x 2e matrix over F_p, from a numpy integer array or
    nested lists of integers, reduced mod p as Python integers (so entries
    of any size are fine).  Raises PartitionFormatError for an entry that
    is not an integer (bool, float, str) and ValueError for a wrong shape
    or a singular matrix."""
    dim = 2 * field.e
    rows = matrix.tolist() if isinstance(matrix, np.ndarray) else matrix
    if not (isinstance(rows, (list, tuple)) and len(rows) == dim
            and all(isinstance(r, (list, tuple)) and len(r) == dim for r in rows)):
        raise ValueError(
            f"need a {dim} x {dim} matrix over the prime field of {field}, "
            f"as {dim} rows of {dim} integers")
    bad = [x for row in rows for x in row
           if isinstance(x, bool) or not isinstance(x, (int, np.integer))]
    if bad:
        raise PartitionFormatError(
            f"matrix entries must be integers, got {bad[0]!r}")
    arr = np.array([[int(x) % field.p for x in row] for row in rows], dtype=np.int64)
    if _rank_mod_p(arr, field.p) != dim:
        raise ValueError("matrix is singular over the prime field")
    return arr


def _rank_mod_p(matrix: np.ndarray, p: int) -> int:
    work = (matrix % p).astype(np.int64).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if work[r, col] % p), None)
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        inv = pow(int(work[rank, col]), -1, p)
        work[rank] = work[rank] * inv % p
        for r in range(rows):
            if r != rank and work[r, col]:
                work[r] = (work[r] - work[r, col] * work[rank]) % p
        rank += 1
    return rank


def matrix_point_permutation(field: Field, matrix) -> np.ndarray:
    """The bijection of flat point indices induced by a row-acting matrix
    in GL(2e, p)."""
    sigma = coerce_matrix(field, matrix)
    q, e, p = field.q, field.e, field.p
    coords = _coordinate_rows(field)
    x, y = np.divmod(np.arange(q * q), q)
    rows = np.concatenate([coords[x], coords[y]], axis=1)
    image = rows @ sigma % p
    weights = p ** np.arange(e, dtype=np.int64)
    return ((image[:, :e] @ weights) * q + image[:, e:] @ weights).astype(np.int32)


def invariant_slopes(field: Field, matrix) -> frozenset[int]:
    """The slopes s with sigma(L_s) = L_s, for invertible sigma acting on
    coordinate rows."""
    perm = matrix_point_permutation(field, matrix)
    out = []
    for s in all_slopes(field):
        members = {point_index(field, pt) for pt in line_points(field, s)}
        if {int(perm[m]) for m in members} == members:
            out.append(s)
    return frozenset(out)


class ClosureReport(NamedTuple):
    """What a map fixing the slope-0, slope-1 and vertical lines must look
    like: equal diagonal blocks, and a subfield of fixed finite slopes
    (identical whether read off the lines or off commutation with the
    multiplication matrices)."""
    invariant: frozenset[int]
    is_subfield: bool
    block: np.ndarray


def verify_slope_closure(field: Field, matrix) -> ClosureReport:
    """Check the subfield structure of the finite slopes fixed by a matrix
    that fixes L_0, L_1 and L_infinity.  Raises ValueError, naming the
    line, when the precondition fails."""
    sigma = coerce_matrix(field, matrix)
    fixed = invariant_slopes(field, sigma)
    for s, name in ((0, "slope 0"), (1, "slope 1"), (field.q, "the vertical line")):
        if s not in fixed:
            raise ValueError(f"matrix does not fix {name}")
    e = field.e
    a, b = sigma[:e, :e], sigma[:e, e:]
    c, d = sigma[e:, :e], sigma[e:, e:]
    if b.any() or c.any() or not np.array_equal(a, d):
        raise InconsistencyError(
            "a map fixing the three reference lines must be a repeated "
            "diagonal block, but this one is not")
    commuting = frozenset(
        s for s in range(field.q)
        if np.array_equal(field.regular_representation(s) @ a % field.p,
                          a @ field.regular_representation(s) % field.p))
    if commuting != fixed - {field.q}:
        raise InconsistencyError(
            f"fixed finite slopes {sorted(fixed - {field.q})} disagree with "
            f"the commutation route {sorted(commuting)}")
    return ClosureReport(fixed, field.is_subfield(fixed - {field.q}), a)


def gl_order(p: int, dim: int) -> int:
    return math.prod(p ** dim - p ** i for i in range(dim))


def gl_matrices(p: int, dim: int) -> Iterator[np.ndarray]:
    """Every invertible dim x dim matrix over F_p, rows chosen outside the
    span of the earlier ones, in lexicographic order."""
    total = gl_order(p, dim)
    if total > DEFAULT_GL_CAP:
        raise SizingError(
            f"GL({dim}, {p}) has {total} elements, above the cap of "
            f"{DEFAULT_GL_CAP}")
    vectors = [np.array(v, dtype=np.int64)
               for v in np.ndindex(*([p] * dim))]

    def rec(rows: list[np.ndarray], span: set[tuple[int, ...]]) -> Iterator[np.ndarray]:
        if len(rows) == dim:
            yield np.array(rows, dtype=np.int64)
            return
        for v in vectors:
            key = tuple(v.tolist())
            if key in span:
                continue
            grown = set(span)
            for s in list(span):
                base = np.array(s, dtype=np.int64)
                for c in range(1, p):
                    grown.add(tuple(((base + c * v) % p).tolist()))
            yield from rec(rows + [v], grown)

    zero = tuple([0] * dim)
    return rec([], {zero})


def line_fixing_maps(field: Field) -> Iterator[np.ndarray]:
    """All matrices in GL(2e, p) fixing L_0, L_1 and the vertical line:
    exactly the repeated diagonal blocks diag(A, A) with A invertible."""
    e = field.e
    for a in gl_matrices(field.p, e):
        sigma = np.zeros((2 * e, 2 * e), dtype=np.int64)
        sigma[:e, :e] = a
        sigma[e:, e:] = a
        yield sigma


# ---------------------------------------------------------------------------
# census and cross-validation
# ---------------------------------------------------------------------------

class CensusRow(NamedTuple):
    partition: str
    predicts: bool


class Census(NamedTuple):
    field: str
    total: int
    predicted: int
    rows: tuple[CensusRow, ...]


def census(field: Field) -> Census:
    """Tabulate the prediction over every partition of the slopes, in
    enumeration order.  No oracle runs; this is the cheap half of the
    cross-validation and works for any field under the fixed census cap
    of 12 slopes (q <= 11)."""
    rows = tuple(CensusRow(str(pi), condition_holds(pi))
                 for pi in enumerate_partitions(field))
    return Census(
        field=field.literal,
        total=len(rows),
        predicted=sum(r.predicts for r in rows),
        rows=rows,
    )


class CrossRow(NamedTuple):
    partition: str
    predicts: bool
    schurian: bool
    aut_order: int


class CrossValidation(NamedTuple):
    """Counts are tabulated by (prediction, oracle) pair.  The
    predicted_schurian cell stays zero: a run that would put anything
    there aborts with InconsistencyError instead."""
    field: str
    scope: str
    total: int
    predicted_nonschurian: int
    predicted_schurian: int
    unpredicted_nonschurian: int
    unpredicted_schurian: int
    rows: tuple[CrossRow, ...]


def _oracle_worker(payload) -> tuple[bool, int]:
    literal, classes, oracle_cap = payload
    pi = LinePartition(field_from_literal(literal), classes)
    report = schurian_test(SchurBasis.from_partition(pi), cap=oracle_cap)
    return report.schurian, report.aut_order


def default_workers() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cross_validate(field: Field, *, scope: str = "all",
                   oracle_cap: int = DEFAULT_ORACLE_CAP,
                   workers: Optional[int] = None) -> CrossValidation:
    """Run the schurian oracle against the prediction over a whole field.

    scope "all" examines every partition of the slopes; scope "filtered"
    only the ones the prediction covers.  The oracle runs once per
    PGammaL(2, q)-orbit, on the orbit's first partition, and its verdict
    and |Aut| stand for every partition of the orbit.  The moment an orbit
    holding a predicted partition comes back schurian the whole run aborts
    with InconsistencyError, naming the first such partition.  Results
    are in enumeration order whatever the worker count.  A worker that
    dies raises concurrent.futures.process.BrokenProcessPool.
    """
    if scope not in ("all", "filtered"):
        raise ValueError(f"scope must be 'all' or 'filtered', not {scope!r}")
    if field.q ** 2 > oracle_cap:
        raise SizingError(
            f"{field} needs the oracle on {field.q ** 2} points, above the "
            f"cap of {oracle_cap}")
    source = enumerate_partitions(
        field, condition_holds if scope == "filtered" else None)
    orbit_key = OrbitKeys(field)
    entries = []  # (partition, orbit key, predicted) in enumeration order
    representative: dict = {}
    first_predicted: dict = {}
    for pi in source:
        key = orbit_key(pi.classes)
        predicts = scope == "filtered" or condition_holds(pi)
        entries.append((pi, key, predicts))
        representative.setdefault(key, pi)
        if predicts:
            first_predicted.setdefault(key, pi)
    logger.info("cross-validate %s scope %s: %d partitions in %d orbits",
                field.literal, scope, len(entries), len(representative))

    payloads = [(field.literal, pi.classes, oracle_cap)
                for pi in representative.values()]
    workers = default_workers() if workers is None else max(1, int(workers))
    workers = min(workers, len(payloads))
    verdicts: dict = {}
    # the executor module loads on first use, so runs without a pool
    # never import it
    pool = concurrent.futures.ProcessPoolExecutor(workers) if workers > 1 else None
    try:
        produced = (pool.map(_oracle_worker, payloads) if pool
                    else map(_oracle_worker, payloads))
        for key, verdict in zip(representative, produced):
            if verdict[0] and key in first_predicted:
                raise InconsistencyError(
                    f"partition {first_predicted[key]} is predicted "
                    f"non-schurian but the oracle finds it schurian")
            verdicts[key] = verdict
    finally:
        if pool is not None:
            # drop the runs not yet started and join the workers, whose
            # CPU time only then counts in the RUSAGE_CHILDREN of this process
            pool.shutdown(cancel_futures=True)

    rows = [CrossRow(str(pi), predicts, *verdicts[key])
            for pi, key, predicts in entries]
    return CrossValidation(
        field=field.literal,
        scope=scope,
        total=len(rows),
        predicted_nonschurian=sum(r.predicts and not r.schurian for r in rows),
        predicted_schurian=sum(r.predicts and r.schurian for r in rows),
        unpredicted_nonschurian=sum(not r.predicts and not r.schurian for r in rows),
        unpredicted_schurian=sum(not r.predicts and r.schurian for r in rows),
        rows=tuple(rows),
    )
