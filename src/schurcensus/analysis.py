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
a subfield can never be schurian.  ``census`` tabulates the prediction
over every partition of the slopes, and ``cross_validate`` runs the oracle
against the prediction, raising ``InconsistencyError`` the moment they
disagree.

A semilinear map of V fixes 0 and permutes the lines, so it carries the
Cayley color graph of a partition onto that of its image: the oracle
verdict and |Aut| are constant on PGammaL(2, q)-orbits of partitions, while
the prediction, which pins 0, 1 and infinity, is not.  ``cross_validate``
therefore runs the oracle once per orbit, on the orbit's first partition
in enumeration order, and evaluates the prediction on every partition.
Both functions read their rows off ``lines.partition_array`` in bulk and
their predictions off ``lines.condition_mask``; cross-validation groups
them by ``lines.orbit_labels`` and builds only the orbit representatives.
The tables they return hold columns, one array per field of a row (the
int8 RGS rows themselves, predictions, orbit numbers) and the oracle
verdict and |Aut| once per orbit, never a Python object per row; the
text of a row is report layout, rendered only by ``cli.emit_report``.
On more than one worker the orbit representatives go to children forked
with ``os.fork`` once they are chosen: child j runs representatives j,
j + workers, ... from the memory it inherits and pipes back one pickled
verdict each, and the parent reads verdict k from child k % workers, in
orbit order; a child that dies raises ``WorkerError``.

The linear-map helpers make the subfield obstruction concrete: a matrix in
GL(2e, p) fixing the lines of slope 0, 1 and infinity must be a pair of
equal diagonal blocks, and the finite slopes it fixes form a subfield.
Matrices act on coordinate rows (x and y coordinates over the prime field,
concatenated), so composition reads left to right.
"""

from __future__ import annotations

import functools
import gc
import itertools
import logging
import math
import numbers
import os
import pickle
from typing import Iterator, NamedTuple, NoReturn, Optional

import numpy as np

from .errors import InconsistencyError, PartitionFormatError, SizingError, WorkerError
from .gf import Field, _is_prime
from .lines import (
    LinePartition,
    all_slopes,
    condition_holds,
    condition_mask,
    enumerate_partitions,
    mobius_normalize,
    orbit_labels,
    partition_array,
    partition_texts,
    point_slopes,
)
from .perms import DEFAULT_ORACLE_CAP, ColorGraph, automorphism_group, dense_ranks
from .schur import SchurBasis, group_tables, verify_schur_axioms

DEFAULT_GL_CAP = 10 ** 7  # most candidate matrices gl_matrices will sieve

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# the schurian oracle
# ---------------------------------------------------------------------------

def cayley_color_graph(basis: SchurBasis) -> ColorGraph:
    """The complete graph on V with (u, v) colored by the class of v - u.
    The identity class colors exactly the diagonal."""
    add, neg = group_tables(basis.field)
    return ColorGraph(basis.class_of[add[neg]])  # row u of add[neg] adds -u


def translation_perms(field: Field) -> np.ndarray:
    """The regular action of V on itself: V is abelian, so row v of its
    read-only addition table from ``schur.group_tables`` adds v."""
    return group_tables(field)[0]


def scalar_perms(field: Field) -> np.ndarray:
    """The maps (x, y) -> (ax, ay), one row per a != 0; they fix every line."""
    mul = field.mul_table()
    x, y = np.divmod(np.arange(field.q ** 2), field.q)
    units = np.asarray(field.units())[:, None]
    return (mul[units, x] * field.q + mul[units, y]).astype(np.int32)


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
    the machinery itself is broken).  The search is handed the
    translations (``translation_perms``) and takes them as its depth-0
    generators instead of searching for them; it raises
    InconsistencyError itself if one of them fails its color check.  The
    chain is read straight off the search's generators with no closure,
    so a search that lost a generator leaves the group too small, and
    these guards are the only backstop against it.  With the translations
    seeded, the transitivity and translation guards check the chain built
    from the generators, and the scalar guard still checks the search
    below depth 0, which finds the scalar maps.  Every one of the q^2
    translations and q - 1 scalar maps is checked, not only generators of
    their groups: a chain built from a set that is not strong need not be
    a group, so passing on generators would prove less.  They are stacked into one int32
    array and sifted together by ``PermGroup.member_mask``; the error
    names the first map missing, translations first.
    """
    check = verify_schur_axioms(basis)
    if not check.ok:
        raise ValueError("not a Schur ring basis: " + "; ".join(check.failures))
    field = basis.field
    graph = cayley_color_graph(basis)
    aut = automorphism_group(graph, cap=cap, translations=translation_perms(field))
    stab = aut.point_stabilizer()
    aut_order, stab_order = aut.order(), stab.order()
    if aut_order != basis.field.q ** 2 * stab_order:
        raise InconsistencyError(
            f"automorphism group of order {aut_order} is not transitive: "
            f"its stabilizer of 0 has order {stab_order}")
    guards = np.concatenate((translation_perms(field), scalar_perms(field)))
    missing = np.flatnonzero(~aut.member_mask(guards))
    if missing.size:
        k = int(missing[0])
        name = (f"the translation by point {k}" if k < field.q ** 2
                else f"the scalar map by {field.units()[k - field.q ** 2]}")
        raise InconsistencyError(
            f"automorphism group of order {aut_order} misses {name}")
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
    reduced = [[int(x) % field.p for x in row] for row in rows]
    if _rank_mod_p(reduced, field.p) != dim:
        raise ValueError("matrix is singular over the prime field")
    return np.array(reduced, dtype=np.int64)


def _rank_mod_p(rows, p: int) -> int:
    """The rank over F_p of rows of Python ints in 0..p-1, eliminated as
    lists: numpy scalars make the sieve in ``gl_matrices`` about 4x slower."""
    work = list(rows)  # rows are replaced, never written into
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        top = work[pivot]
        work[pivot] = work[rank]
        inv = pow(top[col], -1, p)
        for r in range(rank + 1, len(work)):
            if c := work[r][col] * inv % p:
                work[r] = [(x - c * t) % p for x, t in zip(work[r], top)]
        rank += 1
    return rank


def matrix_point_permutation(field: Field, matrix) -> np.ndarray:
    """The bijection of flat point indices induced by a row-acting matrix
    in GL(2e, p)."""
    sigma = coerce_matrix(field, matrix)
    q, e, p = field.q, field.e, field.p
    coords = field.digit_table()
    x, y = np.divmod(np.arange(q * q), q)
    rows = np.concatenate([coords[x], coords[y]], axis=1)
    image = rows @ sigma % p
    weights = p ** np.arange(e, dtype=np.int64)
    return ((image[:, :e] @ weights) * q + image[:, e:] @ weights).astype(np.int32)


def invariant_slopes(field: Field, matrix) -> frozenset[int]:
    """The slopes s with sigma(L_s) = L_s, for invertible sigma acting on
    coordinate rows."""
    slopes = point_slopes(field)
    # a line is moved as soon as one of its points leaves it
    moved = slopes[slopes[matrix_point_permutation(field, matrix)] != slopes]
    return frozenset(all_slopes(field)).difference(moved.tolist())


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
    """|GL(dim, p)|; raises ValueError unless p is prime."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return math.prod(p ** dim - p ** i for i in range(dim))


def gl_matrices(p: int, dim: int) -> Iterator[np.ndarray]:
    """Every invertible dim x dim matrix over F_p, in lexicographic order
    of its rows: the dim-fold product of the vectors of F_p^dim, kept when
    ``_rank_mod_p`` gives full rank.  A p that is not prime (ValueError)
    and more than DEFAULT_GL_CAP candidates p**(dim*dim) (SizingError,
    before the power is formed) are refused at the call."""
    if p <= DEFAULT_GL_CAP and not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if dim * dim > DEFAULT_GL_CAP.bit_length() or p ** (dim * dim) > DEFAULT_GL_CAP:
        raise SizingError(f"GL({dim}, {p}) has {p}**{dim * dim} candidate matrices, "
                          f"above the cap of {DEFAULT_GL_CAP}")
    vectors = list(itertools.product(range(p), repeat=dim))
    return (np.array(rows, dtype=np.int64)
            for rows in itertools.product(vectors, repeat=dim)
            if _rank_mod_p(rows, p) == dim)


def line_fixing_maps(field: Field) -> Iterator[np.ndarray]:
    """All matrices in GL(2e, p) fixing L_0, L_1 and the vertical line:
    exactly the repeated diagonal blocks diag(A, A) with A invertible."""
    pair = np.eye(2, dtype=np.int64)
    return (np.kron(pair, a) for a in gl_matrices(field.p, field.e))


# ---------------------------------------------------------------------------
# census and cross-validation
# ---------------------------------------------------------------------------

class Census(NamedTuple):
    """Row i is the partition with RGS row ``rows[i]`` (the cached,
    read-only ``partition_array``) and its prediction ``predicts[i]``."""
    field: str
    total: int
    predicted: int
    rows: np.ndarray
    predicts: np.ndarray


def census(field: Field) -> Census:
    """Tabulate the prediction over every partition of the slopes, in
    enumeration order, read off ``partition_array`` in bulk into two
    columns, with no partition built one at a time and no Python object
    per row.  No oracle runs; this is the cheap half of the
    cross-validation and works for any field under the fixed census cap
    of 12 slopes (q <= 11)."""
    rgs = partition_array(field)
    predicts = condition_mask(field, rgs)
    return Census(
        field=field.literal,
        total=len(rgs),
        predicted=int(predicts.sum()),
        rows=rgs,
        predicts=predicts,
    )


class CrossValidation(NamedTuple):
    """Counts are tabulated by (prediction, oracle) pair.  The
    predicted_schurian cell stays zero: a run that would put anything
    there aborts with InconsistencyError instead.

    Row i is the partition with int8 RGS row ``rows[i]`` (with scope
    "all", the cached ``partition_array`` itself) and its prediction
    ``predicts[i]``; it lies in orbit ``orbit[i]``, and its oracle verdict
    ``orbit_schurian[orbit[i]]`` and |Aut| ``aut_orders[orbit[i]]`` are
    read through it, since the oracle runs once per orbit.  Orbits are
    numbered in the order of their first row."""
    field: str
    scope: str
    total: int
    predicted_nonschurian: int
    predicted_schurian: int
    unpredicted_nonschurian: int
    unpredicted_schurian: int
    rows: np.ndarray
    predicts: np.ndarray
    orbit: np.ndarray
    orbit_schurian: np.ndarray
    aut_orders: tuple[int, ...]


def _oracle_worker(pi: LinePartition, oracle_cap: int) -> tuple[bool, int]:
    outcome = schurian_test(SchurBasis.from_partition(pi), cap=oracle_cap)
    return outcome.schurian, outcome.aut_order


def default_workers() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count; 1 where there is no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(run, items, write_fd: int) -> NoReturn:
    """The body of a forked worker: call ``run`` on each item and write
    each result, or the exception it raised, to the pipe as one pickled
    (ok, value) record, stopping after an exception.  Exit 0 after the
    last record and 1 on any failure to send one; ``os._exit`` skips the
    parent's cleanup and buffers, which belong to the parent."""
    status = 1
    try:
        gc.freeze()  # no collection here writes to, and so copies, the parent's pages
        with open(write_fd, "wb") as out:
            for item in items:
                try:
                    record = (True, run(item))
                except Exception as exc:
                    record = (False, exc)
                # pickled whole first, so a record that cannot be pickled
                # leaves no partial bytes in the pipe
                out.write(pickle.dumps(record))
                out.flush()
                if not record[0]:
                    break
        status = 0
    finally:
        os._exit(status)


def _forked_results(run, items: list, workers: int) -> Iterator:
    """``map(run, items)`` from ``workers`` forked children: child j runs
    items j, j + workers, ..., read from the memory it inherits, and
    result k is read from child k % workers.

    An exception a child sends is raised here with its type and message; a
    child that ends before its last record, or exits with a nonzero
    status, raises WorkerError.  Every child is reaped with
    ``waitpid`` however the generator ends, so its CPU time counts in the
    RUSAGE_CHILDREN of this process; when the results are not all read
    (an error, or ``close()`` from the caller) the children are killed
    first."""
    readers, pids = [], []
    received = False
    try:
        for j in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(run, items[j::workers], write_fd)
                pids.append(pid)
            finally:
                # with only the child holding the write end, its death
                # reads as end of file
                os.close(write_fd)
        for k in range(len(items)):
            try:
                ok, value = pickle.load(readers[k % workers])
            except (EOFError, pickle.UnpicklingError):
                raise WorkerError(
                    f"cross-validate worker {pids[k % workers]} ended before "
                    f"sending all its results") from None
            if not ok:
                raise value
            yield value
        received = True
    finally:
        if not received:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        for reader in readers:
            reader.close()
    failed = [code for code in codes if code]
    if failed:
        raise WorkerError(f"a cross-validate worker exited with status {failed[0]}")


def cross_validate(field: Field, *, scope: str = "all",
                   oracle_cap: int = DEFAULT_ORACLE_CAP,
                   workers: Optional[int] = None) -> CrossValidation:
    """Run the schurian oracle against the prediction over a whole field.

    scope "all" examines every partition of the slopes; scope "filtered"
    only the ones ``condition_mask`` predicts.  The oracle runs once per
    PGammaL(2, q)-orbit (``orbit_labels``), on the orbit's first chosen
    partition in enumeration order, the only one built as a
    ``LinePartition``; its verdict and |Aut| stand for the whole orbit,
    and its ``condition_holds`` verdict must equal its mask bit or the run
    raises InconsistencyError.  The table holds the rows as columns: the
    RGS rows, predictions and orbit numbers as arrays, and the verdict and
    |Aut| once per orbit.  The orbits are numbered 0, 1, ... in the
    order of their first chosen rows: ``np.minimum.at`` over the labels
    finds each first row, and ``dense_ranks`` of each row's first row is
    its orbit number, with no sort.  The moment an orbit holding a predicted
    partition comes back schurian the whole run aborts with
    InconsistencyError, naming the first such partition.  Results are in
    enumeration order whatever the worker count.

    ``workers`` None means ``default_workers()``; anything but an integer
    of at least 1 (a bool included), or more than 1 on a platform without
    ``os.fork``, raises ValueError before any work.  One worker runs the
    oracle in this process.  More are forked children, at most one per
    orbit, each taking every workers-th orbit in turn, so the shares
    differ by at most one orbit; this process runs no oracle and checks
    the verdicts in orbit order as they arrive.  An exception raised in a
    worker is raised here with its type and message; a worker that dies
    raises WorkerError.  Every worker is reaped before the call returns
    or raises, and killed first when the run stops early.
    """
    if scope not in ("all", "filtered"):
        raise ValueError(f"scope must be 'all' or 'filtered', not {scope!r}")
    if workers is None:
        workers = default_workers()
    elif isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer of at least 1, not {workers!r}")
    elif workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"{workers} workers needs os.fork, which this platform lacks")
    if field.q ** 2 > oracle_cap:
        raise SizingError(
            f"{field} needs the oracle on {field.q ** 2} points, above the "
            f"cap of {oracle_cap}")
    rgs = partition_array(field)
    labels = orbit_labels(field)
    predicts = condition_mask(field, rgs)
    first = np.full(len(rgs), len(rgs))  # label -> its orbit's first chosen row
    if scope == "filtered":
        rgs, labels, predicts = rgs[predicts], labels[predicts], predicts[predicts]
    np.minimum.at(first, labels, np.arange(len(rgs)))
    firsts, orbit = dense_ranks(first[labels])
    logger.info("cross-validate %s scope %s: %d partitions in %d orbits",
                field.literal, scope, len(rgs), len(firsts))

    reps = list(enumerate_partitions(field, rgs[firsts]))
    workers = min(workers, len(reps))
    orbit_schurian = np.zeros(len(firsts), dtype=bool)
    aut_orders = []
    run = functools.partial(_oracle_worker, oracle_cap=oracle_cap)
    produced = _forked_results(run, reps, workers) if workers > 1 else map(run, reps)
    try:
        for k, (found, aut_order) in enumerate(produced):
            holds = condition_holds(reps[k])
            if holds != predicts[firsts[k]]:
                raise InconsistencyError(
                    f"partition {reps[k]}: condition_holds gives "
                    f"{holds} but the condition mask gives {not holds}")
            predicted = np.flatnonzero(predicts & (orbit == k)) if found else ()
            if len(predicted):
                raise InconsistencyError(
                    f"partition {partition_texts(field, rgs[predicted[:1]])[0].decode()} is "
                    f"predicted non-schurian but the oracle finds it schurian")
            orbit_schurian[k] = found
            aut_orders.append(aut_order)
    finally:
        if workers > 1:
            # on an abort, kill and reap the workers now, not at collection
            produced.close()

    schurian = orbit_schurian[orbit]
    return CrossValidation(
        field=field.literal,
        scope=scope,
        total=len(rgs),
        predicted_nonschurian=int((predicts & ~schurian).sum()),
        predicted_schurian=int((predicts & schurian).sum()),
        unpredicted_nonschurian=int((~predicts & ~schurian).sum()),
        unpredicted_schurian=int((~predicts & schurian).sum()),
        rows=rgs,
        predicts=predicts,
        orbit=orbit.astype(np.int32),
        orbit_schurian=orbit_schurian,
        aut_orders=tuple(aut_orders),
    )
