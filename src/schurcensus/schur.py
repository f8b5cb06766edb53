"""Schur ring bases over the additive group of V = F_q x F_q.

The group algebra Z[V] is handled as integer vectors of length q^2 indexed
by flat point index, with multiplication given by additive convolution:
(u * v)[k] counts pairs summing to k, weighted by the coefficients.  A
candidate Schur ring is described by a ``SchurBasis``, a partition of V
into classes whose sums are meant to span a subring.  That happens exactly
when three axioms hold:

  S1  the identity 0 is a class of its own,
  S2  every class is closed under negation,
  S3  every product of two class sums is constant on every class.

One ``bincount`` over the ordered pairs of points, keyed by the pair of
classes and the sum, computes every product of class sums at once; it
yields both the S3 witness and the multiplication table.
``verify_schur_axioms`` checks the three axioms in that order and reports
the first witness of each violated one; ``structure_constants`` returns
the table of the class sums, refusing bases that break S3.

Line partitions induce such bases (origin alone, then one class per slope
class), and the sums over full lines satisfy closed-form products: a line
is a subgroup of order q and two distinct lines are complementary, so
L_a * L_a = q L_a and L_a * L_b covers V exactly once.
``verify_line_sum_identities`` confirms those products, and the grouped
versions over partition classes, by raw convolution.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple

import numpy as np

from .errors import SizingError
from .gf import Field
from .lines import LinePartition, point_slopes

DEFAULT_GROUP_CAP = 2048  # largest |V| we materialize an addition table for


@functools.lru_cache(maxsize=None)
def group_tables(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Addition and negation of V on flat point indices, as read-only
    (n, n) and (n,) int32 arrays (they are cached per field)."""
    n = field.q ** 2
    if n > DEFAULT_GROUP_CAP:
        raise SizingError(
            f"group of order {n} over {field} exceeds the table cap "
            f"of {DEFAULT_GROUP_CAP} elements")
    a = field.add_table()
    neg = field.neg_table()
    x, y = np.divmod(np.arange(n), field.q)
    add = a[x[:, None], x[None, :]].astype(np.int64) * field.q \
        + a[y[:, None], y[None, :]]
    tables = add.astype(np.int32), (neg[x] * field.q + neg[y]).astype(np.int32)
    for table in tables:
        table.setflags(write=False)
    return tables


def full_line_sum(field: Field, s: int) -> np.ndarray:
    """The indicator vector of the full line of slope s, origin included."""
    if not 0 <= s <= field.q:
        raise ValueError(f"{s} is not a slope for {field}")
    slopes = point_slopes(field)
    return ((slopes == s) | (slopes == -1)).astype(np.int64)


def convolve(field: Field, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The group algebra product of two integer coefficient vectors."""
    add, _ = group_tables(field)
    n = add.shape[0]
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"coefficient vectors for {field} must have length {n}")
    weights = (u[:, None] * v[None, :]).ravel()
    out = np.bincount(add.ravel(), weights=weights, minlength=n)
    return np.rint(out).astype(np.int64)


class SchurBasis:
    """A partition of V into candidate basis classes, canonically ordered
    by least point index (so a lone origin class always comes first)."""

    __slots__ = ("field", "blocks", "class_of")

    def __init__(self, field: Field, blocks: Iterable[Iterable[int]]):
        n = field.q ** 2
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        class_of = np.full(n, -1, dtype=np.int32)
        for k, block in enumerate(canon):
            if not block:
                raise ValueError("empty class in basis")
            for p in block:
                if not 0 <= p < n:
                    raise ValueError(f"{p} is not a point index for {field}")
                if class_of[p] != -1:
                    raise ValueError(f"point {p} occurs in two classes")
                class_of[p] = k
        if (class_of == -1).any():
            missing = int(np.flatnonzero(class_of == -1)[0])
            raise ValueError(f"basis misses point {missing}")
        self.field = field
        self.blocks = canon
        self.class_of = class_of

    @classmethod
    def from_partition(cls, pi: LinePartition) -> "SchurBasis":
        """The basis a line partition induces: the origin alone, then each
        class of slopes pulled back to the union of its punctured lines.
        One walk over ``point_slopes`` puts each point in the block of its
        slope's class; the origin reads -1, the last entry of
        ``block_of``, and goes alone into block 0."""
        block_of = [0] * (pi.field.q + 2)
        for k, slopes in enumerate(pi.classes, 1):
            for s in slopes:
                block_of[s] = k
        blocks: list[list[int]] = [[] for _ in range(len(pi.classes) + 1)]
        for p, s in enumerate(point_slopes(pi.field).tolist()):
            blocks[block_of[s]].append(p)
        return cls(pi.field, blocks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SchurBasis)
                and self.field == other.field and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.field, self.blocks))

    def __repr__(self) -> str:
        return f"SchurBasis({self.field.literal!r}, {len(self.blocks)} classes)"


class SchurCheck(NamedTuple):
    """Outcome of an axiom or identity verification: ``ok`` plus one
    witness line per violated condition (the first hit each)."""
    ok: bool
    failures: tuple[str, ...]


def verify_schur_axioms(basis: SchurBasis) -> SchurCheck:
    return _check_and_tabulate(basis)[0]


def structure_constants(basis: SchurBasis) -> np.ndarray:
    """The (m, m, m) table p[i, j, k] with class_i * class_j =
    sum_k p[i, j, k] class_k.  Raises ValueError, quoting the S3 witness,
    when the basis does not span a ring."""
    check, table = _check_and_tabulate(basis)
    if any(f.startswith("S3") for f in check.failures):
        raise ValueError("not a Schur ring basis: " + "; ".join(check.failures))
    return table


def _check_and_tabulate(basis: SchurBasis) -> tuple[SchurCheck, np.ndarray]:
    """The axiom check and the structure constants, from one ``bincount``
    over all pairs of points keyed by (class pair, sum).  The S3 witness
    is the first violation in (i, j, point) order."""
    field = basis.field
    add, neg = group_tables(field)
    failures: list[str] = []

    if basis.blocks[0] != (0,):
        extra = next(p for p in basis.blocks[0] if p != 0)
        failures.append(
            f"S1: the class of the identity also contains point {extra}")

    for k, block in enumerate(basis.blocks):
        idx = np.array(block, dtype=np.int32)
        if not np.array_equal(np.sort(neg[idx]), idx):
            members = set(block)
            bad = next(p for p in block if int(neg[p]) not in members)
            image = int(neg[bad])
            failures.append(
                f"S2: class {k} loses point {bad} under negation "
                f"(-{bad} = {image} lies in class {int(basis.class_of[image])})")
            break

    # every product of class sums at once: the pair (a, b) adds one to
    # point add[a, b] of the product of a's class and b's class
    m, n = len(basis.blocks), add.shape[0]
    class_of = basis.class_of.astype(np.int64)
    keys = (class_of[:, None] * m + class_of[None, :]) * n + add
    prod = np.bincount(keys.ravel(), minlength=m * m * n).reshape(m, m, n)
    reps = np.array([b[0] for b in basis.blocks], dtype=np.intp)
    table = prod[:, :, reps]
    off = np.argwhere(prod != table[:, :, basis.class_of])
    if off.size:
        i, j, k = map(int, off[0])
        kcls = int(basis.class_of[k])
        rep = int(reps[kcls])
        failures.append(
            f"S3: class {i} times class {j} takes value {int(prod[i, j, k])} "
            f"at point {k} but {int(prod[i, j, rep])} at point {rep}, both "
            f"in class {kcls}")

    return SchurCheck(not failures, tuple(failures)), table


# ---------------------------------------------------------------------------
# closed-form products of line sums
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _line_products_ok(field: Field) -> tuple[str, ...]:
    """Witnesses against L_a * L_b = all-ones (a != b) and L_a^2 = q L_a,
    checked by raw convolution over every slope pair."""
    q = field.q
    ones = np.ones(q * q, dtype=np.int64)
    sums = [full_line_sum(field, s) for s in range(q + 1)]
    failures = []
    for a in range(q + 1):
        square = convolve(field, sums[a], sums[a])
        if not np.array_equal(square, q * sums[a]):
            failures.append(f"L_{a} squared is not {q} L_{a}")
        for b in range(a + 1, q + 1):
            if not np.array_equal(convolve(field, sums[a], sums[b]), ones):
                failures.append(f"L_{a} L_{b} does not cover V exactly once")
    return tuple(failures)


def verify_line_sum_identities(pi: LinePartition) -> SchurCheck:
    """Check the closed forms for products of grouped line sums.

    With Q_i the sum over the full lines of class P_i (so the origin gets
    coefficient |P_i|), convolution must give Q_i Q_j = |P_i| |P_j| 1 for
    i != j and Q_i^2 = q Q_i + |P_i| (|P_i| - 1) 1.  The per-line products
    these decompose into are verified once per field and folded in.
    """
    field = pi.field
    q = field.q
    ones = np.ones(q * q, dtype=np.int64)
    failures = list(_line_products_ok(field))
    grouped = []
    for cls in pi.classes:
        total = np.zeros(q * q, dtype=np.int64)
        for s in cls:
            total += full_line_sum(field, s)
        grouped.append(total)
    for i, qi in enumerate(grouped):
        ci = len(pi.classes[i])
        square = convolve(field, qi, qi)
        if not np.array_equal(square, q * qi + ci * (ci - 1) * ones):
            failures.append(
                f"Q_{i}^2 differs from {q} Q_{i} + {ci * (ci - 1)} 1")
        for j in range(i + 1, len(grouped)):
            cj = len(pi.classes[j])
            if not np.array_equal(convolve(field, qi, grouped[j]), ci * cj * ones):
                failures.append(f"Q_{i} Q_{j} is not the constant {ci * cj}")
    return SchurCheck(not failures, tuple(failures))
