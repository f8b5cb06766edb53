"""Lines through the origin of V = F_q x F_q and partitions of their slopes.

V carries q + 1 lines through the origin: L_s = {(x, s*x)} for each field
element s, and a vertical line of slope infinity {(0, y)}.  Slopes are
plain integers 0..q, with q standing for infinity, so the canonical slope
order (field elements by index, infinity last) is just integer order.
Points are (x, y) pairs of element indices; the flat point index is
x * q + y, which puts the origin at index 0.

A ``LinePartition`` groups the slopes into classes.  Pulling each class
back to the union of its punctured lines (and adding the origin as its own
cell) induces a partition of V that downstream modules turn into a Schur
ring basis.  The distinguished slope set M of a partition collects the
slopes whose class is a singleton.

Semilinear maps of V permute the lines, so PGammaL(2, q) acts on the
slopes and on their partitions.  ``slope_symmetries`` gives generators of
that action, and ``OrbitKeys`` names each partition's orbit by its least
member.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import PartitionFormatError, SizingError
from .gf import Field, field_from_literal

DEFAULT_CENSUS_CAP = 12  # largest slope count enumerate_partitions will stream

INFINITY_LITERAL = "inf"


# ---------------------------------------------------------------------------
# slopes and points
# ---------------------------------------------------------------------------

def all_slopes(field: Field) -> range:
    return range(field.q + 1)


def slope_literal(field: Field, s: int) -> str:
    if s == field.q:
        return INFINITY_LITERAL
    if 0 <= s < field.q:
        return str(s)
    raise ValueError(f"{s} is not a slope for {field}")


def parse_slope_literal(field: Field, text: str) -> int:
    if text == INFINITY_LITERAL:
        return field.q
    # a slope never has more digits than q, and int() refuses strings
    # past 4300 digits with an error of its own
    if (text.isdecimal() and len(text) <= len(str(field.q))
            and str(int(text)) == text and int(text) < field.q):
        return int(text)
    raise PartitionFormatError(
        f"unknown slope literal {text!r} for {field}; "
        f"expected 0..{field.q - 1} or {INFINITY_LITERAL!r}")


def point_index(field: Field, pt: tuple[int, int]) -> int:
    x, y = pt
    field._check(x)
    field._check(y)
    return x * field.q + y


def line_points(field: Field, s: int) -> list[tuple[int, int]]:
    """All q points of the line with slope s (the origin included)."""
    if s == field.q:
        return [(0, y) for y in range(field.q)]
    if not 0 <= s < field.q:
        raise ValueError(f"{s} is not a slope for {field}")
    return [(x, field.mul(s, x)) for x in range(field.q)]


def punctured_line(field: Field, s: int) -> list[tuple[int, int]]:
    return [pt for pt in line_points(field, s) if pt != (0, 0)]


@functools.lru_cache(maxsize=None)
def _punctured_index_cache(field: Field) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(point_index(field, pt) for pt in punctured_line(field, s)))
        for s in all_slopes(field))


# ---------------------------------------------------------------------------
# partitions of the slope set
# ---------------------------------------------------------------------------

class LinePartition:
    """A partition of the slopes of ``field``, held in canonical form:
    slopes sorted inside each class, classes sorted by least member."""

    __slots__ = ("field", "classes")

    def __init__(self, field: Field, classes: Iterable[Iterable[int]]):
        canon = tuple(sorted(tuple(sorted(c)) for c in classes))
        seen: set[int] = set()
        for cls in canon:
            if not cls:
                raise ValueError("empty class in line partition")
            for s in cls:
                if not 0 <= s <= field.q:
                    raise ValueError(f"{s} is not a slope for {field}")
                if s in seen:
                    raise ValueError(f"slope {slope_literal(field, s)} occurs twice")
                seen.add(s)
        if len(seen) != field.q + 1:
            missing = [slope_literal(field, s) for s in all_slopes(field)
                       if s not in seen]
            raise ValueError(f"partition misses slopes {{{', '.join(missing)}}}")
        self.field = field
        self.classes = canon

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinePartition)
                and self.field == other.field and self.classes == other.classes)

    def __hash__(self) -> int:
        return hash((self.field, self.classes))

    def __str__(self) -> str:
        return "|".join(
            ",".join(slope_literal(self.field, s) for s in cls)
            for cls in self.classes)

    def __repr__(self) -> str:
        return f"LinePartition({self.field.literal!r}, {str(self)!r})"


def singleton_partition(field: Field) -> LinePartition:
    return LinePartition(field, [[s] for s in all_slopes(field)])


def one_class_partition(field: Field) -> LinePartition:
    return LinePartition(field, [list(all_slopes(field))])


def wielandt_partition(field: Field) -> LinePartition:
    """Slopes infinity, 0, 1 as singletons, everything else one class."""
    if field.q < 5:
        raise ValueError("needs at least two slopes outside {inf, 0, 1}")
    rest = [s for s in all_slopes(field) if s not in (0, 1, field.q)]
    return LinePartition(field, [[field.q], [0], [1], rest])


def singleton_slopes(pi: LinePartition) -> frozenset[int]:
    """The distinguished set M: slopes whose class is a singleton."""
    return frozenset(cls[0] for cls in pi.classes if len(cls) == 1)


def condition_holds(pi: LinePartition) -> bool:
    """True iff the singleton slopes contain {infinity, 0, 1} and their
    finite part is not a subfield.

    This is the geometric hypothesis under which the induced Schur ring is
    guaranteed non-schurian; the analysis module turns it into a verdict.
    """
    m = singleton_slopes(pi)
    inf = pi.field.q
    return {0, 1, inf} <= m and not pi.field.is_subfield(m - {inf})


def induced_partition(pi: LinePartition) -> tuple[tuple[int, ...], ...]:
    """The induced partition of V as point-index blocks: the origin alone
    first, then one block per class, each of size |class| * (q - 1)."""
    lines = _punctured_index_cache(pi.field)
    blocks = [(0,)]
    for cls in pi.classes:
        merged: list[int] = []
        for s in cls:
            merged.extend(lines[s])
        blocks.append(tuple(sorted(merged)))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# fractional-linear normalization
# ---------------------------------------------------------------------------

class MobiusResult(NamedTuple):
    partition: LinePartition
    matrix: tuple[tuple[int, int], tuple[int, int]]  # acts on column vectors


def apply_matrix_to_point(field: Field, matrix, pt: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = matrix
    x, y = pt
    return (field.add(field.mul(a, x), field.mul(b, y)),
            field.add(field.mul(c, x), field.mul(d, y)))


def apply_matrix_to_slope(field: Field, matrix, s: int) -> int:
    if s == field.q:
        v = (0, 1)
    else:
        v = (1, s)
    u, w = apply_matrix_to_point(field, matrix, v)
    if u == 0:
        if w == 0:
            raise ValueError("matrix is singular")
        return field.q
    return field.mul(w, field.inv(u))


def mobius_normalize(pi: LinePartition) -> Optional[MobiusResult]:
    """Transport the partition so its three least singleton slopes become
    0, 1 and infinity (in that order).

    Returns None when fewer than three classes are singletons.  The witness
    matrix is invertible over F_q and maps the point set of every line
    L_s onto the line with the transported slope; it is the identity map on
    slopes whenever M already equals {0, 1, infinity}.  The subfield status
    of the singleton set is a property of the result, never copied over
    from the input.
    """
    f = pi.field
    m = sorted(singleton_slopes(pi))
    if len(m) < 3:
        return None
    to_zero, to_one, to_inf = m[0], m[1], m[2]
    if to_inf == f.q:
        # x -> (x - beta) / (gamma - beta)
        na, nb = 1, f.neg(to_zero)
        nc, nd = 0, f.sub(to_one, to_zero)
    else:
        # x -> ((x - beta)(gamma - alpha)) / ((x - alpha)(gamma - beta))
        ga = f.sub(to_one, to_inf)
        gb = f.sub(to_one, to_zero)
        na, nb = ga, f.neg(f.mul(to_zero, ga))
        nc, nd = gb, f.neg(f.mul(to_inf, gb))
    # the point map with that slope action: s -> (na*s + nb) / (nc*s + nd)
    matrix = ((nd, nc), (nb, na))
    moved = LinePartition(
        f, [[apply_matrix_to_slope(f, matrix, s) for s in cls] for cls in pi.classes])
    return MobiusResult(moved, matrix)


# ---------------------------------------------------------------------------
# the semilinear symmetry of the slopes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def slope_symmetries(field: Field) -> tuple[tuple[int, ...], ...]:
    """Generators of PGammaL(2, q) as permutations of the slopes 0..q: the
    translations s -> s + zeta**k for k < e, s -> zeta*s, s -> 1/s and,
    when e > 1, the Frobenius s -> s**p.

    Each comes from a semilinear map of V that fixes the origin and
    permutes the lines, so it carries the Cayley color graph of a
    partition onto that of its image."""
    f = field
    # the slope map (a*s + b) / (c*s + d) is the matrix ((d, c), (b, a))
    matrices = [((1, 0), (f.power(f.zeta, k), 1)) for k in range(f.e)]
    matrices += [((1, 0), (0, f.zeta)), ((0, 1), (1, 0))]
    gens = [tuple(apply_matrix_to_slope(f, m, s) for s in all_slopes(f))
            for m in matrices]
    if f.e > 1:
        gens.append(tuple(f.power(s, f.p) for s in f.elements()) + (f.q,))
    return tuple(gens)


Classes = tuple[tuple[int, ...], ...]


class OrbitKeys:
    """Maps the canonical ``classes`` of a partition to the least member of
    its PGammaL(2, q)-orbit.  The first lookup in an orbit walks all of it,
    breadth first over the generator images, and stores every member, so
    each later member of that orbit costs one dict lookup."""

    def __init__(self, field: Field):
        self.generators = slope_symmetries(field)
        self._least: dict[Classes, Classes] = {}

    def __call__(self, classes: Classes) -> Classes:
        key = self._least.get(classes)
        if key is None:
            orbit = [classes]
            seen = {classes}
            for member in orbit:
                for g in self.generators:
                    image = tuple(sorted(tuple(sorted(g[s] for s in cls))
                                         for cls in member))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            key = min(orbit)
            self._least.update(dict.fromkeys(orbit, key))
        return key


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_partitions(
        field: Field, predicate: Optional[Callable[[LinePartition], bool]] = None,
) -> Iterator[LinePartition]:
    """Stream every partition of the slope set in restricted-growth-string
    order (so the one-class partition comes first and the all-singleton
    partition last), optionally filtered by ``predicate``.  Fields with
    more than ``DEFAULT_CENSUS_CAP`` slopes raise SizingError."""
    n = field.q + 1
    if n > DEFAULT_CENSUS_CAP:
        raise SizingError(
            f"{field} has {n} slopes, above the census cap of {DEFAULT_CENSUS_CAP} "
            f"(Bell numbers grow too fast beyond that)")
    labels = [0] * n

    def rec(i: int, top: int) -> Iterator[LinePartition]:
        if i == n:
            blocks: dict[int, list[int]] = {}
            for s, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(s)
            pi = LinePartition(field, blocks.values())
            if predicate is None or predicate(pi):
                yield pi
            return
        for v in range(top + 2):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    return rec(1, 0)


# ---------------------------------------------------------------------------
# the partition file format
# ---------------------------------------------------------------------------

def partition_to_json_dict(pi: LinePartition) -> dict:
    return {
        "field": pi.field.literal,
        "classes": [[slope_literal(pi.field, s) for s in cls] for cls in pi.classes],
    }


def parse_partition(data) -> LinePartition:
    """Parse the JSON partition format:

        {"field": "5^1", "classes": [["inf"], ["0"], ["1"], ["2", "3", "4"]]}

    Accepts a JSON string or an already-decoded dict.  Classes may come in
    any order; the result is canonical.  Unknown slope literals are
    rejected by name; duplicate, missing and empty classes by the
    ``LinePartition`` checks, re-raised as PartitionFormatError.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise PartitionFormatError(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise PartitionFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise PartitionFormatError("partition file must hold a JSON object")
    extra = set(data) - {"field", "classes"}
    if extra:
        raise PartitionFormatError(f"unknown keys {sorted(extra)} in partition file")
    try:
        literal = data["field"]
        raw_classes = data["classes"]
    except KeyError as exc:
        raise PartitionFormatError(f"partition file misses key {exc}") from None
    if not isinstance(literal, str):
        raise PartitionFormatError("'field' must be a string like '5^1'")
    try:
        field = field_from_literal(literal)
    except ValueError as exc:
        raise PartitionFormatError(f"bad 'field' value: {exc}") from None
    if (not isinstance(raw_classes, list)
            or not all(isinstance(c, list) for c in raw_classes)):
        raise PartitionFormatError("'classes' must be a list of lists of slope literals")
    bad = [lit for raw in raw_classes for lit in raw if not isinstance(lit, str)]
    if bad:
        raise PartitionFormatError(f"slope literals must be strings, got {bad[0]!r}")
    classes = [[parse_slope_literal(field, lit) for lit in raw] for raw in raw_classes]
    try:
        return LinePartition(field, classes)
    except ValueError as exc:
        raise PartitionFormatError(str(exc)) from None


def load_partition(path) -> LinePartition:
    with open(path, encoding="utf-8") as fh:
        return parse_partition(fh.read())

