"""Lines through the origin of V = F_q x F_q and partitions of their slopes.

V carries q + 1 lines through the origin: L_s = {(x, s*x)} for each field
element s, and a vertical line of slope infinity {(0, y)}.  Slopes are
plain integers 0..q, with q standing for infinity, so the canonical slope
order (field elements by index, infinity last) is just integer order.
Points are (x, y) pairs of element indices; the flat point index is
x * q + y, which puts the origin at index 0.  ``point_slopes`` holds
the slope of every point in one cached array, which is where the other
modules look up which line a point lies on.

A ``LinePartition`` groups the slopes into classes.  Pulling each class
back to the union of its punctured lines (and adding the origin as its own
cell) induces a partition of V that downstream modules turn into a Schur
ring basis.  The distinguished slope set M of a partition collects the
slopes whose class is a singleton.

A census visits all Bell(q + 1) partitions, so they are held in bulk:
``partition_array`` is one int8 array with a restricted growth string
per partition, in enumeration order, checked once as a whole.  It is
stored slope-major (column-major): each slope's column is contiguous.
A row has only q + 1 <= 12 entries, and numpy reduces, accumulates or
sorts along such a short axis one row at a time, while a pass down a
contiguous column runs over all rows in one loop.  So the bulk passes
work column by column: each numpy call runs down whole columns, and
none sorts or reduces one row at a time.
``partition_texts`` and ``condition_mask`` give the canonical text and
the prediction condition of many rows at once, in fixed blocks: the
texts as one fixed-width bytes array, the condition as one boolean
array, with no Python object per row.  They take rows in any layout
and give the same results on each; rows taken out of the array by a
boolean or index mask come back row-major, and only cost more time per
row.  ``enumerate_partitions`` streams rows as checked
``LinePartition`` objects for the code that needs them one by one.
``LinePartition`` checks its input in one pass and prints from a
per-field tuple of slope literals.

Semilinear maps of V permute the lines, so PGammaL(2, q) acts on the
slopes and on their partitions.  ``slope_symmetries`` gives generators of
that action, and ``orbit_labels`` names each row's orbit by the index of
its first member, working on the whole array at once.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import InconsistencyError, PartitionFormatError, SizingError
from .gf import Field, field_from_literal

DEFAULT_CENSUS_CAP = 12  # largest slope count partition_array will hold

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


def line_points(field: Field, s: int) -> list[tuple[int, int]]:
    """All q points of the line with slope s (the origin included)."""
    if s == field.q:
        return [(0, y) for y in range(field.q)]
    if not 0 <= s < field.q:
        raise ValueError(f"{s} is not a slope for {field}")
    return [(x, field.mul(s, x)) for x in range(field.q)]


@functools.lru_cache(maxsize=None)
def point_slopes(field: Field) -> np.ndarray:
    """The slope of the line through each flat point, as one read-only
    int32 array of length q**2; the origin, on every line, reads -1.  A
    point (x, y) with x != 0 lies on slope s exactly when y = s*x, as in
    ``line_points``, so row s of the multiplication table places slope s
    at the points x*q + s*x; the points with x = 0 are the vertical line q."""
    q = field.q
    slopes = np.full(q * q, q, dtype=np.int32)
    x = np.arange(1, q)
    slopes[x * q + field.mul_table()[:, 1:]] = np.arange(q)[:, None]
    slopes[0] = -1
    slopes.setflags(write=False)
    return slopes


@functools.lru_cache(maxsize=None)
def _punctured_index_cache(field: Field) -> tuple[tuple[int, ...], ...]:
    """The points of each punctured line, slope by slope, in index order:
    a stable sort by slope puts the origin first, then each line in turn."""
    order = np.argsort(point_slopes(field), kind="stable")[1:]
    return tuple(map(tuple, order.reshape(field.q + 1, field.q - 1).tolist()))


# ---------------------------------------------------------------------------
# partitions of the slope set
# ---------------------------------------------------------------------------

class LinePartition:
    """A partition of the slopes of ``field``, held in canonical form:
    slopes sorted inside each class, classes sorted by least member.

    The input is checked in one pass: every class non-empty and the sorted
    slopes exactly 0..q.  Only input failing that is walked slope by slope,
    to name its first fault in the ValueError."""

    __slots__ = ("field", "classes")

    def __init__(self, field: Field, classes: Iterable[Iterable[int]]):
        canon = tuple(sorted(map(tuple, map(sorted, classes))))
        if not (all(canon) and sorted(itertools.chain.from_iterable(canon))
                == list(all_slopes(field))):
            # not a partition of the slopes: find the first fault and name it
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
        literals = _slope_literals(self.field).__getitem__
        return "|".join([",".join(map(literals, cls)) for cls in self.classes])

    def __repr__(self) -> str:
        return f"LinePartition({self.field.literal!r}, {str(self)!r})"


@functools.lru_cache(maxsize=None)
def _slope_literals(field: Field) -> tuple[str, ...]:
    return tuple(slope_literal(field, s) for s in all_slopes(field))


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
    classes, inf = pi.classes, pi.field.q
    # classes are sorted by least member: {0} and {1} can only come first
    # and second, {infinity} only last
    if classes[0] != (0,) or classes[1] != (1,) or classes[-1] != (inf,):
        return False
    return not pi.field.is_subfield(singleton_slopes(pi) - {inf})


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


# ---------------------------------------------------------------------------
# every partition as one array
# ---------------------------------------------------------------------------

BLOCK_ROWS = 8192  # rows per pass of the bulk functions, to bound temporaries


@functools.lru_cache(maxsize=None)
def partition_array(field: Field) -> np.ndarray:
    """Every partition of the slope set as one read-only (Bell(q + 1),
    q + 1) int8 array of restricted growth strings (RGS): entry s of a row
    is the class of slope s, classes numbered by least member, so that
    ``LinePartition.classes`` lists them in that order.  Rows come in
    lexicographic order: the one-class partition first, the all-singleton
    partition last.

    The array is slope-major (Fortran order): column s, the class of
    slope s in every row, is one contiguous run, so the bulk passes over
    it (the check, the texts, the condition, the orbit images) each walk
    a few long columns instead of millions of rows of 12 bytes.  It grows
    one slope at a time, in place: a row whose classes so far are 0..m
    becomes m + 2 rows, one per class the next slope can join, in order,
    so each filled column is repeated down its own storage and the new
    column is written beside them; no second copy of the array is made.
    Fields with more than ``DEFAULT_CENSUS_CAP`` slopes raise SizingError
    before any work, and the result is checked in bulk (see
    ``_check_rgs``) before it is returned."""
    n = field.q + 1
    if n > DEFAULT_CENSUS_CAP:
        raise SizingError(
            f"{field} has {n} slopes, above the census cap of {DEFAULT_CENSUS_CAP} "
            f"(Bell numbers grow too fast beyond that)")
    rgs = np.zeros((_bell(n), n), dtype=np.int8, order="F")
    top = np.zeros(1, dtype=np.int8)  # the greatest class of each row so far
    for i in range(1, n):
        counts = top.astype(np.intp) + 2
        size = int(counts.sum())
        for column in rgs.T[1:i]:
            column[:size] = np.repeat(column[:len(top)], counts)
        top = np.repeat(top, counts)
        new = rgs[:size, i]
        new[:] = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
        np.maximum(top, new, out=top)
    _check_rgs(rgs)
    rgs.setflags(write=False)
    return rgs


def _bell(n: int) -> int:
    """The number of partitions of an n-set, from the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1]


def _check_rgs(rgs: np.ndarray) -> None:
    """Raise InconsistencyError unless every row is a restricted growth
    string (column 0 is 0, each entry at most one above every entry
    before it) and the rows strictly increase, so none repeats.  The
    growth test walks the columns with a running maximum."""
    top = np.zeros(len(rgs), dtype=rgs.dtype)  # each row's greatest entry so far
    ok = bool((rgs[:, 0] == 0).all())
    for column in rgs.T[1:]:
        # while every test passed, top is below the column count, so
        # top + 1 cannot wrap
        ok = ok and bool((column >= 0).all() and (column <= top + 1).all())
        np.maximum(top, column, out=top)
    if not (ok and (np.diff(_codes(rgs)) > 0).all()):
        raise InconsistencyError("the partition array is not a strictly "
                                 "increasing list of restricted growth strings")


def _codes(rgs: np.ndarray) -> np.ndarray:
    """Each row read as a base-n number, n the row length, as int64 (12**12
    fits).  Entries are below n, so code order is lexicographic order."""
    n = rgs.shape[1]
    codes = np.zeros(len(rgs), dtype=np.int64)
    for column in rgs.T:
        codes *= n
        codes += column
    return codes


def _first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Renumber the classes of each row in order of first occurrence, which
    turns any labelling into its restricted growth string."""
    rows, n = labels.shape
    renamed = np.full(rows * n, -1, dtype=np.int8)  # (row, old class) -> new
    opened = np.zeros(rows, dtype=np.int8)  # classes numbered so far per row
    at = np.arange(rows) * n
    out = np.empty_like(labels)
    for j in range(n):
        where = at + labels[:, j]
        new = renamed[where]
        fresh = new < 0
        new[fresh] = opened[fresh]
        renamed[where[fresh]] = new[fresh]
        opened += fresh
        out[:, j] = new
    return out


def partition_texts(field: Field, rows: np.ndarray) -> np.ndarray:
    """The canonical text ``str(LinePartition)`` of each RGS row, as one
    fixed-width ``S{L}`` bytes array, built in blocks of ``BLOCK_ROWS``
    rows.  Every slope occurs once in each text, so every text has the
    same length L.  Decode it with ``texts.astype(str)``.

    The text lists the classes in order and each class's slopes in
    order, so slope s comes after the slopes of earlier classes and the
    earlier slopes of its own class: its place is the number of slopes t
    before s with class at most that of s, plus the number after s with
    a smaller class.  Each pair of columns is compared once, a whole
    column of rows at a time, so no row is sorted.  Each slope then puts
    one 4-byte word of ``_text_words`` at its place: its separator (none
    for slope 0, ``|`` when it opens a class, which a running maximum of
    the columns shows, ``,`` otherwise) and its literal, zero-padded.
    Dropping the zero bytes, in one ``bytes.translate`` per block,
    leaves the texts back to back."""
    n = field.q + 1
    length = sum(map(len, _slope_literals(field))) + n - 1
    words = _text_words(field)
    texts = np.empty(len(rows), dtype=f"S{length}")
    for start in range(0, len(rows), BLOCK_ROWS):
        columns = rows[start:start + BLOCK_ROWS].T
        size = columns.shape[1]
        place = np.zeros((n, size), dtype=np.int8)
        for s in range(1, n):
            before = columns[:s] <= columns[s]
            place[s] += before.sum(axis=0, dtype=np.int8)
            place[:s] += ~before
        out = np.empty((size, n), dtype=np.uint32)
        flat = out.reshape(-1)
        at = np.arange(0, size * n, n)
        flat[at] = words[0]  # slope 0 opens every text
        top = np.zeros(size, dtype=np.int8)  # the greatest class so far
        for s in range(1, n):
            flat[at + place[s]] = np.where(columns[s] > top, words[2 * n + s], words[n + s])
            np.maximum(top, columns[s], out=top)
        texts[start:start + size] = np.frombuffer(
            out.tobytes().translate(None, b"\0"), dtype=texts.dtype)
    return texts


@functools.lru_cache(maxsize=None)
def _text_words(field: Field) -> np.ndarray:
    """Separator (none, ``,`` or ``|``) then slope literal, zero-padded to
    4 bytes, as one uint32 per (separator, slope), separator major.  The
    longest literal, ``inf``, leaves room for the separator."""
    n = field.q + 1
    words = np.zeros((3, n, 4), dtype=np.uint8)
    for k, separator in enumerate(("", ",", "|")):
        for s, literal in enumerate(_slope_literals(field)):
            text = (separator + literal).encode("ascii")
            words[k, s, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    words = words.view(np.uint32).reshape(3 * n)
    words.setflags(write=False)
    return words


def condition_mask(field: Field, rows: np.ndarray) -> np.ndarray:
    """``condition_holds`` on each RGS row, as a boolean array: the slopes
    0, 1 and infinity are singletons, and the bit mask of the singleton
    finite slopes is not that of a subfield.  As in ``condition_holds``,
    the class positions reject most rows before the set work.

    Both tests compare whole columns, a block of rows at a time: the
    class positions need one compare per column and a maximum across
    the finite columns, and the singletons of the few rows left come
    from comparing each of their columns with every other."""
    q = field.q
    subfields = np.array([sum(1 << s for s in sub) for sub in field.subfields()])
    bits = np.int64(1) << np.arange(q, dtype=np.int64)
    out = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), BLOCK_ROWS):
        columns = rows[start:start + BLOCK_ROWS].T
        # 0 and 1 alone are the classes 0 and 1 of the RGS, so slope 1
        # opens class 1 and every later slope is in a class above it;
        # infinity alone is a last class no finite slope is in
        pinned = columns[1] == 1
        for column in columns[2:q]:
            pinned &= column > 1
        pinned &= columns[q] > columns[:q].max(axis=0)
        hits = columns[:, pinned]
        alone = (hits[:, None] == hits[None]).sum(axis=1) == 1
        # compared with each subfield mask directly: ``np.isin`` on an
        # empty block would fall back to ``np.unique`` and import numpy.ma
        pinned[pinned] = ~((bits @ alone[:q])[:, None] == subfields).any(axis=1)
        out[start:start + BLOCK_ROWS] = pinned
    return out


def orbit_labels(field: Field, rgs: np.ndarray) -> np.ndarray:
    """For each row of ``rgs``, the index of the first row of its
    PGammaL(2, q)-orbit: rows with equal labels lie in one orbit, and the
    label is the orbit's first partition in enumeration order.

    ``rgs`` holds RGS rows in strictly increasing order and is closed
    under the action, as ``partition_array(field)`` is; rows out of
    order, and a missing image, raise ValueError.  Each
    ``slope_symmetries`` generator moves every row at once (the columns
    permuted, then renumbered by first occurrence) and the images are
    found by binary search on the row codes.  Each row then takes the
    least label of its images, with pointer jumping, until the least
    index is the same on every orbit (each generator has finite order,
    so its images reach every row of the orbit)."""
    codes = _codes(rgs)
    if not (np.diff(codes) > 0).all():
        raise ValueError("the rows are not in strictly increasing order")
    images = []
    for g in slope_symmetries(field):
        # slope g[s] of the image lies in the class of slope s
        inverse = [0] * len(g)
        for s, t in enumerate(g):
            inverse[t] = s
        moved = _codes(_first_occurrence(rgs[:, inverse]))
        found = np.searchsorted(codes, moved)
        # an image above every code would be found at len(codes)
        if (found == len(codes)).any() or (codes[found % len(codes)] != moved).any():
            raise ValueError("the rows are not closed under PGammaL(2, q)")
        images.append(found)
    labels = np.arange(len(rgs))
    while True:
        before = labels.copy()
        for image in images:
            np.minimum(labels, labels[image], out=labels)
        labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_partitions(field: Field,
                         rows: Optional[np.ndarray] = None) -> Iterator[LinePartition]:
    """Stream the RGS ``rows`` as checked partitions, in their order; by
    default every row of ``partition_array(field)``, so every partition
    of the slope set in restricted-growth-string order (the one-class
    partition first, the all-singleton partition last).  Fields above the
    census cap raise SizingError here, before anything is iterated."""
    if rows is None:
        rows = partition_array(field)
    make = functools.partial(_partition_of, field)
    return itertools.chain.from_iterable(
        map(make, rows[start:start + BLOCK_ROWS].tolist())
        for start in range(0, len(rows), BLOCK_ROWS))


def _partition_of(field: Field, labels: list[int]) -> LinePartition:
    classes: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for s, c in enumerate(labels):
        classes[c].append(s)
    return LinePartition(field, classes)


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

