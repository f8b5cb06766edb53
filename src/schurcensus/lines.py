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
cell) induces a partition of V, the Schur ring basis that
``schur.SchurBasis.from_partition`` reads off ``point_slopes``.  The
distinguished slope set M of a partition collects the slopes whose class
is a singleton.

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
slopes and on their partitions.  ``slope_map`` moves the slopes by a
2 x 2 matrix, ``slope_symmetries`` gives generators of the action, and
``orbit_labels`` names each row's orbit by the index of its first member,
finding the index of each image by arithmetic (see ``_image_indices``).
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


@functools.lru_cache(maxsize=None)
def point_slopes(field: Field) -> np.ndarray:
    """The slope of the line through each flat point, as one read-only
    int32 array of length q**2; the origin, on every line, reads -1.  A
    point (x, y) with x != 0 lies on slope s exactly when y = s*x, so
    row s of the multiplication table places slope s
    at the points x*q + s*x; the points with x = 0 are the vertical line q."""
    q = field.q
    slopes = np.full(q * q, q, dtype=np.int32)
    x = np.arange(1, q)
    slopes[x * q + field.mul_table()[:, 1:]] = np.arange(q)[:, None]
    slopes[0] = -1
    slopes.setflags(write=False)
    return slopes


# ---------------------------------------------------------------------------
# partitions of the slope set
# ---------------------------------------------------------------------------

class LinePartition:
    """A partition of the slopes of ``field``, held in canonical form:
    slopes sorted inside each class, classes sorted by least member.

    The input is checked in one pass: every class non-empty and the sorted
    slopes exactly 0..q, each an int or a numpy integer.  Only input failing
    that is walked slope by slope, to name its first fault in the ValueError."""

    __slots__ = ("field", "classes")

    def __init__(self, field: Field, classes: Iterable[Iterable[int]]):
        canon = tuple(sorted(map(tuple, map(sorted, classes))))
        slopes = sorted(itertools.chain.from_iterable(canon))
        if not (all(canon) and slopes == list(all_slopes(field))):
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
        bad = [s for s in slopes if type(s) is not int and not isinstance(s, np.integer)]
        if bad:
            raise ValueError(f"slope {bad[0]!r} is not an integer")
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


# ---------------------------------------------------------------------------
# fractional-linear normalization
# ---------------------------------------------------------------------------

class MobiusResult(NamedTuple):
    partition: LinePartition
    matrix: tuple[tuple[int, int], tuple[int, int]]  # acts on column vectors


def slope_map(field: Field, matrix) -> tuple[int, ...]:
    """The images of the slopes 0..q under the linear map of V with the
    column-acting matrix ((a, b), (c, d)): the points (1, s) and (0, 1)
    of the lines move through the field tables, and ``point_slopes``
    reads their lines.  A singular matrix sends one to the origin, which
    reads -1, and raises ValueError."""
    q = field.q
    add, mul = field.add_table(), field.mul_table()
    x, y = np.append(np.ones(q, dtype=np.intp), 0), np.append(np.arange(q), 1)
    (a, b), (c, d) = matrix
    image = point_slopes(field)[add[mul[a, x], mul[b, y]] * q + add[mul[c, x], mul[d, y]]]
    if (image < 0).any():
        raise ValueError("matrix is singular")
    return tuple(image.tolist())


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
    image = slope_map(f, matrix)
    moved = LinePartition(f, [[image[s] for s in cls] for cls in pi.classes])
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
    gens = [slope_map(f, m) for m in matrices]
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
    rgs = np.zeros((_tail_counts(n)[n - 1, 0], n), dtype=np.int8, order="F")
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


@functools.lru_cache(maxsize=None)
def _tail_counts(n: int) -> np.ndarray:
    """The read-only (n, n + 1) int64 table T: T[k, m] counts the RGS
    tails of k entries after a prefix whose greatest class is m, so
    T[0, m] = 1, T[k, m] = (m + 1) T[k - 1, m] + T[k - 1, m + 1] and
    T[n - 1, 0] = Bell(n).  Row k reads row k - 1 one column further, so
    the rows are built 2n wide and cut to n + 1."""
    wide = np.ones((n, 2 * n), dtype=np.int64)
    for k in range(1, n):
        wide[k, :-1] = np.arange(1, 2 * n) * wide[k - 1, :-1] + wide[k - 1, 1:]
    table = wide[:, :n + 1].copy()
    table.setflags(write=False)
    return table


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


def orbit_labels(field: Field) -> np.ndarray:
    """For each row of ``partition_array(field)``, the index of the first
    row of its PGammaL(2, q)-orbit.  Each row takes the least label of
    its images under the ``slope_symmetries`` generators, with pointer
    jumping, until that is the same on every orbit (each generator has
    finite order, so its images reach every row of the orbit)."""
    rgs = partition_array(field)
    images = _image_indices(rgs, slope_symmetries(field))
    labels = np.arange(len(rgs))
    while True:
        before = labels.copy()
        for image in images:
            np.minimum(labels, labels[image], out=labels)
        labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


def _image_indices(rgs: np.ndarray, generators) -> list[np.ndarray]:
    """For each slope permutation g, the index in ``rgs`` (every partition,
    in lex order) of each row's image: column j of the image is column
    argsort(g)[j] of the row, renumbered by first occurrence into an RGS
    r.  Its index is the sum over j >= 1 of r[j] * T[n - 1 - j,
    max(r[:j])], T from ``_tail_counts``, and max(r[:j]) + 1 is the
    count of classes opened before column j.  So one pass over the
    columns renumbers and sums, reading the weights by that count from T
    behind a zero column.  At 11^1 each buffer holds 4.2 million entries,
    so each is allocated once and written through ``out=``/``where=``:
    temporaries left tens of MiB of freed heap resident.
    ``renamed[where] = new`` needs no mask, as a row that opens no class
    writes back the value it read."""
    rows, n = rgs.shape
    weights = np.zeros((n, n + 2), dtype=np.int64)  # [j, c]: T[n - 1 - j, c - 1]
    weights[:, 1:] = _tail_counts(n)[::-1]
    renamed = np.empty(rows * n, dtype=np.int8)  # (row, old class) -> new
    offsets = np.arange(0, rows * n, n)
    where = np.empty(rows, dtype=np.intp)
    new = np.empty(rows, dtype=np.int8)
    fresh = np.empty(rows, dtype=bool)
    opened = np.empty(rows, dtype=np.intp)  # classes numbered so far per row
    term = np.empty(rows, dtype=np.int64)
    images = []
    for g in generators:
        renamed.fill(-1)
        opened.fill(0)
        index = np.zeros(rows, dtype=np.int64)
        for j, s in enumerate(np.argsort(g)):
            np.add(offsets, rgs[:, s], out=where)
            # every index is in range, and mode "raise" would buffer out
            np.take(renamed, where, out=new, mode="clip")
            np.less(new, 0, out=fresh)
            np.copyto(new, opened, where=fresh)
            renamed[where] = new
            np.take(weights[j], opened, out=term, mode="clip")
            np.add(opened, fresh, out=opened)
            np.multiply(term, new, out=term)
            np.add(index, term, out=index)
        images.append(index)
    return images


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
    field = parse_field_value(literal)
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


def parse_field_value(literal) -> Field:
    """The field a partition or matrix file names under "field": a string
    parsed as ``--field`` is, so "3^02" is 3^2.  Anything else, or a bad
    or oversized literal, raises PartitionFormatError."""
    if not isinstance(literal, str):
        raise PartitionFormatError("'field' must be a string like '5^1'")
    try:
        return field_from_literal(literal)
    except ValueError as exc:
        raise PartitionFormatError(f"bad 'field' value: {exc}") from None


def load_partition(path) -> LinePartition:
    with open(path, encoding="utf-8") as fh:
        return parse_partition(fh.read())

