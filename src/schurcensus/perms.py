"""Permutation groups and automorphisms of edge-colored graphs.

Permutations on n points live as numpy index arrays: p[x] is the image of
x, so a[b] applies b first, then a.  ``dense_ranks`` is the one place that
ranks integers: edge colors, vertex colors and, in ``analysis``, orbit
numbers.  Each of those lies in 0..size-1, so it ranks them by counting
and sorts only other values.  ``PermGroup`` keeps a deterministic
stabilizer chain along an explicit base (0, 1, ..., n-1 unless given),
built from a strong generating set by one orbit per level with no
Schreier-Sims closure, as one record per level: the level's generators
and its transversal, stacked once.  That gives exact orders as big
integers and one bulk sift, which ``in`` runs on a single row.  When the
base starts at 0, the levels below level 0 are already a chain for the
stabilizer of 0, the only stabilizer the schurian oracle needs, so
``point_stabilizer()`` shares their records instead of building anew.

``automorphism_group`` finds the automorphisms of a ``ColorGraph`` by
individualization and refinement.  The refinement is a vectorized
edge-colored analogue of naive vertex classification whose labels are
canonical, so equal colorings of isomorphic graphs get equal labels; each
round sorts every vertex's row as one byte key and ranks the sorted rows by
comparing neighbours, and a round that makes the coloring discrete is the
last.  The chain levels, the search's climb and ``orbits()`` walk their
Schreier trees over generators held as Python lists.  The search has three
steps.  The descent follows the leftmost path to a discrete leaf; the
vertices it individualizes are the base.  The climb
goes back over the path's cells, deepest first, and skips every sibling
that the generators found so far map a tried sibling onto (each of them
was found at that depth or deeper, so it fixes the base above it).  That
orbit is kept while the climb crosses a cell.  It starts as the cell's
first vertex alone, since every generator found before the cell was found
deeper and fixes it, and grows in place: a new generator is applied to the
points reached so far, then every generator to each point new to the
orbit, and a sibling with no witness adds its own orbit.  The
witness step looks below each remaining sibling for one automorphism
sending the leftmost leaf there.  At every node it first guesses: the
permutation mapping each cell of the path's coloring at that depth onto
the cell of the same color here, both in index order (one stable argsort
per path level is kept for it).  The individualized vertices hold the top
colors in the order they were chosen, so a guess that preserves the edge
colors fixes base[:d] and sends base[d] to the sibling, exactly as a leaf
found below would; only when the guess fails does the step branch.  At a
leaf the guess is the only candidate.  In K_n-like graphs the first guess
at each sibling succeeds, so the one-class search visits one node per
sibling.  A caller that knows automorphisms sending 0 to every vertex in
advance, as ``schurian_test`` knows the translations of V, hands them over
as a table: at depth 0 the climb then takes the table's row for each
sibling not yet reached, after the same exhaustive check, with no witness
step below it, and every deeper cell is searched as before.  The
generators found at a depth d or deeper generate the
subgroup fixing base[:d] pointwise (McKay & Piperno, Practical Graph
Isomorphism II, 2014), so they are a strong generating set along the
base and the chain is read straight off them; at depth 0 the rows reach
the whole first cell just as witnesses would.  Every generator passes an
exhaustive color-preservation check, so the group is never too big; a
wrongly pruned branch could still leave it too small, which is why
``schurian_test`` in ``analysis`` refuses a group that is not
transitive or misses a translation or a scalar map; it sifts all of
those maps as one stack through ``PermGroup.member_mask``.  With the
translations seeded, the first two of those guards check the chain built
from the generators, and the scalar guard still checks the search below
depth 0.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .errors import InconsistencyError, SizingError

logger = logging.getLogger(__name__)

DEFAULT_ORACLE_CAP = 100  # automorphism searches refuse bigger vertex sets


# ---------------------------------------------------------------------------
# permutations as index arrays
# ---------------------------------------------------------------------------

def identity_perm(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int32)


def is_identity(a: np.ndarray) -> bool:
    return bool((a == np.arange(len(a), dtype=a.dtype)).all())


def dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the integer array ``values``, ascending, and
    each entry's rank among them as int64 of ``values``' shape, as
    ``np.unique(values, return_inverse=True)`` gives them.  Values in
    0..size-1 are ranked by counting, with no sort; any others, and an
    empty array, go to ``np.unique``."""
    flat = values.ravel()
    if flat.size and flat.min() >= 0 and flat.max() < flat.size:
        present = np.bincount(flat.astype(np.intp, copy=False)) > 0
        ranks = np.add.accumulate(present, dtype=np.int64) - 1
        return present.nonzero()[0], ranks[values]
    distinct, ranks = np.unique(flat, return_inverse=True)
    return distinct, ranks.reshape(values.shape).astype(np.int64, copy=False)


def as_permutation(n: int, seq) -> np.ndarray:
    """``seq`` as an int32 array; ValueError unless it holds the integers 0..n-1."""
    arr = np.asarray(seq)
    if (arr.dtype.kind not in "iu" or arr.shape != (n,)
            or not np.array_equal(np.sort(arr), np.arange(n))):
        raise ValueError(f"not a permutation of 0..{n - 1}: {seq!r}")
    return arr.astype(np.int32, copy=False)


# ---------------------------------------------------------------------------
# stabilizer chains
# ---------------------------------------------------------------------------

def _orbit(seeds, gens) -> dict[int, tuple[int, int] | None]:
    """The orbit of ``seeds`` under ``gens`` in breadth-first order, as a
    Schreier tree: each point maps to the (predecessor, index into
    ``gens``) pair that first reached it, and each seed to None.

    ``gens`` holds each generator as a list (``g.tolist()``), converted
    once by the caller: indexing a list by a Python int is several times
    cheaper than reading a numpy scalar, and these trees are deep with
    small layers, so the walk stays in plain Python."""
    tree: dict[int, tuple[int, int] | None] = dict.fromkeys(seeds)
    _grow(tree, list(tree), gens)
    return tree


def _grow(tree: dict[int, tuple[int, int] | None], queue: list[int], gens) -> None:
    """Close the Schreier tree ``tree`` under ``gens`` in place, breadth
    first from the points of ``queue``, which the walk appends to.  Every
    point of the tree off ``queue`` must already have its images under
    ``gens`` in the tree; new points get edges as in ``_orbit``."""
    indexed = list(enumerate(gens))
    for beta in queue:
        for k, g in indexed:
            gamma = g[beta]
            if gamma not in tree:
                tree[gamma] = (beta, k)
                queue.append(gamma)


class _Level(NamedTuple):
    """One level of a stabilizer chain: the generators whose first moved
    base point is this level's, as arrays and as lists for ``_orbit``;
    the inverted transversal stacked in Schreier-tree order; and each
    point's row in that stack, -1 off the orbit."""
    gens: list[np.ndarray]
    walks: list[list[int]]
    stack: np.ndarray
    where: np.ndarray


def _from_level(table: list[list], level: int) -> list:
    """The entries of the rows of ``table`` from ``level`` on, in level order."""
    return [x for row in table[level:] for x in row]


def _transversal(degree: int, point: int, gens, walks) -> tuple[np.ndarray, np.ndarray]:
    """The inverted transversal of the orbit of ``point`` under ``gens``
    (``walks`` holds them as lists), stacked in Schreier-tree order, and
    each point's row in that stack.  A tree edge (pred, k) sets row beta
    to row pred composed with the inverse of the k-th generator, written
    as one scatter through that generator, so nothing is inverted."""
    tree = _orbit([point], walks)
    where = np.full(degree, -1, dtype=np.intp)
    where[list(tree)] = np.arange(len(tree))
    stack = np.empty((len(tree), degree), dtype=np.int32)
    stack[0] = identity_perm(degree)
    for row, edge in enumerate(tree.values()):
        if edge is not None:
            pred, k = edge
            stack[row][gens[k]] = stack[where[pred]]
    return stack, where


class PermGroup:
    """A permutation group on 0..degree-1 with a stabilizer chain along
    ``base``, which is 0, 1, ..., degree-1 unless given.

    The chain is built from transversals only, with no Schreier-Sims
    closure.  Each generator goes to the first level whose base point it
    moves, and level i holds the orbit of base[i] under the generators at
    levels i and deeper, as one Schreier tree.  Its transversal is stored
    inverted: each orbit point maps to a member taking that point back to
    base[i], so membership only composes.

    The chain is exact when ``generators`` is a strong generating set
    along ``base``: those moving none of base[:i] generate the subgroup
    fixing base[:i] pointwise.  The automorphism search hands over such a
    set.  For any other set every level still holds members of the group,
    so ``order()`` is a lower bound and the group is never too big; the
    guards in ``analysis.schurian_test`` are what catch a search that lost
    a generator.  Only the identity may fix every base point: any other
    such permutation is a non-member, and a generator that leaves one
    raises ValueError.  ``generators`` holds the input generators; for a
    point stabilizer, those at levels 1 and deeper.

    The chain is one ``_Level`` record per base point: the level's own
    generators, as arrays and as lists converted once for ``_orbit``, its
    transversal written once into one stacked int32 array in tree order,
    and a point-to-row index beside it.  The order is the product of the
    stack lengths, and membership is the bulk sift ``member_mask`` on one
    row.
    """

    def __init__(self, degree: int, generators=(), *, base=None):
        self.degree = degree
        self.base = tuple(range(degree)) if base is None else tuple(map(int, base))
        if len(set(self.base) & set(range(degree))) != len(self.base):
            raise ValueError(f"base {base!r} repeats a point or leaves 0..{degree - 1}")
        self.generators = tuple(as_permutation(degree, g) for g in generators)
        gens_at: list[list[np.ndarray]] = [[] for _ in self.base]
        points = list(self.base)
        for g in self.generators:
            moved = np.flatnonzero(g[points] != points)
            if moved.size:
                gens_at[moved[0]].append(g)
            elif not is_identity(g):
                raise ValueError(
                    f"{self.base} is not a base: a non-identity permutation fixes all of it")
        walks_at = [[g.tolist() for g in gens] for gens in gens_at]
        self._levels = [
            _Level(gens_at[i], walks_at[i],
                   *_transversal(degree, point, _from_level(gens_at, i), _from_level(walks_at, i)))
            for i, point in enumerate(self.base)]

    # -- queries

    def order(self) -> int:
        return math.prod(len(level.stack) for level in self._levels)

    def __contains__(self, perm) -> bool:
        return bool(self.member_mask(as_permutation(self.degree, perm)[None])[0])

    def member_mask(self, perms) -> np.ndarray:
        """``perm in self`` for each row of a (k, degree) stack of
        permutations, as one boolean array.  All rows are sifted at once:
        at each level every row looks up its transversal element in the
        level's stack and is composed with it by one fancy index.

        No row is dropped on the way.  A row whose image of base[i] is
        off the orbit of level i reads the stack's last row, which, like
        every row but that point's own, moves the image off base[i];
        every deeper level fixes base[i], so the row never sifts to the
        identity.  A row that is not a permutation stays one, so it never
        sifts to the identity either.  Anything but a (k, degree) integer
        stack, or an entry outside 0..degree-1, raises ValueError: a row
        of another length is never split or joined into rows of this
        one."""
        n = self.degree
        g = np.asarray(perms)
        if (g.ndim != 2 or g.shape[1] != n or g.dtype.kind not in "iu"
                or (g.size and not 0 <= g.min() <= g.max() < n)):
            raise ValueError(
                f"not a (k, {n}) stack of rows holding points of 0..{n - 1}: "
                f"{g.dtype} of shape {g.shape}")
        g = g.astype(np.int32, copy=False)
        for point, level in zip(self.base, self._levels):
            found = level.where[g[:, point]]  # -1 off the orbit: any row not its own
            g = level.stack[found[:, None], g]
        return (g == np.arange(n)).all(axis=1)

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        gens = [w for level in self._levels for w in level.walks]
        seen: set[int] = set()
        out = []
        for v in range(self.degree):
            if v not in seen:
                orbit = _orbit([v], gens)
                seen.update(orbit)
                out.append(tuple(sorted(orbit)))
        return tuple(out)

    def point_stabilizer(self) -> "PermGroup":
        """The subgroup fixing 0, which must be the first base point.

        The chain levels >= 1 already form a chain for it, so their
        records are shared and level 0 becomes the trivial level of 0."""
        if self.base[:1] != (0,):
            raise ValueError(f"point 0 is not the first point of the base {self.base}")
        stab = PermGroup.__new__(PermGroup)
        stab.degree, stab.base = self.degree, self.base
        stab._levels = [_Level([], [], *_transversal(self.degree, 0, [], []))] + self._levels[1:]
        stab.generators = tuple(g for level in self._levels[1:] for g in level.gens)
        return stab

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


# ---------------------------------------------------------------------------
# edge-colored graphs
# ---------------------------------------------------------------------------

class ColorGraph:
    """A complete graph on n vertices whose ordered pairs carry colors,
    as an (n, n) integer matrix.  The matrix must be symmetric and the
    diagonal must use colors of its own, so loops never mix with edges.
    Float and bool matrices are refused, not truncated into colors, and
    the checks run on the given dtype, so uint64 colors never wrap.  It
    stores the ranks of the colors (``dense_ranks``) as int64, so the
    class numbers of a Cayley color graph are stored as given."""

    __slots__ = ("edge_colors", "n", "ncolors")

    def __init__(self, edge_colors):
        ec = np.asarray(edge_colors)
        if ec.dtype.kind not in "iu":
            raise ValueError(f"edge colors must be integers, not {ec.dtype}")
        if ec.ndim != 2 or ec.shape[0] != ec.shape[1] or ec.shape[0] == 0:
            raise ValueError("edge colors must form a nonempty square matrix")
        if ec.min() < 0:
            raise ValueError("edge colors must be nonnegative integers")
        if not np.array_equal(ec, ec.T):
            u, v = map(int, np.argwhere(ec != ec.T)[0])
            raise ValueError(
                f"edge colors are not symmetric: "
                f"({u}, {v}) has {int(ec[u, v])} but ({v}, {u}) has {int(ec[v, u])}")
        # ranking is monotone, so refinement labels do not change, and the
        # stored colors stay below n**2 however large the given ones are
        distinct, ranks = dense_ranks(ec)
        loops = np.bincount(np.diagonal(ranks), minlength=len(distinct))
        shared = np.flatnonzero((loops > 0) & (np.bincount(ranks.ravel()) > loops))
        if shared.size:
            raise ValueError(
                f"color {int(distinct[shared[0]])} appears both on and off the diagonal")
        self.edge_colors = ranks
        self.n = ec.shape[0]
        self.ncolors = len(distinct)


def color_refinement(graph: ColorGraph, colors=None) -> np.ndarray:
    """The coarsest stable refinement of ``colors`` (uniform by default)
    under neighborhood color signatures.

    Each round encodes, per vertex, the sorted multiset of (edge color,
    endpoint color) pairs over all endpoints, and relabels vertices by the
    lexicographic rank of (old color, signature).  Labels are therefore
    canonical: relabeling the graph by a permutation permutes the result
    the same way, which the search below relies on for pruning.

    The row (old color, sorted pair codes) of each vertex is written as
    big-endian int64 and sorted as one byte string.  The codes are
    nonnegative, and for nonnegative integers of one width big-endian byte
    order is numeric order, so the byte order of the rows is exactly their
    lexicographic order.  The ranks follow from that order: neighbouring
    sorted rows are compared as native int64 words (byte order does not
    matter for equality), and the running count of rows that differ from
    their predecessor is each row's rank.

    ``colors`` must be a 1-D integer array (or list) with one entry per
    vertex; anything else, bools and floats included, raises ValueError.
    The colors are ranked first by ``dense_ranks``, so colors that are
    already dense (nonnegative, every label up to the largest present),
    as the search's own colorings are, are their own ranks.
    """
    ec = graph.edge_colors
    n = graph.n
    if colors is None:
        colors = np.zeros(n, dtype=np.int64)
    else:
        colors = np.asarray(colors)
        if colors.dtype.kind not in "iu" or colors.shape != (n,):
            raise ValueError(
                f"colors must be a 1-D integer array of length {n}, "
                f"not {colors.dtype} of shape {colors.shape}")
        colors = dense_ranks(colors)[1]
    k = int(colors.max()) + 1
    # edge colors are ranks below n**2 and colors below k <= n, so every
    # entry of the table is nonnegative and below n**3, far from overflow
    table = np.empty((n, n + 1), dtype=">i8")
    keys = table.view(np.dtype((np.void, table.itemsize * (n + 1)))).reshape(n)
    words = table.view(np.int64)
    codes = np.empty((n, n), dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)  # the rank of each sorted row; 0 first
    while True:
        np.multiply(ec, k, out=codes)
        codes += colors
        codes.sort(axis=1)
        table[:, 0] = colors
        table[:, 1:] = codes
        order = keys.argsort()
        ranked = words[order]
        steps[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        np.add.accumulate(steps, out=steps)
        fresh = np.empty(n, dtype=np.int64)
        fresh[order] = steps
        knew = int(steps[-1]) + 1
        # a discrete coloring is stable: the next round would rank the
        # rows by their distinct old colors alone and change nothing
        if knew == k or knew == n:
            return fresh
        colors, k = fresh, knew


def _individualized(graph: ColorGraph, colors: np.ndarray, v: int) -> np.ndarray:
    """The refinement of ``colors`` after giving v a color of its own."""
    out = colors.copy()
    out[v] = colors.max() + 1
    return color_refinement(graph, out)


def _target_cell(colors: np.ndarray):
    """The first color class with two or more vertices; None once discrete."""
    big = np.flatnonzero(np.bincount(colors) >= 2)
    return np.flatnonzero(colors == big[0]) if big.size else None


def automorphism_group(graph: ColorGraph, *, cap: int = DEFAULT_ORACLE_CAP,
                       translations=None) -> PermGroup:
    """The full automorphism group of an edge-colored graph, with its
    chain along the base the search individualized.

    Each witness node whose color histogram matches the path's first
    tries one guess, the cell-by-cell map from the path's coloring at its
    depth (stably sorted once per level) onto its own, and branches only
    if that guess fails the exhaustive edge-color check.

    ``translations``, when given, is an (n, n) table of automorphisms
    known in advance whose row v sends 0 to v, such as the translations
    of a Cayley graph; ValueError unless it is an integer table whose rows
    send 0 to 0, 1, ..., n-1 in turn.  The climb then takes row w as the generator for each sibling
    w of the first cell that it has not reached, after the exhaustive
    edge-color check and with no refinement below w; every deeper cell is
    searched as without the table.  A row that fails the check, or a base
    that does not start at 0 (a graph with such a table is
    vertex-transitive, so its first cell is all of it), raises
    InconsistencyError.

    The DEBUG record (vertices, nodes, leaf tests, generators, order)
    counts every node, one refinement each, and every exhaustive check as
    a leaf test, guesses and table rows included."""
    n = graph.n
    if n > cap:
        raise SizingError(
            f"automorphism search on {n} vertices exceeds the cap of {cap}")
    if translations is not None:
        translations = np.asarray(translations)
        if (translations.shape != (n, n) or translations.dtype.kind not in "iu"
                or not np.array_equal(translations[:, 0], np.arange(n))):
            raise ValueError(
                f"translations must be an ({n}, {n}) integer table whose row v "
                f"sends 0 to v, not {translations.dtype} of shape {translations.shape}")
    ec = graph.edge_colors

    def preserves(perm: np.ndarray) -> bool:
        return np.array_equal(ec.take(perm, 0).take(perm, 1), ec)

    # descent: the leftmost path, its color histograms and its leaf, with
    # each level's coloring stably sorted, cell by cell in index order
    path = []  # (coloring, target cell) per level above the leaf
    colors = color_refinement(graph)
    hists = [np.bincount(colors).tobytes()]
    orders = [np.argsort(colors, kind="stable")]
    while (cell := _target_cell(colors)) is not None:
        path.append((colors, cell))
        colors = _individualized(graph, colors, int(cell[0]))
        hists.append(np.bincount(colors).tobytes())
        orders.append(np.argsort(colors, kind="stable"))
    base = [int(cell[0]) for _, cell in path]
    nodes, tests = len(hists), 0
    if translations is not None and n > 1 and base[:1] != [0]:
        raise InconsistencyError(
            f"the translations make the graph vertex-transitive, yet the "
            f"search's base {tuple(base)} does not start at 0")

    def witness(colors: np.ndarray, depth: int):
        """An automorphism sending the leftmost leaf into this subtree,
        or None when there is none."""
        nonlocal nodes, tests
        nodes += 1
        if np.bincount(colors).tobytes() != hists[depth]:
            return None
        # the guess: each cell of the path's coloring at this depth onto
        # the cell of the same color here, in index order; at a leaf it is
        # the only candidate
        tests += 1
        perm = np.empty(n, dtype=np.int32)
        perm[orders[depth]] = np.argsort(colors, kind="stable")
        if preserves(perm):
            return perm
        cell = _target_cell(colors)
        if cell is None:
            return None
        for w in cell:
            found = witness(_individualized(graph, colors, int(w)), depth + 1)
            if found is not None:
                return found
        return None

    # climb: one generator per sibling the known generators do not reach
    gens: list[np.ndarray] = []
    walks: list[list[int]] = []  # the same, as lists for _grow
    for depth in reversed(range(len(path))):
        colors, cell = path[depth]
        # every generator so far was found deeper and fixes base[depth]
        reached = dict.fromkeys([base[depth]])
        for w in map(int, cell[1:]):
            if w in reached:
                continue
            if depth == 0 and translations is not None:
                tests += 1
                found = as_permutation(n, translations[w])
                if not preserves(found):
                    raise InconsistencyError(
                        f"row {w} of the translations is not an automorphism")
            else:
                found = witness(_individualized(graph, colors, w), depth + 1)
            if found is not None:
                # grow the orbit: the new generator on the points reached
                # before it, then every generator on each point new to it
                walk = found.tolist()
                gens.append(found)
                walks.append(walk)
                fresh = []
                for beta in list(reached):
                    if (gamma := walk[beta]) not in reached:
                        reached[gamma] = (beta, len(walks) - 1)
                        fresh.append(gamma)
                _grow(reached, fresh, walks)
            else:
                # w's orbit is disjoint from the one reached so far
                reached[w] = None
                _grow(reached, [w], walks)

    group = PermGroup(n, gens, base=base)
    logger.debug(
        "automorphism search on %d vertices: %d nodes, %d leaf tests, "
        "%d generators, order %d",
        n, nodes, tests, len(gens), group.order())
    return group
