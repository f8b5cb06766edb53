"""Permutation groups and automorphisms of edge-colored graphs.

Permutations on n points live as numpy index arrays: p[x] is the image of
x, compose(a, b) applies b first.  ``PermGroup`` keeps a deterministic
Schreier-Sims chain along an explicit base (0, 1, ..., n-1 unless given),
which gives exact orders as big integers and fast membership sifting.
When the base starts at 0, the levels below level 0 are already a chain
for the stabilizer of 0, the only stabilizer the schurian oracle needs,
so ``point_stabilizer()`` shares them instead of building anew.

``automorphism_group`` finds the automorphisms of a ``ColorGraph`` by
individualization and refinement.  The refinement is a vectorized
edge-colored analogue of naive vertex classification whose labels are
canonical, so equal colorings of isomorphic graphs get equal labels.  The
search has three steps.  The descent follows the leftmost path to a
discrete leaf; the vertices it individualizes are the base.  The climb
goes back over the path's cells, deepest first, and skips every sibling
that the generators found so far map a tried sibling onto (each of them
was found at that depth or deeper, so it fixes the base above it).  The
witness step looks below each remaining sibling for one leaf matching the
leftmost one.  The generators are then sifted, in the order found, into
one chain along that base, each at its own depth.  Every generator passes
an exhaustive color-preservation check, so the group is never too big; a
wrongly pruned branch could still leave it too small, which is why
``schurian_test`` in ``analysis`` refuses a group that is not transitive.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import SizingError

logger = logging.getLogger(__name__)

DEFAULT_ORACLE_CAP = 100  # automorphism searches refuse bigger vertex sets


# ---------------------------------------------------------------------------
# permutations as index arrays
# ---------------------------------------------------------------------------

def identity_perm(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int32)


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The permutation applying b first, then a."""
    return a[b]


def inverse_perm(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[a] = np.arange(len(a), dtype=a.dtype)
    return out


def is_identity(a: np.ndarray) -> bool:
    return bool((a == np.arange(len(a), dtype=a.dtype)).all())


def as_permutation(n: int, seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int32)
    if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {seq!r}")
    return arr


# ---------------------------------------------------------------------------
# Schreier-Sims chains
# ---------------------------------------------------------------------------

def _orbit(seeds, gens) -> dict[int, tuple[int, np.ndarray] | None]:
    """The orbit of ``seeds`` under ``gens`` in breadth-first order, as a
    Schreier tree: each point maps to the (predecessor, generator) pair
    that first reached it, and each seed to None."""
    tree: dict[int, tuple[int, np.ndarray] | None] = dict.fromkeys(seeds)
    queue = list(tree)
    for beta in queue:
        for g in gens:
            gamma = int(g[beta])
            if gamma not in tree:
                tree[gamma] = (beta, g)
                queue.append(gamma)
    return tree


class PermGroup:
    """A permutation group on 0..degree-1 with a stabilizer chain along
    ``base``, which is 0, 1, ..., degree-1 unless given.

    Chain level i holds the orbit of base[i] under the subgroup fixing
    base[:i] pointwise, with a transversal permutation per orbit point.
    Only the identity may fix every base point: any other such permutation
    is a non-member, and a generator that leaves one raises ValueError.
    ``generators`` keeps the input generators that enlarged the group, in
    order of arrival; for a point stabilizer, its chain's strong generators.
    """

    def __init__(self, degree: int, generators=(), *, base=None):
        self.degree = degree
        self.base = tuple(range(degree)) if base is None else tuple(map(int, base))
        if len(set(self.base) & set(range(degree))) != len(self.base):
            raise ValueError(f"base {base!r} repeats a point or leaves 0..{degree - 1}")
        self._gens_at: list[list[np.ndarray]] = [[] for _ in self.base]
        self._trans: list[dict[int, np.ndarray] | None] = [None] * len(self.base)
        perms = (as_permutation(degree, g) for g in generators)
        self.generators = tuple(arr for arr in perms if self._extend(arr))

    # -- chain maintenance

    def _strong_gens_from(self, level: int) -> list[np.ndarray]:
        return [g for gens in self._gens_at[level:] for g in gens]

    def _sift(self, g: np.ndarray, start: int):
        """Reduce g through chain levels >= start.  None means g factored
        over the transversals completely (i.e. membership); otherwise
        (level, residue), where level len(base) means a residue that
        fixes every base point without being the identity."""
        for i in range(start, len(self.base)):
            point = self.base[i]
            beta = int(g[point])
            if beta == point:
                continue
            trans = self._trans[i]
            if trans is None or beta not in trans:
                return i, g
            g = compose(inverse_perm(trans[beta]), g)
        return None if is_identity(g) else (len(self.base), g)

    def _add_strong(self, level: int, h: np.ndarray) -> int:
        if level == len(self.base):
            raise ValueError(
                f"{self.base} is not a base: a non-identity permutation fixes all of it")
        self._gens_at[level].append(h)
        return level

    def _close_level(self, i: int):
        """Rebuild orbit and transversal at level i, then push every
        Schreier generator through the deeper levels.  Returns the level
        that received a new generator, or None once level i is closed."""
        gens = self._strong_gens_from(i)
        trans: dict[int, np.ndarray] = {}
        for beta, edge in _orbit([self.base[i]], gens).items():
            if edge is None:
                trans[beta] = identity_perm(self.degree)
            else:
                prev, g = edge
                trans[beta] = compose(g, trans[prev])
        self._trans[i] = trans
        for beta, ub in trans.items():
            for g in gens:
                s = compose(inverse_perm(trans[int(g[beta])]), compose(g, ub))
                if is_identity(s):
                    continue
                res = self._sift(s, i + 1)
                if res is not None:
                    return self._add_strong(*res)
        return None

    def _extend(self, g: np.ndarray) -> bool:
        """Add one permutation; False when it was already a member."""
        res = self._sift(g, 0)
        if res is None:
            return False
        i = self._add_strong(*res)
        while i >= 0:
            moved = self._close_level(i)
            i = moved if moved is not None else i - 1
        return True

    # -- queries

    def order(self) -> int:
        return math.prod(len(trans) for trans in self._trans if trans is not None)

    def __contains__(self, perm) -> bool:
        return self._sift(as_permutation(self.degree, perm), 0) is None

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        gens = self._strong_gens_from(0)
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

        The chain levels >= 1 already form a chain for it, so they are
        shared and level 0 is left trivial; no Schreier-Sims work is
        done."""
        if self.base[:1] != (0,):
            raise ValueError(f"point 0 is not the first point of the base {self.base}")
        stab = PermGroup(self.degree, base=self.base)
        stab._gens_at = [[]] + [list(gens) for gens in self._gens_at[1:]]
        stab._trans = [None] + self._trans[1:]
        stab.generators = tuple(stab._strong_gens_from(1))
        return stab

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


# ---------------------------------------------------------------------------
# edge-colored graphs
# ---------------------------------------------------------------------------

class ColorGraph:
    """A complete graph on n vertices whose ordered pairs carry colors,
    as an (n, n) integer matrix.  The matrix must be symmetric and the
    diagonal must use colors of its own, so loops never mix with edges."""

    __slots__ = ("edge_colors", "n", "ncolors")

    def __init__(self, edge_colors):
        ec = np.ascontiguousarray(np.asarray(edge_colors, dtype=np.int64))
        if ec.ndim != 2 or ec.shape[0] != ec.shape[1] or ec.shape[0] == 0:
            raise ValueError("edge colors must form a nonempty square matrix")
        if ec.min() < 0:
            raise ValueError("edge colors must be nonnegative integers")
        if not np.array_equal(ec, ec.T):
            u, v = map(int, np.argwhere(ec != ec.T)[0])
            raise ValueError(
                f"edge colors are not symmetric: "
                f"({u}, {v}) has {int(ec[u, v])} but ({v}, {u}) has {int(ec[v, u])}")
        n = ec.shape[0]
        diag = set(np.unique(np.diagonal(ec)).tolist())
        off = ec[~np.eye(n, dtype=bool)]
        if off.size and diag & set(np.unique(off).tolist()):
            shared = sorted(diag & set(np.unique(off).tolist()))[0]
            raise ValueError(f"color {shared} appears both on and off the diagonal")
        self.edge_colors = ec
        self.n = n
        self.ncolors = int(ec.max()) + 1


def color_refinement(graph: ColorGraph, colors=None) -> np.ndarray:
    """The coarsest stable refinement of ``colors`` (uniform by default)
    under neighborhood color signatures.

    Each round encodes, per vertex, the sorted multiset of (edge color,
    endpoint color) pairs over all endpoints, and relabels vertices by the
    lexicographic rank of (old color, signature).  Labels are therefore
    canonical: relabeling the graph by a permutation permutes the result
    the same way, which the search below relies on for pruning.
    """
    ec = graph.edge_colors
    n = graph.n
    if colors is None:
        colors = np.zeros(n, dtype=np.int64)
    else:
        _, colors = np.unique(np.asarray(colors, dtype=np.int64), return_inverse=True)
    k = int(colors.max()) + 1
    while True:
        codes = ec * k + colors[None, :]
        codes.sort(axis=1)
        table = np.concatenate([colors[:, None], codes], axis=1)
        _, fresh = np.unique(table, axis=0, return_inverse=True)
        fresh = fresh.astype(np.int64)
        knew = int(fresh.max()) + 1
        if knew == k:
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


def automorphism_group(graph: ColorGraph, *, cap: int = DEFAULT_ORACLE_CAP) -> PermGroup:
    """The full automorphism group of an edge-colored graph, with its
    chain along the base the search individualized."""
    n = graph.n
    if n > cap:
        raise SizingError(
            f"automorphism search on {n} vertices exceeds the cap of {cap}")
    ec = graph.edge_colors

    # descent: the leftmost path, its color histograms and its leaf
    path = []  # (coloring, target cell) per level above the leaf
    colors = color_refinement(graph)
    hists = [np.bincount(colors).tobytes()]
    while (cell := _target_cell(colors)) is not None:
        path.append((colors, cell))
        colors = _individualized(graph, colors, int(cell[0]))
        hists.append(np.bincount(colors).tobytes())
    base = [int(cell[0]) for _, cell in path]
    leaf = np.argsort(colors, kind="stable")
    nodes, tests = len(hists), 0

    def witness(colors: np.ndarray, depth: int):
        """An automorphism sending the leftmost leaf into this subtree,
        or None when there is none."""
        nonlocal nodes, tests
        nodes += 1
        if np.bincount(colors).tobytes() != hists[depth]:
            return None
        cell = _target_cell(colors)
        if cell is None:
            tests += 1
            perm = np.empty(n, dtype=np.int32)
            perm[leaf] = np.argsort(colors, kind="stable")
            return perm if np.array_equal(ec[perm[:, None], perm[None, :]], ec) else None
        for w in cell:
            found = witness(_individualized(graph, colors, int(w)), depth + 1)
            if found is not None:
                return found
        return None

    # climb: one witness per sibling the known generators do not reach
    gens: list[np.ndarray] = []
    for depth in reversed(range(len(path))):
        colors, cell = path[depth]
        tried = [base[depth]]
        for w in map(int, cell[1:]):
            if w in _orbit(tried, gens):
                continue
            found = witness(_individualized(graph, colors, w), depth + 1)
            if found is not None:
                gens.append(found)
            tried.append(w)

    group = PermGroup(n, gens, base=base)
    logger.debug(
        "automorphism search on %d vertices: %d nodes, %d leaf tests, "
        "%d generators, order %d",
        n, nodes, tests, len(gens), group.order())
    return group
