"""Permutation groups and automorphisms of edge-colored graphs.

Permutations on n points live as numpy index arrays: p[x] is the image of
x, compose(a, b) applies b first.  ``PermGroup`` keeps a deterministic
Schreier-Sims chain along the fixed base 0, 1, ..., n-1 (most levels stay
trivial), which gives exact orders as big integers and fast membership
sifting.  The levels below level 0 are already a chain for the stabilizer
of 0, the only stabilizer the schurian oracle needs, so
``point_stabilizer()`` shares them instead of building anew.

``automorphism_group`` computes the full automorphism group of a
``ColorGraph`` by individualization and refinement.  The refinement is a
vectorized edge-colored analogue of naive vertex classification: each
round sorts the rows of (edge color, neighbor color) codes and relabels by
lexicographic rank, so equal colorings of isomorphic graphs always get
equal labels.  The backtrack tree follows the leftmost branch as the
canonical reference; sibling branches are cut by color histogram mismatch,
abandoned as soon as one automorphism is found, and skipped entirely when
an already known generator maps a previously handled sibling onto them.
Every reported generator passes an exhaustive color-preservation check, so
the group found is never too big.  A wrongly pruned branch can still lose
generators and leave it too small; its stabilizer orbits then split a
class and would give a false non-schurian verdict.  ``schurian_test`` in
``analysis`` therefore refuses a group that is not transitive, as the
automorphism group of a Cayley graph must be.
"""

from __future__ import annotations

import logging

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
    the base 0, 1, ..., degree-1.

    The chain level i holds the orbit of i under the subgroup fixing
    0..i-1 pointwise, with a transversal permutation per orbit point.
    ``generators`` keeps the input generators that actually enlarged the
    group, in order of arrival; for a point stabilizer, the strong
    generators of its chain.
    """

    def __init__(self, degree: int, generators=()):
        self.degree = degree
        self._gens_at: list[list[np.ndarray]] = [[] for _ in range(degree)]
        self._trans: list[dict[int, np.ndarray] | None] = [None] * degree
        kept = []
        for g in generators:
            arr = as_permutation(degree, g)
            if self._extend(arr):
                kept.append(arr)
        self.generators = tuple(kept)

    # -- chain maintenance

    def _strong_gens_from(self, level: int) -> list[np.ndarray]:
        return [g for lvl in range(level, self.degree) for g in self._gens_at[lvl]]

    def _sift(self, g: np.ndarray, start: int):
        """Reduce g through chain levels >= start; None means g factored
        over the transversals completely (i.e. membership)."""
        for i in range(start, self.degree):
            beta = int(g[i])
            if beta == i:
                continue
            trans = self._trans[i]
            if trans is None or beta not in trans:
                return i, g
            g = compose(inverse_perm(trans[beta]), g)
        return None

    def _close_level(self, i: int):
        """Rebuild orbit and transversal at level i, then push every
        Schreier generator through the deeper levels.  Returns the level
        that received a new generator, or None once level i is closed."""
        gens = self._strong_gens_from(i)
        trans: dict[int, np.ndarray] = {}
        for beta, edge in _orbit([i], gens).items():
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
                    level, h = res
                    self._gens_at[level].append(h)
                    return level
        return None

    def _extend(self, g: np.ndarray) -> bool:
        """Add one permutation; False when it was already a member."""
        res = self._sift(g, 0)
        if res is None:
            return False
        level, h = res
        self._gens_at[level].append(h)
        i = level
        while i >= 0:
            moved = self._close_level(i)
            i = moved if moved is not None else i - 1
        return True

    # -- queries

    def order(self) -> int:
        total = 1
        for trans in self._trans:
            if trans is not None:
                total *= len(trans)
        return total

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
        """The subgroup fixing 0, the first base point.

        The chain levels >= 1 already form a chain for it, so they are
        shared and level 0 is left trivial; no Schreier-Sims work is
        done."""
        stab = PermGroup(self.degree)
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


def _individualized(colors: np.ndarray, v: int) -> np.ndarray:
    out = colors.copy()
    out[v] = colors.max() + 1
    return out


def _known_maps_to(w: int, tried: list[int], gens: list[np.ndarray],
                   fixed: list[int]) -> bool:
    """True when some product of known generators fixing ``fixed``
    pointwise sends a vertex in ``tried`` to w."""
    anchor = np.asarray(fixed, dtype=np.int32)
    keep = [g for g in gens if np.array_equal(g[anchor], anchor)]
    return w in _orbit(tried, keep)


def automorphism_group(graph: ColorGraph, *, cap: int = DEFAULT_ORACLE_CAP) -> PermGroup:
    """The full automorphism group of an edge-colored graph."""
    n = graph.n
    if n > cap:
        raise SizingError(
            f"automorphism search on {n} vertices exceeds the cap of {cap}")
    ec = graph.edge_colors
    gens: list[np.ndarray] = []
    base_hists: list[bytes] = []
    base_prefix: list[int] = []
    base_leaf: list = [None]
    stats = {"nodes": 0, "tests": 0}

    def explore(colors: np.ndarray, depth: int, on_base: bool):
        stats["nodes"] += 1
        hist = np.bincount(colors).tobytes()
        if on_base:
            base_hists.append(hist)
        elif depth >= len(base_hists) or hist != base_hists[depth]:
            return None
        if int(colors.max()) == n - 1:  # discrete: a leaf
            leaf = np.argsort(colors, kind="stable").astype(np.int32)
            if base_leaf[0] is None:
                base_leaf[0] = leaf
                return None
            perm = np.empty(n, dtype=np.int32)
            perm[base_leaf[0]] = leaf
            stats["tests"] += 1
            if np.array_equal(ec[perm[:, None], perm[None, :]], ec):
                return perm
            return None
        counts = np.bincount(colors)
        cell = np.flatnonzero(colors == int(np.flatnonzero(counts >= 2)[0]))
        if on_base:
            v = int(cell[0])
            base_prefix.append(v)
            explore(color_refinement(graph, _individualized(colors, v)),
                    depth + 1, True)
            tried = [v]
            for w in cell[1:]:
                w = int(w)
                if _known_maps_to(w, tried, gens, base_prefix[:depth]):
                    continue
                found = explore(
                    color_refinement(graph, _individualized(colors, w)),
                    depth + 1, False)
                if found is not None:
                    gens.append(found)
                tried.append(w)
            return None
        for w in cell:
            found = explore(
                color_refinement(graph, _individualized(colors, int(w))),
                depth + 1, False)
            if found is not None:
                return found  # one coset witness is enough for this branch
        return None

    explore(color_refinement(graph), 0, True)
    group = PermGroup(n, gens)
    logger.debug(
        "automorphism search on %d vertices: %d nodes, %d leaf tests, "
        "%d generators, order %d",
        n, stats["nodes"], stats["tests"], len(gens), group.order())
    return group
