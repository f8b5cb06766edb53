"""Permutation chains, color refinement and the automorphism search."""

import math

import numpy as np
import pytest

import naive
from schurcensus.errors import SizingError
from schurcensus.perms import (
    ColorGraph,
    PermGroup,
    as_permutation,
    automorphism_group,
    color_refinement,
    compose,
    identity_perm,
    inverse_perm,
    is_identity,
)


def graph_from_edges(n, edges, *, edge_color=1, non_edge=0, loop=2):
    mat = np.full((n, n), non_edge, dtype=np.int64)
    for u, v in edges:
        mat[u, v] = mat[v, u] = edge_color
    np.fill_diagonal(mat, loop)
    return ColorGraph(mat)


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# permutation arrays
# ---------------------------------------------------------------------------

def test_perm_primitives():
    rng = np.random.default_rng(20260819)
    for _ in range(50):
        a = rng.permutation(10).astype(np.int32)
        b = rng.permutation(10).astype(np.int32)
        ab = compose(a, b)
        # agree with the tuple definition: apply b, then a
        assert ab.tolist() == [int(a[b[x]]) for x in range(10)]
        assert is_identity(compose(a, inverse_perm(a)))
        assert is_identity(compose(inverse_perm(a), a))
    assert is_identity(identity_perm(6))
    with pytest.raises(ValueError):
        as_permutation(4, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        as_permutation(4, [0, 1, 2])


def sym_group(n):
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = list(range(1, n)) + [0]
    return PermGroup(n, [swap, cycle])


def test_symmetric_group_orders():
    for n in range(3, 9):
        assert sym_group(n).order() == math.factorial(n)


def test_cyclic_and_trivial_and_klein():
    assert PermGroup(5, [[1, 2, 3, 4, 0]]).order() == 5
    trivial = PermGroup(5)
    assert trivial.order() == 1
    assert identity_perm(5) in trivial
    assert [1, 0, 2, 3, 4] not in trivial
    klein = PermGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    assert klein.order() == 4


def test_order_and_membership_against_closure():
    rng = np.random.default_rng(7)
    for _ in range(8):
        gens = [tuple(rng.permutation(6)) for _ in range(2)]
        group = PermGroup(6, gens)
        closure = naive.perm_closure(gens)
        assert group.order() == len(closure)
        for el in sorted(closure)[:50]:
            assert el in group
        if len(closure) < 720:
            import itertools
            outside = next(p for p in itertools.permutations(range(6))
                           if p not in closure)
            assert outside not in group


def test_generators_keep_only_extenders():
    g = [1, 2, 0, 3]
    group = PermGroup(4, [g, g, [2, 0, 1, 3]])
    assert len(group.generators) == 1
    assert group.order() == 3


def test_orbits():
    group = PermGroup(5, [[1, 2, 0, 3, 4]])
    assert group.orbits() == ((0, 1, 2), (3,), (4,))
    assert sym_group(4).orbits() == ((0, 1, 2, 3),)


def test_point_stabilizer_symmetric():
    group = sym_group(5)
    stab = group.point_stabilizer()
    assert stab.order() == 24
    assert stab.orbits() == ((0,), (1, 2, 3, 4))
    for g in stab.generators:
        assert int(g[0]) == 0
        assert g in group


def test_point_stabilizer_matches_closure():
    import itertools
    everything = list(itertools.permutations(range(6)))
    rng = np.random.default_rng(11)
    for _ in range(6):
        gens = [tuple(rng.permutation(6)) for _ in range(2)]
        group = PermGroup(6, gens)
        fixing = {p for p in naive.perm_closure(gens) if p[0] == 0}
        stab = group.point_stabilizer()
        assert stab.order() == len(fixing)
        assert stab.orbits() == tuple(sorted(
            {tuple(sorted({p[x] for p in fixing})) for x in range(6)}))
        for p in everything:
            assert (p in stab) == (p in fixing)
    assert PermGroup(5, [[1, 2, 3, 4, 0]]).point_stabilizer().order() == 1


def test_orbit_stabilizer_arithmetic():
    rng = np.random.default_rng(23)
    for _ in range(5):
        gens = [tuple(rng.permutation(7)) for _ in range(2)]
        group = PermGroup(7, gens)
        orbit = group.orbits()[0]  # the orbit of 0
        assert group.order() == len(orbit) * group.point_stabilizer().order()


# ---------------------------------------------------------------------------
# colored graphs and refinement
# ---------------------------------------------------------------------------

def test_color_graph_validation():
    with pytest.raises(ValueError):
        ColorGraph(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        ColorGraph(np.zeros((0, 0), dtype=int))
    bad = np.zeros((3, 3), dtype=int)
    bad[0, 1] = 1
    np.fill_diagonal(bad, 2)
    with pytest.raises(ValueError, match="symmetric"):
        ColorGraph(bad)
    shared = np.ones((3, 3), dtype=int)  # loops share color 1 with edges
    with pytest.raises(ValueError, match="diagonal"):
        ColorGraph(shared)
    with pytest.raises(ValueError):
        ColorGraph(np.eye(3, dtype=int) * -1)


def test_refinement_on_path():
    graph = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    colors = color_refinement(graph)
    assert colors[0] == colors[3] and colors[1] == colors[2]
    assert colors[0] != colors[1]
    # stable: refining the result changes nothing
    assert np.array_equal(color_refinement(graph, colors), colors)


def test_refinement_keeps_transitive_graphs_uniform():
    colors = color_refinement(cycle_graph(6))
    assert int(colors.max()) == 0


def test_refinement_is_equivariant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        raw = rng.integers(1, 4, size=(7, 7))
        mat = np.triu(raw, 1)
        mat = mat + mat.T
        np.fill_diagonal(mat, 0)
        graph = ColorGraph(mat)
        colors = color_refinement(graph)
        pi = rng.permutation(7)
        relabeled = ColorGraph(mat[np.ix_(pi, pi)])
        assert np.array_equal(color_refinement(relabeled), colors[pi])


# ---------------------------------------------------------------------------
# the automorphism search
# ---------------------------------------------------------------------------

def check_against_brute_force(graph):
    group = automorphism_group(graph)
    brute = naive.color_automorphisms(graph.edge_colors.tolist())
    assert group.order() == len(brute)
    for perm in brute:
        assert perm in group
    return group


def test_small_graph_automorphisms_exhaustively():
    check_against_brute_force(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))  # 2
    check_against_brute_force(cycle_graph(5))  # dihedral, 10
    check_against_brute_force(cycle_graph(6))  # 12
    check_against_brute_force(graph_from_edges(4, [(u, v) for u in range(4)
                                                   for v in range(u)]))  # Sym(4)
    check_against_brute_force(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))  # star
    mat = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    check_against_brute_force(ColorGraph(mat))  # rigid colored triangle


def test_random_colored_graphs_against_brute_force():
    rng = np.random.default_rng(20260819)
    for _ in range(15):
        raw = rng.integers(1, 4, size=(6, 6))
        mat = np.triu(raw, 1)
        mat = mat + mat.T
        np.fill_diagonal(mat, 0)
        check_against_brute_force(ColorGraph(mat))


def test_search_is_deterministic():
    graph = cycle_graph(6)
    a = automorphism_group(graph)
    b = automorphism_group(graph)
    assert len(a.generators) == len(b.generators)
    for x, y in zip(a.generators, b.generators):
        assert np.array_equal(x, y)


def test_search_cap():
    with pytest.raises(SizingError):
        automorphism_group(cycle_graph(8), cap=7)


def test_big_symmetric_case():
    # one color class off the diagonal: the full symmetric group
    n = 9
    mat = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(mat, 0)
    group = automorphism_group(ColorGraph(mat))
    assert group.order() == math.factorial(n)
    assert group.point_stabilizer().order() == math.factorial(n - 1)
