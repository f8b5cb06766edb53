"""Permutation chains, color refinement and the automorphism search."""

import itertools
import logging
import math
import os

import numpy as np
import pytest

import naive
from schurcensus.analysis import cayley_color_graph
from schurcensus.errors import SizingError
from schurcensus.gf import field_from_literal
from schurcensus.lines import one_class_partition, singleton_partition, wielandt_partition
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
from schurcensus.schur import SchurBasis


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


def closure_orbits(elements, n):
    return tuple(sorted({tuple(sorted({p[x] for p in elements})) for x in range(n)}))


def test_order_and_membership_against_closure():
    everything = list(itertools.permutations(range(6)))
    rng = np.random.default_rng(7)
    for _ in range(8):
        gens = [tuple(rng.permutation(6)) for _ in range(2)]
        closure = naive.perm_closure(gens)
        for base in (None, (3, 0, 5, 1, 4, 2)):
            group = PermGroup(6, gens, base=base)
            assert group.order() == len(closure)
            for p in everything:
                assert (p in group) == (p in closure)
            assert group.orbits() == closure_orbits(closure, 6)
            if group.base[0] != 0:
                with pytest.raises(ValueError, match="first point of the base"):
                    group.point_stabilizer()


def test_only_the_identity_fixes_the_base():
    # in the group of the 3-cycle (0 1 2) only the identity fixes 0, so
    # (0,) is a base; the transposition (1 2) fixes 0 but is no member
    cyclic = PermGroup(4, [[1, 2, 0, 3]], base=(0,))
    assert cyclic.order() == 3
    assert [0, 2, 1, 3] not in cyclic
    assert [0, 1, 2, 3] in cyclic
    with pytest.raises(ValueError, match="not a base"):
        PermGroup(4, [[1, 2, 0, 3], [0, 2, 1, 3]], base=(0,))
    for bad in ((0, 0), (4,), (-1, 2)):
        with pytest.raises(ValueError, match="repeats a point or leaves"):
            PermGroup(4, base=bad)


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
    everything = list(itertools.permutations(range(6)))
    rng = np.random.default_rng(11)
    for _ in range(6):
        gens = [tuple(rng.permutation(6)) for _ in range(2)]
        fixing = {p for p in naive.perm_closure(gens) if p[0] == 0}
        for base in (None, (0, 4, 2, 5, 1, 3)):
            stab = PermGroup(6, gens, base=base).point_stabilizer()
            assert stab.order() == len(fixing)
            assert stab.orbits() == closure_orbits(fixing, 6)
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


def test_star_search_starts_at_a_leaf():
    # refinement sets the center 0 apart, so the search individualizes the
    # leaf 1 first and Stab(0) is not the tail of the chain
    group = check_against_brute_force(graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert group.base[0] == 1
    with pytest.raises(ValueError, match="first point of the base"):
        group.point_stabilizer()


STRETCH = pytest.mark.skipif(os.environ.get("SCHURCENSUS_STRETCH") != "1",
                             reason="set SCHURCENSUS_STRETCH=1 for the large-field runs")


@pytest.mark.parametrize("make,literal,record", [
    (wielandt_partition, "5^1", (25, 15, 10, 3, 100)),
    (one_class_partition, "5^1", (25, 325, 24, 24, math.factorial(25))),
    (wielandt_partition, "7^1", (49, 24, 19, 4, 294)),
    (singleton_partition, "2^3", (64, 8, 3, 3, 448)),
    pytest.param(one_class_partition, "3^2", (81, 3321, 80, 80, math.factorial(81)),
                 marks=[pytest.mark.stretch, STRETCH]),
])
def test_search_record(caplog, make, literal, record):
    # (vertices, nodes, leaf tests, generators, order) of the DEBUG record
    caplog.set_level(logging.DEBUG, logger="schurcensus.perms")
    basis = SchurBasis.from_partition(make(field_from_literal(literal)))
    group = automorphism_group(cayley_color_graph(basis))
    [args] = [r.args for r in caplog.records if r.name == "schurcensus.perms"]
    assert args == record
    assert group.base[0] == 0


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
