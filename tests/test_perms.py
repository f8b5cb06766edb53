"""Permutation chains, color refinement and the automorphism search."""

import itertools
import logging
import math
import os

import numpy as np
import pytest

import naive
from schurcensus import perms
from schurcensus.analysis import cayley_color_graph, translation_perms
from schurcensus.errors import InconsistencyError, SizingError
from schurcensus.gf import field_from_literal
from schurcensus.lines import (
    enumerate_partitions,
    one_class_partition,
    orbit_labels,
    partition_array,
    singleton_partition,
    wielandt_partition,
)
from schurcensus.perms import (
    ColorGraph,
    PermGroup,
    as_permutation,
    automorphism_group,
    color_refinement,
    identity_perm,
    is_identity,
)
from schurcensus.schur import SchurBasis


STRETCH = pytest.mark.skipif(os.environ.get("SCHURCENSUS_STRETCH") != "1",
                             reason="set SCHURCENSUS_STRETCH=1 for the large-field runs")


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
        inverse = np.array(naive.inverse_perm(a), dtype=np.int32)
        assert is_identity(a[inverse]) and is_identity(inverse[a])
    assert is_identity(identity_perm(6))
    assert not is_identity(np.roll(identity_perm(6), 1))
    # a repeat, a short list, floats, bools and an int past int32
    for n, seq in [(4, [0, 1, 2, 2]), (4, [0, 1, 2]), (3, [1.9, 0, 2]), (2, [0.0, 1.0]),
                   (2, [True, False]), (2, [2**40, 0])]:
        with pytest.raises(ValueError, match="not a permutation"):
            as_permutation(n, seq)
    with pytest.raises(ValueError, match="not a permutation"):
        [1.9, 0, 2] in PermGroup(3, [[1, 0, 2]])


def strong_group(n, gens, base=None):
    """``PermGroup`` on a strong generating set along ``base`` for the
    group ``gens`` generate, and the closure that set was read off."""
    closure = naive.perm_closure(gens)
    strong = naive.strong_generators(closure, range(n) if base is None else base)
    return PermGroup(n, strong, base=base), closure


def sym_group(n):
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = list(range(1, n)) + [0]
    return strong_group(n, [swap, cycle])


def test_symmetric_group_orders():
    for n in range(3, 9):
        group, closure = sym_group(n)
        assert group.order() == len(closure) == math.factorial(n)


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


def closure_inputs():
    """Generating pairs on 0..5: a 3-cycle and its inverse, then random."""
    rng = np.random.default_rng(7)
    inputs = [[(1, 2, 0, 3, 4, 5), (2, 0, 1, 3, 4, 5)]]
    return inputs + [[tuple(rng.permutation(6)) for _ in range(2)] for _ in range(8)]


def test_order_and_membership_against_closure():
    everything = list(itertools.permutations(range(6)))
    inputs = closure_inputs()
    assert len(naive.perm_closure(inputs[0])) == 3
    for gens in inputs:
        closure = naive.perm_closure(gens)
        for base in (None, (3, 0, 5, 1, 4, 2)):
            strong = naive.strong_generators(closure, base or range(6))
            # a repeated generator and the identity add nothing
            strong += strong[:1] + [tuple(range(6))]
            group = PermGroup(6, strong, base=base)
            assert len(group.generators) == len(strong)
            assert group.order() == len(closure)
            for p in everything:
                assert (p in group) == (p in closure)
            assert group.orbits() == closure_orbits(closure, 6)
            if group.base[0] != 0:
                with pytest.raises(ValueError, match="first point of the base"):
                    group.point_stabilizer()


def test_bulk_sift_matches_membership():
    # the groups of test_order_and_membership_against_closure, sifting
    # every permutation of 0..5 as one stack
    everything = np.array(list(itertools.permutations(range(6))))
    for gens in closure_inputs():
        closure = naive.perm_closure(gens)
        for base in (None, (3, 0, 5, 1, 4, 2)):
            group = PermGroup(6, naive.strong_generators(closure, base or range(6)),
                              base=base)
            mask = group.member_mask(everything)
            assert mask.tolist() == [tuple(p) in closure for p in everything]
            assert mask.sum() == len(closure)
            # a repeated point never sifts to the identity
            assert not group.member_mask([[0, 0, 2, 3, 4, 5]]).any()
            for bad in ([[0, 1, 2, 3, 4, 6]], [[-6, 1, 2, 3, 4, 5]], [[0.0] * 6]):
                with pytest.raises(ValueError, match="points of 0..5"):
                    group.member_mask(bad)


def test_bulk_sift_on_a_set_that_is_not_strong():
    # two generators that both move 0 sit at level 0, so the chain is the
    # orbit of 0 alone while they generate more: the sift accepts exactly
    # the products of the levels' inverted transversals, in level order,
    # and a member of the generated group that leaves an orbit stays out
    everything = np.array(list(itertools.permutations(range(6))))
    smaller = 0
    for gens in closure_inputs():
        group = PermGroup(6, gens)
        products = [identity_perm(6)]
        for level in group._levels:
            products = [naive.compose(p, naive.inverse_perm(t))
                        for p in products for t in level.stack]
        chain = {tuple(p) for p in products}
        assert len(chain) == group.order()
        assert group.member_mask(everything).tolist() == [tuple(p) in chain for p in everything]
        smaller += len(chain) < len(naive.perm_closure(gens))
    assert smaller == 8


def test_bulk_sift_takes_only_a_stack_of_full_rows():
    # a row of length 2 * degree is not two rows, and a short row or a
    # bare permutation is not a stack: each raises the same ValueError
    group = PermGroup(3, [[1, 2, 0]])
    for bad in ([[0, 1, 2, 0, 1, 2]], [[0, 1]], [0, 1, 2], [], [[[0, 1, 2]]]):
        with pytest.raises(ValueError, match=r"not a \(k, 3\) stack"):
            group.member_mask(bad)
    assert group.member_mask(np.empty((0, 3), dtype=int)).tolist() == []
    assert group.member_mask([[1, 2, 0], [1, 0, 2]]).tolist() == [True, False]


def check_schreier_trees(group):
    """Each level's transversal lists its orbit in the breadth-first order
    of a plain walk over the strong generators from that level on, taken
    level by level (in input order within a level), and each stored
    element takes its point back to the level's base point."""
    base = group.base

    def level(g):
        return next(j for j, point in enumerate(base) if g[point] != point)

    movers = sorted((g for g in group.generators if not is_identity(g)), key=level)
    for i, point in enumerate(base):
        gens = [g for g in movers if level(g) >= i]
        walk = [point]
        for beta in walk:
            for g in gens:
                if int(g[beta]) not in walk:
                    walk.append(int(g[beta]))
        rows = group._levels[i].where  # orbit point -> its row in the stack
        orbit = np.flatnonzero(rows >= 0)
        assert orbit[np.argsort(rows[orbit])].tolist() == walk
        stack = group._levels[i].stack
        assert len(stack) == len(walk)
        for beta in walk:
            assert int(stack[rows[beta]][beta]) == point


def test_schreier_trees_on_random_strong_sets():
    for gens in closure_inputs():
        closure = naive.perm_closure(gens)
        for base in (None, (3, 0, 5, 1, 4, 2)):
            strong = naive.strong_generators(closure, base or range(6))
            strong += strong[:1] + [tuple(range(6))]
            check_schreier_trees(PermGroup(6, strong, base=base))


def test_schreier_trees_of_the_search():
    for pi in orbit_representatives("5^1"):
        check_schreier_trees(automorphism_group(cayley_color_graph(SchurBasis.from_partition(pi))))


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


def test_orbits():
    group = PermGroup(5, [[1, 2, 0, 3, 4]])
    assert group.orbits() == ((0, 1, 2), (3,), (4,))
    assert sym_group(4)[0].orbits() == ((0, 1, 2, 3),)


def test_point_stabilizer_symmetric():
    group, closure = sym_group(5)
    stab = group.point_stabilizer()
    assert stab.order() == 24 == sum(p[0] == 0 for p in closure)
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
            stab = strong_group(6, gens, base)[0].point_stabilizer()
            assert stab.order() == len(fixing)
            assert stab.orbits() == closure_orbits(fixing, 6)
            for p in everything:
                assert (p in stab) == (p in fixing)
            # the bulk sift through the shared levels and the trivial first one
            assert (stab.member_mask(everything).tolist()
                    == [p in fixing for p in everything])
    assert PermGroup(5, [[1, 2, 3, 4, 0]]).point_stabilizer().order() == 1


def test_orbit_stabilizer_arithmetic():
    rng = np.random.default_rng(23)
    for _ in range(5):
        gens = [tuple(rng.permutation(7)) for _ in range(2)]
        group, closure = strong_group(7, gens)
        orbit = group.orbits()[0]  # the orbit of 0
        assert group.order() == len(closure)
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
    # loop color 2 on two diagonal entries and on an edge: with 2 loops,
    # the bitwise ``loops & (counts > loops)`` is 2 & 1 == 0 and misses it
    with pytest.raises(ValueError, match="color 2 appears both on and off the diagonal"):
        ColorGraph([[2, 2, 1], [2, 2, 1], [1, 1, 0]])
    with pytest.raises(ValueError):
        ColorGraph(np.eye(3, dtype=int) * -1)


@pytest.mark.parametrize("values", [
    pytest.param(np.array([3, 0, 2, 1, 0, 3]), id="dense"),
    pytest.param(np.array([5, 0, 5, 1, 0, 0, 2], dtype=np.uint8), id="gaps"),
    pytest.param(np.array([40, 7, 7, 19, 3]), id="above-size"),
    pytest.param(np.array([-3, 2, -3, 0]), id="negative"),
    pytest.param(np.array([2 ** 63, 1, 2 ** 64 - 1, 1], dtype=np.uint64), id="uint64"),
    pytest.param(np.array([], dtype=np.int64), id="empty"),
    pytest.param(np.array([[4, 1, 1], [0, 8, 4]], dtype=np.int32), id="2-d"),
])
def test_dense_ranks_match_np_unique(values):
    distinct, ranks = perms.dense_ranks(values)
    expected, inverse = np.unique(values, return_inverse=True)
    assert distinct.tolist() == expected.tolist()
    assert ranks.tolist() == inverse.reshape(values.shape).tolist()
    assert ranks.dtype == np.int64 and ranks.shape == values.shape


def test_color_graph_refuses_non_integer_colors():
    # truncation would merge 1.2 and 1.7 and turn Aut (order 2) into S_3
    with pytest.raises(ValueError, match="integers"):
        ColorGraph([[0, 1.2, 1.7], [1.2, 0, 1.2], [1.7, 1.2, 0]])
    with pytest.raises(ValueError, match="integers"):
        ColorGraph(~np.eye(3, dtype=bool))
    assert ColorGraph(np.array([[0, 1], [1, 0]], dtype=np.uint8)).ncolors == 2


@pytest.mark.parametrize("colors", [
    [0],  # would broadcast
    [0.5, 0, 0, 1.7],  # would truncate
    [True, False, False, True],  # would refine as 0/1
    [],
    [[0, 0, 1, 1]],
])
def test_refinement_refuses_colorings_that_are_not_integer_vectors(colors):
    graph = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="1-D integer array of length 4"):
        color_refinement(graph, colors)


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


def test_huge_colors_refine_like_their_ranks():
    # a path with edge color 2**62: ec * k + colors wrapped when the raw
    # colors were kept, and the labels broke their lexicographic order;
    # uint64 colors from 2**63 on wrapped negative in an int64 cast
    for color, dtype in ((2 ** 62, np.int64), (2 ** 63, np.uint64), (2 ** 64 - 1, np.uint64)):
        mat = np.ones((6, 6), dtype=dtype)
        for u in range(5):
            mat[u, u + 1] = mat[u + 1, u] = color
        np.fill_diagonal(mat, 0)
        _, ranks = np.unique(mat, return_inverse=True)
        huge, ranked = ColorGraph(mat), ColorGraph(ranks.reshape(mat.shape))
        colors = color_refinement(huge)
        assert colors.tolist() == color_refinement(ranked).tolist() == [0, 2, 1, 1, 2, 0]
        assert huge.ncolors == ranked.ncolors == 3
        a, b = automorphism_group(huge), automorphism_group(ranked)
        assert a.base == b.base and a.order() == b.order() == 2
        assert [g.tolist() for g in a.generators] == [g.tolist() for g in b.generators]


def test_colors_that_are_not_dense_are_ranked_first():
    # dense labels are used as given; labels with a gap, a negative label
    # or one of n or more are ranked first, and all refine alike
    rng = np.random.default_rng(20261019)
    n = 12
    mat = np.triu(rng.integers(1, 4, size=(n, n)), 1)
    mat = mat + mat.T
    dense = rng.integers(0, 3, size=n)
    dense[:3] = [0, 1, 2]
    expected = naive.refinement_labels(mat.tolist(), dense.tolist())
    for colors in (dense, dense * 2, dense - 1, dense + n, np.where(dense == 2, 5, dense)):
        assert color_refinement(ColorGraph(mat), colors).tolist() == expected


def check_labels_along_the_base(mat, colors=None):
    """color_refinement against the reference from its definition, on
    ``colors`` and after individualizing each base point of the search."""
    graph = ColorGraph(mat)
    refined = color_refinement(graph, colors)
    assert refined.tolist() == naive.refinement_labels(mat.tolist(), colors)
    for v in automorphism_group(graph).base:
        individualized = refined.copy()
        individualized[v] = refined.max() + 1
        refined = color_refinement(graph, individualized)
        assert refined.tolist() == naive.refinement_labels(mat.tolist(),
                                                            individualized.tolist())


def test_refinement_orders_rows_by_every_byte_of_the_key():
    # 0 and 1 share a color, 2..21 have colors 1..20 (k = 21).  Both see
    # every other vertex in edge color 12, except that 0 sees 4 and 1 sees
    # 5 in color 13.  Their rows first differ where 0 has the code of 5,
    # 12 * 21 + 4 = 256, and 1 has that of 4, 255: a key compared from its
    # last byte would put 0 first
    n = 22
    mat = np.add.outer(np.arange(n), np.arange(n)) % 10 + 2
    mat[:2, 2:] = mat[2:, :2] = 12
    mat[0, 4] = mat[4, 0] = mat[1, 5] = mat[5, 1] = 13
    mat[0, 1] = mat[1, 0] = 1
    np.fill_diagonal(mat, 0)
    colors = [0, 0] + list(range(1, n - 1))
    refined = color_refinement(ColorGraph(mat), colors)
    assert refined.tolist() == naive.refinement_labels(mat.tolist(), colors)
    assert refined[1] < refined[0]


@pytest.mark.parametrize("literal", [
    "5^1",
    pytest.param("7^1", marks=[pytest.mark.stretch, STRETCH]),
    pytest.param("2^3", marks=[pytest.mark.stretch, STRETCH]),
])
def test_refinement_labels_match_the_definition_on_cayley_graphs(literal):
    # every graph at 5^1; above it the orbit representatives, which are the
    # graphs cross-validation searches (the reference is slow at 49 and 64)
    partitions = (enumerate_partitions(field_from_literal(literal)) if literal == "5^1"
                  else orbit_representatives(literal))
    for pi in partitions:
        basis = SchurBasis.from_partition(pi)
        check_labels_along_the_base(cayley_color_graph(basis).edge_colors)


def test_refinement_labels_match_the_definition_on_random_graphs():
    rng = np.random.default_rng(20261018)
    for trial in range(60):
        # up to 30 colors and 30 vertices in up to 15 starting classes, so
        # codes pass 255 and rows are told apart by more than their last byte
        n = int(rng.integers(1, 31))
        palette = rng.integers(2 ** 62 - 50, 2 ** 62 + 50, size=int(rng.integers(1, 31)))
        mat = np.triu(rng.choice(palette, size=(n, n)), 1)
        mat = mat + mat.T
        np.fill_diagonal(mat, 0 if trial % 3 else 2 ** 62 + 50)  # least or greatest
        colors = None if trial % 2 else (2 ** 62 + rng.integers(0, n // 2 + 1, size=n)).tolist()
        check_labels_along_the_base(mat, colors)


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


@pytest.mark.parametrize("make,literal,record", [
    (wielandt_partition, "5^1", (25, 15, 12, 3, 100)),
    (one_class_partition, "5^1", (25, 49, 24, 24, math.factorial(25))),
    (wielandt_partition, "7^1", (49, 24, 21, 4, 294)),
    (singleton_partition, "2^3", (64, 8, 5, 3, 448)),
    pytest.param(one_class_partition, "3^2", (81, 161, 80, 80, math.factorial(81)),
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


@pytest.mark.parametrize("make,record", [
    (one_class_partition, (25, 48, 24, 24, math.factorial(25))),
    (wielandt_partition, (25, 8, 7, 3, 100)),
    (singleton_partition, (25, 4, 3, 3, 100)),
])
def test_seeded_search_record(caplog, make, record):
    # the translations stand in for the depth-0 witnesses: each row taken
    # is one leaf test and one generator, with no node below it
    caplog.set_level(logging.DEBUG, logger="schurcensus.perms")
    field = field_from_literal("5^1")
    basis = SchurBasis.from_partition(make(field))
    group = automorphism_group(cayley_color_graph(basis), translations=translation_perms(field))
    [args] = [r.args for r in caplog.records if r.name == "schurcensus.perms"]
    assert args == record
    assert group.base[0] == 0


def orbit_representatives(literal):
    """The first partition of each PGammaL(2, q)-orbit, in enumeration
    order, as cross-validation picks them."""
    field = field_from_literal(literal)
    rgs = partition_array(field)
    return list(enumerate_partitions(field, rgs[np.unique(orbit_labels(field))]))


@pytest.mark.parametrize("literal", [
    "3^1", "2^2", "5^1", "7^1",
    pytest.param("2^3", marks=[pytest.mark.stretch, STRETCH]),
    pytest.param("3^2", marks=[pytest.mark.stretch, STRETCH]),
])
def test_search_hands_over_a_strong_generating_set(literal):
    # Schreier's lemma: the generators fixing base[:i] form a strong set
    # exactly when, at every level i, each Schreier generator lies in the
    # group of the generators fixing base[:i+1]; the chain assumes it, with
    # the translations seeded or not
    field = field_from_literal(literal)
    for pi, table in itertools.product(orbit_representatives(literal),
                                       (None, translation_perms(field))):
        group = automorphism_group(cayley_color_graph(SchurBasis.from_partition(pi)),
                                   translations=table)
        n, base = group.degree, group.base
        for i, point in enumerate(base):
            gens = [g for g in group.generators if (g[list(base[:i])] == base[:i]).all()]
            deeper = PermGroup(n, [g for g in gens if g[point] == point], base=base[i + 1:])
            level = group._levels[i]
            trans = level.stack[level.where]  # point -> member taking it to base[i]
            orbit = np.flatnonzero(level.where >= 0)
            inverses = np.argsort(trans[orbit], axis=1)  # a permutation's argsort inverts it
            for g in gens:
                # one row per beta: trans[g[beta]] after g after trans[beta]^-1
                schreier = np.take_along_axis(trans[g[orbit]], g[inverses], axis=1)
                assert deeper.member_mask(schreier).all()


@pytest.mark.parametrize("literal", [
    "3^1", "2^2", "5^1", "7^1",
    pytest.param("2^3", marks=[pytest.mark.stretch, STRETCH]),
    pytest.param("3^2", marks=[pytest.mark.stretch, STRETCH]),
])
def test_seeded_search_finds_the_same_group(literal):
    field = field_from_literal(literal)
    for pi in orbit_representatives(literal):
        graph = cayley_color_graph(SchurBasis.from_partition(pi))
        searched = automorphism_group(graph)
        seeded = automorphism_group(graph, translations=translation_perms(field))
        assert seeded.order() == searched.order(), pi
        assert seeded.point_stabilizer().orbits() == searched.point_stabilizer().orbits(), pi


def test_seeded_search_refuses_a_row_that_is_not_an_automorphism():
    field = field_from_literal("5^1")
    graph = cayley_color_graph(SchurBasis.from_partition(wielandt_partition(field)))
    table = translation_perms(field).copy()
    table[1] = table[1][[0, 1, 2, 3, 4] + list(range(9, 4, -1)) + list(range(10, 25))]
    assert table[1][0] == 1
    with pytest.raises(InconsistencyError, match="row 1 of the translations"):
        automorphism_group(graph, translations=table)


def test_seeded_search_refuses_a_graph_that_is_not_vertex_transitive():
    # refinement sets the star's center 0 apart, so no table of
    # automorphisms sending 0 to every vertex can exist
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    cyclic = (np.arange(4)[:, None] + np.arange(4)[None, :]) % 4
    with pytest.raises(InconsistencyError, match="does not start at 0"):
        automorphism_group(star, translations=cyclic)


@pytest.mark.parametrize("table", [
    np.zeros((4, 4), dtype=np.int64),  # row v must send 0 to v
    np.arange(4)[:, None] + np.zeros((4, 3), dtype=np.int64),  # one column short
    (np.arange(4)[:, None] + np.arange(4)[None, :]) % 4 * 1.0,  # floats
])
def test_seeded_search_takes_only_a_table_of_rows(table):
    with pytest.raises(ValueError, match="translations must be"):
        automorphism_group(cycle_graph(4), translations=table)


@pytest.mark.parametrize("make,base_length", [
    (one_class_partition, 24),
    (wielandt_partition, 2),
])
def test_each_level_is_closed_once(monkeypatch, make, base_length):
    # the search hands over a strong generating set, so rebuilding the
    # chain from it closes each level with one orbit of its base point,
    # deepest generators included, and loses no element
    basis = SchurBasis.from_partition(make(field_from_literal("5^1")))
    group = automorphism_group(cayley_color_graph(basis))
    assert len(group.base) == base_length
    calls = []
    orbit = perms._orbit

    def counted(seeds, gens):
        calls.append(list(seeds))
        return orbit(seeds, gens)

    monkeypatch.setattr(perms, "_orbit", counted)
    rebuilt = PermGroup(group.degree, group.generators, base=group.base)
    assert calls == [[point] for point in group.base]
    assert rebuilt.order() == group.order()


@pytest.mark.parametrize("make, grow_calls", [
    (one_class_partition, 48),  # 24 chain levels, 24 generators
    (wielandt_partition, 9),  # 2 chain levels, 3 generators, 4 siblings with no witness
])
def test_the_climb_keeps_its_orbit(monkeypatch, make, grow_calls):
    # each cell's orbit starts as its first vertex, since every generator
    # found so far fixes it; the climb grows it in place, by a new
    # generator's images or by one sibling's orbit, and never builds it
    # anew: only the chain calls _orbit, and the climb's walks take every
    # vertex of each cell but the first exactly once, seeded or not
    field = field_from_literal("5^1")
    graph = cayley_color_graph(SchurBasis.from_partition(make(field)))
    cells, colors = [], perms.color_refinement(graph)
    while (cell := perms._target_cell(colors)) is not None:
        cells.append(len(cell))
        colors = perms._individualized(graph, colors, int(cell[0]))
    orbit, grow = perms._orbit, perms._grow
    for table in (None, translation_perms(field)):
        orbit_calls, walked = [], []

        def counted_orbit(seeds, gens):
            orbit_calls.append(list(seeds))
            return orbit(seeds, gens)

        def counted_grow(tree, queue, gens):
            grow(tree, queue, gens)
            walked.append(len(queue))

        monkeypatch.setattr(perms, "_orbit", counted_orbit)
        monkeypatch.setattr(perms, "_grow", counted_grow)
        group = automorphism_group(graph, translations=table)
        assert orbit_calls == [[point] for point in group.base]
        assert len(walked) == grow_calls
        climb = walked[:-len(group.base)]  # the chain's walks come last
        assert sum(climb) == sum(cells) - len(cells)


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
