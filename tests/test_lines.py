"""Line geometry and slope partitions."""

import itertools
import json
import os
import re

import numpy as np
import pytest

import naive
from schurcensus import lines, make_field
from schurcensus.errors import InconsistencyError, PartitionFormatError, SizingError
from schurcensus.lines import (
    LinePartition,
    all_slopes,
    condition_holds,
    condition_mask,
    enumerate_partitions,
    induced_partition,
    load_partition,
    mobius_normalize,
    one_class_partition,
    orbit_labels,
    parse_partition,
    parse_slope_literal,
    partition_array,
    partition_texts,
    partition_to_json_dict,
    point_slopes,
    singleton_partition,
    singleton_slopes,
    slope_literal,
    slope_map,
    slope_symmetries,
    wielandt_partition,
)

SMALL_QS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
STRETCH = pytest.mark.skipif(os.environ.get("SCHURCENSUS_STRETCH") != "1",
                             reason="set SCHURCENSUS_STRETCH=1 for the large-field runs")


def fields(pairs=SMALL_QS):
    return [make_field(p, e) for p, e in pairs]


# ---------------------------------------------------------------------------
# lines and points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", fields(), ids=str)
def test_lines_cover_plane_and_meet_at_origin(field):
    q = field.q
    seen = {(0, 0)}
    for s in all_slopes(field):
        pts = naive.line_points(s, q, field.mul)
        assert len(pts) == q and (0, 0) in pts
        for pt in set(pts) - {(0, 0)}:
            assert pt not in seen  # distinct lines share only the origin
            seen.add(pt)
    assert len(seen) == q * q


def test_line_membership_matches_equation_gf4():
    field = make_field(2, 2)
    # slope zeta: y = zeta * x, with zeta * zeta = zeta + 1 = 3 and
    # zeta * 3 = 1, so the punctured line is (1, 2), (2, 3), (3, 1)
    on_zeta = np.flatnonzero(point_slopes(field) == 2).tolist()
    assert on_zeta == [1 * 4 + 2, 2 * 4 + 3, 3 * 4 + 1]


@pytest.mark.parametrize("field", fields(), ids=str)
def test_point_slopes_match_line_points(field):
    # every q <= 9; the point (x, y) has the flat index x * q + y
    q = field.q
    slopes = point_slopes(field)
    assert slopes.shape == (q * q,) and slopes[0] == -1
    for s in all_slopes(field):
        members = {x * q + y for x, y in naive.line_points(s, q, field.mul)} - {0}
        assert set(np.flatnonzero(slopes == s).tolist()) == members
    with pytest.raises(ValueError):
        slopes[1] = 0
    assert point_slopes(field) is slopes


def test_slope_literals():
    field = make_field(5, 1)
    assert slope_literal(field, 5) == "inf"
    assert slope_literal(field, 3) == "3"
    assert parse_slope_literal(field, "inf") == 5
    assert parse_slope_literal(field, "0") == 0
    # superscripts pass str.isdigit() but int() refuses them
    # and a digit string past int()'s 4300-digit limit is still a bad slope
    for bad in ("5", "-1", "03", " 1", "oo", "", "\u00b2", "1\u00b9", "1" * 5000):
        with pytest.raises(PartitionFormatError, match=re.escape(repr(bad))):
            parse_slope_literal(field, bad)
    with pytest.raises(ValueError):
        slope_literal(field, 6)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_canonical_form():
    field = make_field(5, 1)
    pi = LinePartition(field, [[4, 2, 3], [1], [5], [0]])
    assert pi.classes == ((0,), (1,), (2, 3, 4), (5,))
    assert str(pi) == "0|1|2,3,4|inf"
    assert pi == wielandt_partition(field)


def test_partition_rejects_garbage():
    field = make_field(3, 1)
    for classes, message in (
            ([[0, 1], [1, 2, 3]], "slope 1 occurs twice"),
            ([[0, 0, 1, 2, 3]], "slope 0 occurs twice"),
            ([[0, 1]], "partition misses slopes {2, inf}"),
            ([[0, 1, 2, 3], []], "empty class in line partition"),
            ([[0, 1, 2, 3, 4]], "4 is not a slope for GF(3^1)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            LinePartition(field, classes)
    # equal to the slopes 0..q, but a float or a bool is not a slope
    for classes, message in (
            ([[5.0], [0.0], [1], [2, 3, 4]], "slope 0.0 is not an integer"),
            ([[5], [False], [True], [2, 3, 4]], "slope False is not an integer")):
        with pytest.raises(ValueError, match=re.escape(message)):
            LinePartition(make_field(5, 1), classes)
    # a valid input in any order comes back canonical, numpy integers too
    pi = LinePartition(field, [[3, 1], [2, 0]])
    assert pi.classes == ((0, 2), (1, 3))
    assert str(pi) == "0,2|1,inf"
    assert LinePartition(field, [[np.int64(3), 1], [np.int8(2), 0]]) == pi


def test_partition_rejects_a_fractional_slope():
    # q + 1 distinct values in range are not enough: they must be 0..q
    with pytest.raises(ValueError, match=re.escape("misses slopes {inf}")):
        LinePartition(make_field(3, 1), [[0, 0.5, 1, 2]])


@pytest.mark.parametrize("field", fields(), ids=str)
def test_induced_partition_shapes(field):
    pi = wielandt_partition(field) if field.q >= 5 else one_class_partition(field)
    blocks = induced_partition(pi)
    assert blocks[0] == (0,)
    assert len(blocks) == len(pi.classes) + 1
    for cls, block in zip(pi.classes, blocks[1:]):
        assert len(block) == len(cls) * (field.q - 1)
        assert block == tuple(sorted(block))
    flat = sorted(i for b in blocks for i in b)
    assert flat == list(range(field.q ** 2))


def test_singleton_slopes_and_condition():
    f5 = make_field(5, 1)
    w = wielandt_partition(f5)
    assert singleton_slopes(w) == {0, 1, 5}
    assert condition_holds(w)

    # all-singleton M is the whole field, hence a subfield: condition fails
    assert not condition_holds(singleton_partition(f5))
    assert not condition_holds(one_class_partition(f5))

    # {0, 1} alone is the prime subfield of GF(4), so splitting off the
    # remaining two slopes in any way never helps
    f4 = make_field(2, 2)
    assert not condition_holds(LinePartition(f4, [[4], [0], [1], [2, 3]]))
    assert not condition_holds(singleton_partition(f4))


def test_condition_census_counts_match_bell_arithmetic():
    # q = 5: inf, 0, 1 must be singletons, and the only subfield of F_5 is
    # F_5 itself, so the condition excludes exactly the partitions keeping
    # 2, 3, 4 all singleton.  That leaves Bell(3) - 1 = 4 of them.
    f5 = make_field(5, 1)
    hits = [pi for pi in enumerate_partitions(f5) if condition_holds(pi)]
    assert len(hits) == 4
    texts = sorted(str(pi) for pi in hits)
    assert texts == [
        "0|1|2,3,4|inf",
        "0|1|2,3|4|inf",
        "0|1|2,4|3|inf",
        "0|1|2|3,4|inf",
    ]

    for p, e in ((2, 1), (3, 1), (2, 2)):
        field = make_field(p, e)
        assert sum(condition_holds(pi) for pi in enumerate_partitions(field)) == 0


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])
def test_condition_matches_its_definition(p, e):
    # condition_holds rejects rows by class position before it forms M
    field = make_field(p, e)

    def is_subfield(s):
        return naive.closure_is_subfield(s, field.add, field.mul)

    for pi in enumerate_partitions(field):
        assert condition_holds(pi) == naive.condition_by_definition(
            pi.classes, field.q, is_subfield), str(pi)


def test_enumerate_partitions_counts_and_order():
    for p, e, bell in ((2, 1, 5), (3, 1, 15), (2, 2, 52), (5, 1, 203)):
        field = make_field(p, e)
        seen = list(enumerate_partitions(field))
        assert len(seen) == bell == naive.bell(field.q + 1)
        assert len(set(seen)) == bell
        assert seen[0] == one_class_partition(field)
        assert seen[-1] == singleton_partition(field)
    # streaming order is deterministic
    f = make_field(3, 1)
    assert [str(pi) for pi in enumerate_partitions(f)][:4] == [
        "0,1,2,inf", "0,1,2|inf", "0,1,inf|2", "0,1|2,inf"]


def test_enumerate_partitions_matches_reference_generator():
    for field in fields([(3, 1), (2, 2), (5, 1), (2, 3)]):
        ours = [pi.classes for pi in enumerate_partitions(field)]
        ref = [tuple(tuple(sorted(b)) for b in blocks)
               for blocks in naive.set_partitions(all_slopes(field))]
        assert ours == ref


def test_partition_text_matches_slope_literals():
    field = make_field(2, 3)
    for pi in enumerate_partitions(field):
        assert str(pi) == "|".join(
            ",".join(slope_literal(field, s) for s in cls) for cls in pi.classes)


def test_enumerate_partitions_census_cap():
    with pytest.raises(SizingError, match="census cap of 12"):
        enumerate_partitions(make_field(13, 1))
    # 12 slopes are the most the cap admits (don't exhaust: Bell(12) rows)
    stream = enumerate_partitions(make_field(11, 1))
    assert next(iter(stream)) == one_class_partition(make_field(11, 1))


def test_partition_array_is_the_reference_order():
    # the census and cross-validation read every partition off this array
    for field in fields([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]):
        rgs = partition_array(field)
        assert rgs.dtype == np.int8 and rgs.shape == (naive.bell(field.q + 1), field.q + 1)
        expected = []
        for blocks in naive.set_partitions(all_slopes(field)):
            row = [0] * (field.q + 1)
            for c, block in enumerate(blocks):
                for s in block:
                    row[s] = c
            expected.append(row)
        assert rgs.tolist() == expected
        # slope-major: each slope's column is one contiguous run
        assert rgs.flags.f_contiguous and not rgs.flags.c_contiguous
        # cached per field, and read-only
        assert partition_array(field) is rgs
        with pytest.raises(ValueError, match="read-only"):
            rgs[0, 0] = 1
    with pytest.raises(SizingError, match="census cap of 12"):
        partition_array(make_field(13, 1))


def test_tail_counts_give_bell_numbers_and_row_indices():
    for n in range(1, 13):
        table = lines._tail_counts(n)
        assert table.shape == (n, n + 1) and table[n - 1, 0] == naive.bell(n)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    for field in fields([(2, 1), (3, 1), (2, 2), (5, 1)]):
        rgs = partition_array(field)
        n = field.q + 1
        table = lines._tail_counts(n)
        # each row's lex index, read off the table, is its position
        for i, row in enumerate(rgs.tolist()):
            assert sum(row[j] * table[n - 1 - j, max(row[:j])] for j in range(1, n)) == i
        # and so is the image index of the one-pass renumbering, under
        # the identity and under a slope order that reads the columns
        # back to front
        identity, reverse = tuple(range(n)), tuple(range(n))[::-1]
        moved = lines._image_indices(rgs, [identity, reverse])
        assert moved[0].tolist() == list(range(len(rgs)))
        index = {pi: i for i, pi in enumerate(enumerate_partitions(field))}
        assert moved[1].tolist() == [
            index[LinePartition(field, [[reverse[s] for s in cls] for cls in pi.classes])]
            for pi in enumerate_partitions(field)]


@pytest.mark.parametrize("corrupt", [
    lambda rgs: rgs[[1, 0, *range(2, len(rgs))]],      # two rows swapped
    lambda rgs: rgs[[0, 1, 1, *range(3, len(rgs))]],   # a row repeated
    lambda rgs: np.where(np.arange(len(rgs))[:, None] == 7, 0, rgs)[:-1],  # a row lost, one repeated
], ids=["swapped", "repeated", "overwritten"])
def test_a_corrupted_partition_array_trips_the_bulk_check(corrupt):
    for order in "FC":  # slope-major, as partition_array holds it, and row-major
        rgs = np.array(partition_array(make_field(5, 1)), order=order)
        lines._check_rgs(rgs)
        with pytest.raises(InconsistencyError, match="restricted growth"):
            lines._check_rgs(np.array(corrupt(rgs), order=order))


@pytest.mark.parametrize("row, column, value", [
    (5, 0, 1),     # column 0 is not 0
    (5, 3, 4),     # more than one above the prefix maximum
    (202, 5, -1),  # negative
    (52, 5, -1),   # negative, with the row codes still increasing
    (202, 5, 127),  # the largest int8, far above the prefix maximum
])
def test_a_bad_entry_trips_the_bulk_check(row, column, value):
    for order in "FC":  # slope-major, as partition_array holds it, and row-major
        rgs = np.array(partition_array(make_field(5, 1)), order=order)
        rgs[row, column] = value
        with pytest.raises(InconsistencyError, match="restricted growth"):
            lines._check_rgs(rgs)


def test_enumerate_partitions_streams_the_given_rows():
    field = make_field(3, 1)
    rgs = partition_array(field)
    two = rgs[rgs.max(axis=1) == 1]
    only = list(enumerate_partitions(field, two))
    assert len(only) == 7  # Stirling(4, 2)
    assert all(len(pi.classes) == 2 for pi in only)
    every = list(enumerate_partitions(field))
    assert list(enumerate_partitions(field, rgs[::-1])) == every[::-1]
    assert list(enumerate_partitions(field, rgs[:0])) == []


def texts_of(field, rows):
    """``partition_texts`` decoded, after checking that it is one
    fixed-width bytes column as long as every text."""
    texts = partition_texts(field, rows)
    length = len(str(singleton_partition(field)))
    assert texts.dtype == np.dtype(f"S{length}") and texts.shape == (len(rows),)
    return texts.astype(str).tolist()


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_bulk_texts_and_mask_match_each_partition(p, e):
    field = make_field(p, e)
    rgs = partition_array(field)
    partitions = list(enumerate_partitions(field))
    assert texts_of(field, rgs) == [str(pi) for pi in partitions]
    assert condition_mask(field, rgs).tolist() == [condition_holds(pi) for pi in partitions]
    # any subset of rows, in any order, across block boundaries
    picked = np.arange(len(rgs))[::-3]
    assert texts_of(field, rgs[picked]) == [str(partitions[i]) for i in picked]
    assert (condition_mask(field, rgs[picked]).tolist()
            == [condition_holds(partitions[i]) for i in picked])


def test_bulk_texts_and_mask_at_eleven():
    # the only field whose literals include the two-character "10"
    field = make_field(11, 1)
    rgs = partition_array(field)[::997]
    partitions = list(enumerate_partitions(field, rgs))
    assert texts_of(field, rgs) == [str(pi) for pi in partitions]
    assert condition_mask(field, rgs).tolist() == [condition_holds(pi) for pi in partitions]
    assert all("10" in re.split("[,|]", str(pi)) for pi in partitions)


def row_selections(rgs):
    """The rows of ``rgs`` in other memory layouts and as subsets, each
    with the indices of its rows in ``rgs``: the row-major copy, and
    reversed, strided and fancy-indexed rows of either layout."""
    every = np.arange(len(rgs))
    shuffled = np.random.default_rng(0).permutation(len(rgs))[:len(rgs) // 2 + 1]
    row_major = np.ascontiguousarray(rgs)
    return {
        "slope-major": (rgs, every),
        "row-major": (row_major, every),
        "reversed": (rgs[::-1], every[::-1]),
        "row-major reversed": (row_major[::-1], every[::-1]),
        "strided": (rgs[1::3], every[1::3]),
        "row-major strided": (row_major[2::5], every[2::5]),
        "fancy": (rgs[shuffled], shuffled),
        "fancy slope-major": (np.asfortranarray(rgs[shuffled]), shuffled),
        "increasing fancy": (rgs[np.sort(shuffled)], np.sort(shuffled)),
    }


@pytest.mark.parametrize("p, e", [
    *SMALL_QS,
    # the only field whose literals include "10"; every 997th row
    (11, 1),
])
def test_bulk_functions_agree_on_every_layout(p, e):
    field = make_field(p, e)
    rgs = partition_array(field)
    if field.q == 11:
        rgs = rgs[::997]
    codes = lines._codes(rgs)
    texts = partition_texts(field, rgs)
    mask = condition_mask(field, rgs)
    for name, (rows, index) in row_selections(rgs).items():
        assert (lines._codes(rows) == codes[index]).all(), name
        assert (partition_texts(field, rows) == texts[index]).all(), name
        assert (condition_mask(field, rows) == mask[index]).all(), name
        if (np.diff(index) > 0).all():
            lines._check_rgs(rows)
        else:
            with pytest.raises(InconsistencyError, match="restricted growth"):
                lines._check_rgs(rows)


# ---------------------------------------------------------------------------
# fractional-linear normalization
# ---------------------------------------------------------------------------

def test_mobius_identity_when_already_normalized():
    pi = wielandt_partition(make_field(5, 1))
    res = mobius_normalize(pi)
    assert res is not None
    assert res.partition == pi
    assert res.matrix == ((1, 0), (0, 1))


def test_mobius_needs_three_singletons():
    f5 = make_field(5, 1)
    assert mobius_normalize(one_class_partition(f5)) is None
    assert mobius_normalize(LinePartition(f5, [[5], [0], [1, 2, 3, 4]])) is None


def test_mobius_moves_least_three_singletons_to_0_1_inf():
    f5 = make_field(5, 1)
    # M = {2, 3, 4}: 2 -> 0, 3 -> 1, 4 -> inf
    pi = LinePartition(f5, [[2], [3], [4], [0, 1, 5]])
    res = mobius_normalize(pi)
    assert res is not None
    m = singleton_slopes(res.partition)
    assert {0, 1, 5} <= m
    assert slope_map(f5, res.matrix)[2:5] == (0, 1, 5)

    # M = {0, 1, 3, inf}: the three least are 0, 1, 3, so 3 goes to inf
    pi2 = LinePartition(f5, [[0], [1], [3], [5], [2, 4]])
    res2 = mobius_normalize(pi2)
    assert slope_map(f5, res2.matrix)[3] == 5
    assert {0, 1, 5} <= singleton_slopes(res2.partition)


@pytest.mark.parametrize("field", fields([(2, 1), (3, 1), (2, 2), (5, 1)]), ids=str)
def test_slope_map_matches_the_point_map(field):
    # every 2 x 2 matrix over F_q: the invertible ones move each line's
    # point set onto the line slope_map names, the singular ones are refused
    q = field.q
    lines_by_points = {frozenset(naive.line_points(s, q, field.mul)): s
                       for s in all_slopes(field)}
    invertible = 0
    for a, b, c, d in itertools.product(range(q), repeat=4):
        matrix = ((a, b), (c, d))
        if field.mul(a, d) == field.mul(b, c):
            with pytest.raises(ValueError, match="matrix is singular"):
                slope_map(field, matrix)
            continue
        invertible += 1
        expected = tuple(
            lines_by_points[frozenset(naive.point_map(matrix, pt, field.add, field.mul)
                                      for pt in naive.line_points(s, q, field.mul))]
            for s in all_slopes(field))
        assert slope_map(field, matrix) == expected
    assert invertible == (q * q - 1) * (q * q - q)


@pytest.mark.parametrize("field", fields([(5, 1), (7, 1), (2, 3), (3, 2)]), ids=str)
def test_mobius_witness_maps_lines_to_lines(field):
    # every 3-subset of slopes as M, rest lumped into one class
    q = field.q
    for m in itertools.combinations(all_slopes(field), 3):
        rest = [s for s in all_slopes(field) if s not in m]
        pi = LinePartition(field, [[s] for s in m] + [rest])
        res = mobius_normalize(pi)
        assert res is not None
        assert {0, 1, q} <= singleton_slopes(res.partition)
        # the witness is a genuine point map sending lines onto lines
        moved = slope_map(field, res.matrix)
        for s in all_slopes(field):
            image = {naive.point_map(res.matrix, pt, field.add, field.mul)
                     for pt in naive.line_points(s, q, field.mul)}
            assert image == set(naive.line_points(moved[s], q, field.mul))
        # and class sizes survive the transport
        assert sorted(map(len, res.partition.classes)) == sorted(map(len, pi.classes))


def test_mobius_verdict_is_fresh_not_copied():
    # Source M = {0, 1, 2} in GF(9) fails the condition outright (no inf
    # singleton).  Normalizing sends 2 to inf, so M' = {0, 1, inf}, and
    # {0, 1} is not closed under addition in characteristic 3: the verdict
    # flips on.  Transporting the old verdict would get this wrong.
    f9 = make_field(3, 2)
    rest = [s for s in all_slopes(f9) if s not in (0, 1, 2)]
    pi = LinePartition(f9, [[0], [1], [2], rest])
    assert not condition_holds(pi)
    res = mobius_normalize(pi)
    assert slope_map(f9, res.matrix)[2] == 9
    assert singleton_slopes(res.partition) == {0, 1, 9}
    assert condition_holds(res.partition)


# ---------------------------------------------------------------------------
# the semilinear symmetry of the slopes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, e, order", [(3, 1, 24), (2, 2, 120), (5, 1, 120),
                                         (7, 1, 336), (2, 3, 1512), (3, 2, 1440)])
def test_slope_symmetries_generate_pgammal(p, e, order):
    field = make_field(p, e)
    q = field.q
    group = naive.perm_closure(slope_symmetries(field))
    assert len(group) == order == e * q * (q * q - 1)
    # every fractional-linear witness of the normalization lies in it
    for m in itertools.islice(itertools.combinations(all_slopes(field), 3), 20):
        rest = [s for s in all_slopes(field) if s not in m]
        res = mobius_normalize(LinePartition(field, [[s] for s in m] + [rest]))
        assert slope_map(field, res.matrix) in group


@pytest.mark.parametrize("p, e, orbits", [
    (3, 1, 5), (2, 2, 7), (5, 1, 13), (7, 1, 47), (2, 3, 49), (3, 2, 206),
    pytest.param(11, 1, 3864, marks=[pytest.mark.stretch, STRETCH]),
])
def test_orbit_keys_count_the_orbits(p, e, orbits):
    field = make_field(p, e)
    rgs = partition_array(field)
    labels = orbit_labels(field)
    assert len(np.unique(labels)) == orbits
    # each label is the first index of its own orbit
    assert (labels <= np.arange(len(rgs))).all()
    assert (labels[labels] == labels).all()
    if field.q <= 9:
        # the same orbits as the breadth-first walk
        classes = [pi.classes for pi in enumerate_partitions(field)]
        first = {}
        reference = [first.setdefault(key, i) for i, key in
                     enumerate(naive.orbit_keys(classes, slope_symmetries(field)))]
        assert labels.tolist() == reference


def test_orbit_keys_follow_the_symmetry():
    # 2^2 and 2^3 have a Frobenius generator
    for field in fields([(5, 1), (2, 2), (2, 3)]):
        partitions = list(enumerate_partitions(field))
        index = {pi: i for i, pi in enumerate(partitions)}
        labels = orbit_labels(field)
        for i, pi in enumerate(partitions):
            for g in slope_symmetries(field):
                image = LinePartition(field, [[g[s] for s in cls] for cls in pi.classes])
                assert labels[index[image]] == labels[i] <= i
            # the orbit keeps the shape of the partition
            assert (sorted(map(len, partitions[labels[i]].classes))
                    == sorted(map(len, pi.classes)))


# ---------------------------------------------------------------------------
# the file format
# ---------------------------------------------------------------------------

WIELANDT_JSON = """
{
  "field": "5^1",
  "classes": [["inf"], ["0"], ["1"], ["2", "3", "4"]]
}
"""


def test_parse_partition_example():
    pi = parse_partition(WIELANDT_JSON)
    assert pi == wielandt_partition(make_field(5, 1))


def test_partition_json_roundtrip(tmp_path):
    pi = LinePartition(make_field(3, 2), [[9, 0], [1, 2, 4], [3, 5, 6, 7, 8]])
    d = partition_to_json_dict(pi)
    assert parse_partition(json.dumps(d)) == pi
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")
    assert load_partition(path) == pi


@pytest.mark.parametrize("payload, hint", [
    ('{"field": "5^1"}', "classes"),
    ('{"classes": []}', "field"),
    ('{"field": "5^1", "classes": [], "extra": 1}', "extra"),
    ('{"field": "six", "classes": []}', "field"),
    ('{"field": "5^1", "classes": [["inf"], ["0", "0"]]}', "twice"),
    ('{"field": "5^1", "classes": [["inf"], ["0"], ["1"]]}', "misses"),
    ('{"field": "5^1", "classes": [[], ["inf", "0", "1", "2", "3", "4"]]}',
     "empty"),
    ('{"field": "5^1", "classes": [["inf", "5"]]}', "5"),
    ('{"field": "5^1", "classes": [["oo"]]}', "oo"),
    ('{"field": "5^1", "classes": [[0]]}', "strings"),
    ('{"field": "5^1", "classes": "all"}', "list"),
    ('[1, 2]', "object"),
    ('not json', "JSON"),
])
def test_parse_partition_rejects(payload, hint):
    with pytest.raises(PartitionFormatError, match=hint):
        parse_partition(payload)


def test_parse_partition_accepts_decoded_dict():
    pi = parse_partition({"field": "2^1", "classes": [["0", "1"], ["inf"]]})
    assert str(pi) == "0,1|inf"
