"""Line geometry and slope partitions."""

import itertools
import json
import re

import pytest

import naive
from schurcensus import make_field
from schurcensus.errors import PartitionFormatError, SizingError
from schurcensus.lines import (
    LinePartition,
    OrbitKeys,
    all_slopes,
    apply_matrix_to_point,
    apply_matrix_to_slope,
    condition_holds,
    enumerate_partitions,
    induced_partition,
    line_points,
    load_partition,
    mobius_normalize,
    one_class_partition,
    parse_partition,
    parse_slope_literal,
    partition_to_json_dict,
    point_index,
    punctured_line,
    singleton_partition,
    singleton_slopes,
    slope_literal,
    slope_symmetries,
    wielandt_partition,
)
from schurcensus.perms import PermGroup

SMALL_QS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


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
        pts = line_points(field, s)
        assert len(pts) == q and (0, 0) in pts
        punct = punctured_line(field, s)
        assert set(punct) == set(pts) - {(0, 0)}
        for pt in punct:
            assert pt not in seen  # distinct lines share only the origin
            seen.add(pt)
    assert len(seen) == q * q


def test_line_membership_matches_equation_gf4():
    field = make_field(2, 2)
    # slope zeta: y = zeta * x, computed from the field's own tables
    assert set(line_points(field, 2)) == {(0, 0), (1, 2), (2, 3), (3, 1)}


@pytest.mark.parametrize("field", fields(), ids=str)
def test_point_index_roundtrip(field):
    for x in range(field.q):
        for y in range(field.q):
            i = point_index(field, (x, y))
            assert divmod(i, field.q) == (x, y)
    assert point_index(field, (0, 0)) == 0
    with pytest.raises(ValueError):
        point_index(field, (field.q, 0))


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
    with pytest.raises(ValueError):
        LinePartition(field, [[0, 1], [1, 2, 3]])  # slope 1 twice
    with pytest.raises(ValueError):
        LinePartition(field, [[0, 1]])  # misses 2 and inf
    with pytest.raises(ValueError):
        LinePartition(field, [[0, 1, 2, 3], []])
    with pytest.raises(ValueError):
        LinePartition(field, [[0, 1, 2, 3, 4]])  # 4 out of range


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
    field = make_field(5, 1)
    ours = [tuple(pi.classes) for pi in enumerate_partitions(field)]
    ref = [tuple(tuple(sorted(b)) for b in blocks)
           for blocks in naive.set_partitions(range(6))]
    assert ours == ref


def test_enumerate_partitions_census_cap():
    with pytest.raises(SizingError, match="census cap of 12"):
        enumerate_partitions(make_field(13, 1))
    # 12 slopes are the most the cap admits (don't exhaust: Bell(12) rows)
    stream = enumerate_partitions(make_field(11, 1))
    assert next(iter(stream)) == one_class_partition(make_field(11, 1))


def test_enumerate_partitions_predicate_filter():
    field = make_field(3, 1)
    only = list(enumerate_partitions(field, lambda pi: len(pi.classes) == 2))
    assert len(only) == 7  # Stirling(4, 2)


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
    assert apply_matrix_to_slope(f5, res.matrix, 2) == 0
    assert apply_matrix_to_slope(f5, res.matrix, 3) == 1
    assert apply_matrix_to_slope(f5, res.matrix, 4) == 5

    # M = {0, 1, 3, inf}: the three least are 0, 1, 3, so 3 goes to inf
    pi2 = LinePartition(f5, [[0], [1], [3], [5], [2, 4]])
    res2 = mobius_normalize(pi2)
    assert apply_matrix_to_slope(f5, res2.matrix, 3) == 5
    assert {0, 1, 5} <= singleton_slopes(res2.partition)


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
        for s in all_slopes(field):
            image = {apply_matrix_to_point(field, res.matrix, pt)
                     for pt in line_points(field, s)}
            t = apply_matrix_to_slope(field, res.matrix, s)
            assert image == set(line_points(field, t))
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
    assert apply_matrix_to_slope(f9, res.matrix, 2) == 9
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
    group = PermGroup(q + 1, slope_symmetries(field))
    assert group.order() == order == e * q * (q * q - 1)
    # every fractional-linear witness of the normalization lies in it
    for m in itertools.islice(itertools.combinations(all_slopes(field), 3), 20):
        rest = [s for s in all_slopes(field) if s not in m]
        res = mobius_normalize(LinePartition(field, [[s] for s in m] + [rest]))
        assert [apply_matrix_to_slope(field, res.matrix, s)
                for s in all_slopes(field)] in group


@pytest.mark.parametrize("p, e, orbits", [(3, 1, 5), (2, 2, 7), (5, 1, 13),
                                          (7, 1, 47), (2, 3, 49)])
def test_orbit_keys_count_the_orbits(p, e, orbits):
    field = make_field(p, e)
    key = OrbitKeys(field)
    keys = {key(pi.classes) for pi in enumerate_partitions(field)}
    assert len(keys) == orbits
    # each key is the least member of its own orbit
    assert all(key(k) == k for k in keys)


def test_orbit_keys_follow_the_symmetry():
    field = make_field(5, 1)
    key = OrbitKeys(field)
    for pi in enumerate_partitions(field):
        for g in slope_symmetries(field):
            image = LinePartition(field, [[g[s] for s in cls] for cls in pi.classes])
            assert key(image.classes) == key(pi.classes) <= pi.classes
        # the orbit keeps the shape of the partition
        assert (sorted(map(len, key(pi.classes)))
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
