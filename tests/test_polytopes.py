"""Facet/vertex enumeration tests with explicit support oracles."""

from collections import Counter
from fractions import Fraction
from math import comb
import random

import pytest

from gptdyn.exactla import affine_hull_dim, dot, mat, rank, vec
from gptdyn.polytopes import (
    UnsupportedDimensionError,
    facet_enumeration,
    feasible_region_dim,
    is_bounded,
    vertex_enumeration,
)
from gptdyn.theories import BUILTIN_BUILDERS, PolytopeStateSpace, make_boxworld

from helpers import (
    assert_lps_match_fraction_reference,
    brute_facet_enumeration,
    brute_vertex_enumeration,
    checked_implicit_equalities,
    lp_is_bounded,
    rational_mixture,
    record_lps,
    unpruned_feasible_region_dim,
)


def _assert_supporting(vertices, halfspaces, hull_dim):
    # Oracle for every enumeration result: each vertex satisfies every
    # halfspace, and each halfspace is tight on at least hull_dim vertices.
    for a, b in halfspaces:
        tight = 0
        for v in vertices:
            value = dot(a, v)
            assert value <= b
            if value == b:
                tight += 1
        assert tight >= hull_dim


def test_unit_interval():
    facets = facet_enumeration([vec([0]), vec([1])])
    assert facets == [
        (vec([-1]), Fraction(0)),
        (vec([1]), Fraction(1)),
    ]


def test_square():
    corners = [vec([sx, sz]) for sx in (-1, 1) for sz in (-1, 1)]
    facets = facet_enumeration(corners)
    assert len(facets) == 4
    _assert_supporting(corners, facets, 2)
    assert set(facets) == {
        (vec([1, 0]), Fraction(1)),
        (vec([-1, 0]), Fraction(1)),
        (vec([0, 1]), Fraction(1)),
        (vec([0, -1]), Fraction(1)),
    }


def test_cross_polytope_derived_oracle():
    diamond = [vec([1, 0]), vec([-1, 0]), vec([0, 1]), vec([0, -1])]
    facets = facet_enumeration(diamond)
    # Oracle: every vertex satisfies every facet and lies on at least two.
    _assert_supporting(diamond, facets, 2)
    for v in diamond:
        tight = sum(1 for a, b in facets if dot(a, v) == b)
        assert tight >= 2
    assert set(facets) == {
        (vec([1, 1]), Fraction(1)),
        (vec([1, -1]), Fraction(1)),
        (vec([-1, 1]), Fraction(1)),
        (vec([-1, -1]), Fraction(1)),
    }


def test_facets_scale_invariant_canonical_form():
    # A skewed triangle with fractional coordinates still yields integer facets.
    triangle = [vec([0, 0]), vec(["1/2", 0]), vec([0, "1/3"])]
    facets = facet_enumeration(triangle)
    assert len(facets) == 3
    _assert_supporting(triangle, facets, 2)


def test_rejects_flat_input():
    with pytest.raises(ValueError):
        facet_enumeration([vec([0, 0]), vec([1, 1])])


def test_rejects_high_dimension():
    simplex8 = [vec([0] * 7)] + [
        vec([1 if i == j else 0 for i in range(7)]) for j in range(7)
    ]
    with pytest.raises(UnsupportedDimensionError):
        facet_enumeration(simplex8)


def test_vertex_enumeration_roundtrip_square():
    corners = [vec([sx, sz]) for sx in (-1, 1) for sz in (-1, 1)]
    facets = facet_enumeration(corners)
    recovered = vertex_enumeration(facets)
    assert sorted(recovered) == sorted(corners)


def test_vertex_enumeration_simplex():
    halfspaces = [
        (vec([-1, 0]), Fraction(0)),
        (vec([0, -1]), Fraction(0)),
        (vec([1, 1]), Fraction(1)),
    ]
    assert vertex_enumeration(halfspaces) == [
        vec([0, 0]),
        vec([0, 1]),
        vec([1, 0]),
    ]


def test_is_bounded():
    square = [
        (vec([1, 0]), Fraction(1)),
        (vec([-1, 0]), Fraction(1)),
        (vec([0, 1]), Fraction(1)),
        (vec([0, -1]), Fraction(1)),
    ]
    assert is_bounded(square)
    half_plane = [(vec([1, 0]), Fraction(1))]
    assert not is_bounded(half_plane)
    # An empty region counts as bounded: here x <= -1 and x >= 0, with the
    # homogenised cone pointed by y >= 0 and not pointed without it.
    empty = [(vec([1, 0]), Fraction(-1)), (vec([-1, 0]), Fraction(0))]
    assert is_bounded(empty + [(vec([0, -1]), Fraction(0))])
    assert is_bounded(empty)
    assert not is_bounded([])


def test_feasible_region_dim_cases():
    square = (
        mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
        vec([1, 1, 1, 1]),
    )
    assert feasible_region_dim(*square, nvars=2) == 2
    # Pinch x to zero: x <= 0 and -x <= 0 become implicit equalities.
    pinched = (
        mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
        vec([0, 0, 1, 1]),
    )
    assert feasible_region_dim(*pinched, nvars=2) == 1
    point = (
        mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
        vec([0, 0, 0, 0]),
    )
    assert feasible_region_dim(*point, nvars=2) == 0
    assert feasible_region_dim((), (), nvars=3) == 3


def _planted_region(rng: random.Random):
    """Distinct rows around a random member, with planted implicit equalities.

    Each planted pair is a row and its negation at the same bound, so the
    region lies in that row's hyperplane.
    """
    nvars = rng.randint(2, 4)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))

    member = tuple(rational() for _ in range(nvars))
    while True:
        rows, rhs = [], []
        for _ in range(rng.randint(2, 8)):
            row = tuple(rational() for _ in range(nvars))
            rows.append(row)
            rhs.append(dot(row, member) + rng.choice((0, 0, Fraction(rng.randint(1, 6), 3))))
        for _ in range(rng.choice((0, 1, 1, 2))):
            row = tuple(rational() for _ in range(nvars))
            rows += [row, tuple(-x for x in row)]
            rhs += [dot(row, member), -dot(row, member)]
        if len(set(rows)) == len(rows):
            break
    order = list(range(len(rows)))
    rng.shuffle(order)
    a = tuple(rows[i] for i in order)
    b = tuple(rhs[i] for i in order)
    return a, b, nvars, member


def test_feasible_region_dim_pruning_matches_unpruned_reference(monkeypatch):
    rng = random.Random(31)
    calls = record_lps(monkeypatch)
    dims = set()
    tight_lps = 0
    for _ in range(40):
        a, b, nvars, member = _planted_region(rng)
        expected = unpruned_feasible_region_dim(a, b, nvars)
        dims.add(nvars - expected)
        assert feasible_region_dim(a, b, nvars) == expected
        calls.clear()
        assert feasible_region_dim(a, b, nvars, [member]) == expected
        # A row strict at the given member is no implicit equality: no LP for it.
        tight = {row for row, rhs in zip(a, b) if dot(row, member) == rhs}
        assert {objective for _, objective, _, _ in calls} <= tight
        tight_lps += len(calls)
    assert dims >= {0, 1, 2}
    assert tight_lps


def test_feasible_region_dim_lp_calls(monkeypatch):
    calls = record_lps(monkeypatch)

    def objectives():
        return [objective for _, objective, _, _ in calls]

    square_rows = mat([[1, 0], [-1, 0], [0, 1], [0, -1]])
    origin = vec([0, 0])
    assert feasible_region_dim(square_rows, vec([1, 1, 1, 1]), 2, [origin]) == 2
    assert objectives() == []
    # The pinched and point regions decide by LP only the equalities that
    # are not in the span of those found before: -x <= 0 follows from
    # x <= 0, and -y <= 0 from y <= 0.
    assert feasible_region_dim(square_rows, vec([0, 0, 1, 1]), 2, [origin]) == 1
    assert objectives() == [square_rows[0]]
    assert_lps_match_fraction_reference(calls)
    calls.clear()
    assert feasible_region_dim(square_rows, vec([0, 0, 0, 0]), 2, [origin]) == 0
    assert objectives() == [square_rows[0], square_rows[2]]
    assert_lps_match_fraction_reference(calls)
    # Without given points, an LP's optimal vertex prunes later rows.
    calls.clear()
    assert feasible_region_dim(square_rows, vec([1, 1, 1, 1]), 2) == 2
    assert 0 < len(calls) < 4
    assert_lps_match_fraction_reference(calls)
    # The LPs of one search share one system.
    assert len({id(system) for system, _, _, _ in calls}) == 1


def _random_search_case(rng: random.Random):
    """A nonempty region around a random member, with rows of every kind.

    Rows with a negative bound send the LPs through phase 1; zero rows have
    a bound of 0 or more; planted pairs and sums of two rows that are tight
    at the member give equalities in the span of others.
    """
    nvars = rng.randint(1, 4)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))

    member = tuple(rational() for _ in range(nvars))
    rows, rhs = [], []
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.15:
            row = (Fraction(0),) * nvars
        else:
            row = tuple(rational() for _ in range(nvars))
        rows.append(row)
        rhs.append(dot(row, member) + rng.choice((0, 0, Fraction(rng.randint(1, 6), 3))))
    for _ in range(rng.choice((0, 1, 2))):
        row = tuple(rational() for _ in range(nvars))
        rows += [row, tuple(-x for x in row)]
        rhs += [dot(row, member), -dot(row, member)]
    tight = [row for row, bound in zip(rows, rhs) if dot(row, member) == bound]
    if len(tight) >= 2 and rng.random() < 0.5:
        u, w = rng.sample(tight, 2)
        rows.append(tuple(x + y for x, y in zip(u, w)))
        rhs.append(dot(rows[-1], member))
    order = list(range(len(rows)))
    rng.shuffle(order)
    a = tuple(rows[i] for i in order)
    b = tuple(rhs[i] for i in order)
    return a, b, rng.choice(((), (member,)))


def test_implicit_equalities_match_one_lp_per_row_reference(monkeypatch):
    rng = random.Random(53)
    calls = record_lps(monkeypatch)
    seen = Counter()
    assert checked_implicit_equalities(calls, (), ()) == (([], []), 0)
    for _ in range(200):
        a, b, points = _random_search_case(rng)
        (equalities, members), by_lp = checked_implicit_equalities(calls, a, b, points)
        # Each optimal LP of the search ends in an equality or adds a member.
        seen["phase 1"] += any(rhs < 0 for rhs in b) and by_lp + len(members) > 0
        seen["zero row"] += any(not any(row) for row in a)
        seen["by span"] += len(equalities) > by_lp
    assert min(seen[k] for k in ("phase 1", "zero row", "by span")) >= 10, seen


def test_feasible_region_dim_rejects_points_outside():
    square = (mat([[1, 0], [-1, 0], [0, 1], [0, -1]]), vec([1, 1, 1, 1]))
    for outside in (vec([2, 0]), vec([0, -2]), vec(["1/2", "-3/2"])):
        with pytest.raises(ValueError):
            feasible_region_dim(*square, 2, [vec([0, 0]), outside])


def test_octahedron_3d_facet_count():
    octa = [
        vec([s if axis == i else 0 for i in range(3)])
        for axis in range(3)
        for s in (1, -1)
    ]
    facets = facet_enumeration(octa)
    assert len(facets) == 8
    _assert_supporting(octa, facets, 3)
    hull = affine_hull_dim(octa)
    assert hull == 3


# -- Double description against the subset-by-subset reference.


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def test_facet_enumeration_matches_brute_force_on_random_points():
    rng = random.Random(41)
    checked = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        points = [
            tuple(_small_rational(rng) for _ in range(dim))
            for _ in range(rng.randint(dim + 1, dim + 4))
        ]
        # Interior points (mixtures of the others) and duplicates.
        for _ in range(rng.randint(0, 2)):
            weights = [Fraction(rng.randint(1, 3)) for _ in points]
            points.append(rational_mixture(points, weights))
        points += rng.sample(points, rng.randint(0, 2))
        rng.shuffle(points)
        if affine_hull_dim(points) != dim:
            with pytest.raises(ValueError):
                facet_enumeration(points)
            continue
        assert facet_enumeration(points) == brute_facet_enumeration(points)
        checked += 1
    assert checked > 120


def _random_halfspaces(rng: random.Random):
    """Rows valid at a random centre, with the irregular cases the loader can meet.

    Returns the halfspaces and the cases planted: ``equality`` (a row and its
    negation at the same bound: a lower-dimensional region), ``empty`` (a row
    contradicting another) and ``line`` (every normal misses the last
    coordinate, so the region contains a line).  Repeated and scaled copies
    of rows and rows loosened past the centre are redundant.
    """
    dim = rng.randint(1, 4)
    centre = tuple(_small_rational(rng) for _ in range(dim))
    cases = set()
    line = dim > 1 and rng.random() < 0.1
    if line:
        cases.add("line")

    def normal():
        a = [_small_rational(rng) for _ in range(dim)]
        if line:
            a[-1] = Fraction(0)
        return tuple(a)

    halfspaces = []
    for _ in range(rng.randint(1, dim + 3)):
        a = normal()
        slack = rng.choice((0, 0, Fraction(rng.randint(1, 4), rng.randint(1, 3))))
        halfspaces.append((a, dot(a, centre) + slack))
    if rng.random() < 0.25:
        a = normal()
        halfspaces += [(a, dot(a, centre)), (tuple(-x for x in a), -dot(a, centre))]
        cases.add("equality")
    if rng.random() < 0.15:
        a, b = rng.choice(halfspaces)
        halfspaces.append((tuple(-x for x in a), -b - Fraction(1, rng.randint(1, 3))))
        cases.add("empty")
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(halfspaces)
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        halfspaces.append((tuple(scale * x for x in a), scale * b + rng.choice((0, 1))))
    rng.shuffle(halfspaces)
    return halfspaces, cases


def test_vertex_enumeration_matches_brute_force_on_random_halfspaces():
    rng = random.Random(43)
    seen = set()
    for _ in range(200):
        halfspaces, cases = _random_halfspaces(rng)
        vertices = vertex_enumeration(halfspaces)
        assert vertices == brute_vertex_enumeration(halfspaces)
        if cases & {"empty", "line"}:
            assert vertices == []
        dim = len(halfspaces[0][0])
        bounded = is_bounded(halfspaces)
        assert bounded == lp_is_bounded(halfspaces)
        if vertices and not bounded:
            cases.add("unbounded")
        if not vertices and rank(tuple(a for a, _ in halfspaces)) == dim:
            cases.add("no vertex, full rank")
        if vertices:
            cases.add("vertices")
        seen |= cases
    assert seen == {
        "equality", "empty", "line", "unbounded", "no vertex, full rank", "vertices"
    }


def test_dimension_zero_matches_brute_force():
    point = ()
    assert facet_enumeration([point]) == brute_facet_enumeration([point]) == []
    for halfspaces in ([((), Fraction(1))], [((), Fraction(0)), ((), Fraction(-1))]):
        assert vertex_enumeration(halfspaces) == brute_vertex_enumeration(halfspaces)


def test_enumerations_match_brute_force_on_theories():
    # The normalised slices of the polytope builtins and box-worlds, as the
    # loaders see them.
    theories = [build() for build in BUILTIN_BUILDERS.values()]
    theories += [
        make_boxworld(*so) for so in ((2, 3), (4, 2), (2, 4), (3, 3), (5, 2), (6, 2))
    ]
    for t in theories:
        space = t.state_space
        if not isinstance(space, PolytopeStateSpace):
            continue
        vertices = [v[1:] for v in space.vertices]
        halfspaces = [(g[1:], -g[0]) for g in space.cone_facets]
        assert vertex_enumeration(halfspaces) == brute_vertex_enumeration(halfspaces)
        # Subset by subset, the vertices of box-worlds (2,4), (3,3), (5,2)
        # and (6,2) take seconds to minutes; their facets are checked by
        # loading their configs instead.
        if comb(len(vertices), len(vertices[0])) <= 2000:
            assert facet_enumeration(vertices) == brute_facet_enumeration(vertices)
