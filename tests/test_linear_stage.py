"""The row-decoupled equality stage against the flat d*d-unknown system."""

from fractions import Fraction
import random

import pytest

from gptdyn.exactla import dot, identity, matvec, rank, vec
from gptdyn.solver import (
    ConstraintSystem,
    PolytopeFamily,
    UniqueIdentity,
    assemble_constraints,
    compare_tradeoff,
    family_member,
    impose_state_preservation,
    restriction_dynamics_tradeoff,
    solve_linear_stage,
)
from gptdyn.theories import (
    MeasurementSpec,
    PolytopeStateSpace,
    Role,
    TheorySpec,
    builtin_theory,
    make_boxworld,
    polytope_from_vertices,
)
from gptdyn.theory_io import load_theory

from helpers import (
    SIXTHS,
    assert_lps_match_fraction_reference,
    direction_halfspaces,
    flat_equations,
    flat_free_directions,
    matrix_family_member,
    random_v_theory,
    record_lps,
)
from test_theory_io import DIAMOND_H_CONFIG


def make_stabilizer_octahedron():
    """Bloch octahedron over Z, X, Y: two free rows and a three-wide kernel.

    Besides the qubit, the only theory here where both the free rows and the
    kernel number more than one, so the only polytope theory on which the
    order of the directions, and of the coefficients in each row, shows.
    """
    half = "1/2"
    vertices = [
        vec(entries)
        for entries in (
            [1, 1, half, half],
            [1, 0, half, half],
            [1, half, 1, half],
            [1, half, 0, half],
            [1, half, half, 1],
            [1, half, half, 0],
        )
    ]
    return TheorySpec(
        measurements=(
            MeasurementSpec("Z", 2, Role.BRANCH),
            MeasurementSpec("X", 2, Role.FIDUCIAL),
            MeasurementSpec("Y", 2, Role.FIDUCIAL),
        ),
        state_space=polytope_from_vertices(vertices),
    )


THEORIES = {
    "qubit": lambda: builtin_theory("qubit"),
    "stabilizer_octahedron": make_stabilizer_octahedron,
    "gbit": lambda: builtin_theory("gbit"),
    "cube": lambda: builtin_theory("cube"),  # box-world (3, 2)
    "classical2": lambda: builtin_theory("classical2"),
    "octahedron": lambda: builtin_theory("octahedron"),
    "boxworld23": lambda: make_boxworld(2, 3),
    "boxworld42": lambda: make_boxworld(4, 2),
    "boxworld33": lambda: make_boxworld(3, 3),
    "diamond_h": lambda: load_theory(DIAMOND_H_CONFIG),
}
# Seeded theories with vertex denominators up to 6.
RANDOM_NAMES = [f"random_v{seed}" for seed in range(12)]
THEORIES.update(
    (name, lambda seed=seed: random_v_theory(random.Random(seed), SIXTHS))
    for seed, name in enumerate(RANDOM_NAMES)
)

CASES = [
    (name, branch)
    for name, build in THEORIES.items()
    for branch in range(build().branch_outcomes)
]
POLYTOPE_CASES = [(name, branch) for name, branch in CASES if name != "qubit"]


def constraints(name, branch):
    t = THEORIES[name]()
    return t, assemble_constraints(t, branch)


def case_ids(cases):
    return [f"{name}-{branch}" for name, branch in cases]


@pytest.fixture(params=CASES, ids=case_ids(CASES))
def case(request):
    return constraints(*request.param)


def test_identity_solves_flat_system(case):
    _, cs = case
    a, b = flat_equations(cs)
    d = cs.theory.dim
    assert matvec(a, tuple(x for row in identity(d) for x in row)) == b


def test_free_directions_equal_flat_kernel(case):
    _, cs = case
    stage = solve_linear_stage(cs)
    assert stage.base == identity(cs.theory.dim)
    assert stage.free_directions == flat_free_directions(cs)


def test_free_directions_are_single_rows(case):
    _, cs = case
    stage = solve_linear_stage(cs)
    d = cs.theory.dim
    n = cs.branch_row_count
    kernel_dim = d - rank(cs.fixed_vectors)
    assert stage.first_free_row == n
    assert len(stage.kernel) == kernel_dim
    assert stage.dim == (d - n) * kernel_dim
    for index, direction in enumerate(stage.free_directions):
        moving = [r for r in range(d) if any(direction[r])]
        assert len(moving) == 1
        assert moving[0] >= n
        assert moving[0] == n + index // kernel_dim
        assert direction[moving[0]] == stage.kernel[index % kernel_dim]


def _assert_members_match_reference(stage, points):
    for point in points:
        member = family_member(stage, point)
        assert repr(member) == repr(matrix_family_member(stage, point))


def _random_points(rng, stage, count=6):
    return [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(stage.dim))
        for _ in range(count)
    ]


def test_family_member_matches_matrix_reference(case):
    t, cs = case
    stage = solve_linear_stage(cs)
    points = _random_points(random.Random(stage.dim), stage)
    if isinstance(t.state_space, PolytopeStateSpace):
        result = impose_state_preservation(t, stage)
        if isinstance(result, PolytopeFamily):
            points += result.witnesses
    _assert_members_match_reference(stage, points)


def test_no_fixed_vectors_leave_whole_rows_free():
    cs = ConstraintSystem(
        theory=builtin_theory("gbit"),
        acting_branch=0,
        fixed_vectors=(),
        branch_row_count=2,
    )
    stage = solve_linear_stage(cs)
    assert stage.kernel == identity(3)
    assert stage.free_directions == flat_free_directions(cs)
    _assert_members_match_reference(stage, _random_points(random.Random(3), stage))


@pytest.mark.parametrize(
    "name, branch", POLYTOPE_CASES, ids=case_ids(POLYTOPE_CASES)
)
def test_halfspaces_equal_direction_reference(name, branch, monkeypatch):
    t, cs = constraints(name, branch)
    stage = solve_linear_stage(cs)
    reference = direction_halfspaces(t, flat_free_directions(cs))
    calls = record_lps(monkeypatch)
    result = impose_state_preservation(t, stage)
    # Every LP runs on the reference's rows with b = 0, in order, and the box
    # -1 <= lam_i <= 1; the origin is strict on the box, so only cone rows
    # are minimised.  Cone rows are nonzero and tight at the origin, so the
    # first one takes an LP.
    cone = tuple(row for row, bound in zip(*reference) if bound == 0)
    box = tuple(
        tuple(sign if j == i else 0 for j in range(stage.dim))
        for i in range(stage.dim)
        for sign in (1, -1)
    )
    system = (cone + box, (0,) * len(cone) + (1,) * len(box))
    assert bool(calls) == bool(cone)
    assert all(lps.eq == ((), ()) and lps.ineq == system for lps, _, _, _ in calls)
    assert all(objective in cone and sense == "min" for _, objective, sense, _ in calls)
    assert_lps_match_fraction_reference(calls)
    if isinstance(result, PolytopeFamily):
        assert (result.halfspace_matrix, result.halfspace_rhs) == reference
    else:
        assert isinstance(result, UniqueIdentity)


def test_some_repeated_row_comes_from_two_integer_scalings():
    # impose_state_preservation keys each pair's row by its integer numerators
    # over the denominator (facet scale) * (vertex scale) * (kernel scale),
    # divided by their gcd.  Equal rows from pairs of different scale products
    # are merged only through that division.
    merged = 0
    for name in RANDOM_NAMES:
        for branch in range(THEORIES[name]().branch_outcomes):
            t, cs = constraints(name, branch)
            directions = solve_linear_stage(cs).free_directions
            space = t.state_space
            scalings = {}
            for v, (_, s) in zip(space.vertices, space.int_vertices):
                for g, (_, e) in zip(space.cone_facets, space.int_facets):
                    row = tuple(dot(g, matvec(dr, v)) for dr in directions)
                    if any(row):
                        scalings.setdefault((row, -dot(g, v)), set()).add(e * s)
            merged += sum(len(scales) > 1 for scales in scalings.values())
    assert merged > 0


def test_compare_tradeoff_matches_solving_wrapper():
    octahedron = builtin_theory("octahedron")
    gbit = builtin_theory("gbit")
    solved = restriction_dynamics_tradeoff(octahedron, gbit, "octahedron", "square")
    compared = compare_tradeoff(
        "octahedron",
        solved.restricted_freedoms,
        solved.restricted_dims,
        "square",
        solved.freer_freedoms,
        solved.freer_dims,
    )
    assert compared == solved
    with pytest.raises(ValueError):
        compare_tradeoff("a", (1, 1), (None, 0), "b", (1, 1), (0, 0))
    with pytest.raises(ValueError):
        compare_tradeoff("a", (2, 1), (1, 1), "b", (1, 1), (0, 0))
