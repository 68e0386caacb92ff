"""Stage two on the tight cone against the axis-LP route over the whole system.

The solver decides the family on the rows with zero bound plus a unit box;
``helpers.axis_lp_state_preservation`` is the route it replaced, with ``2k``
axis LPs and the dimension search over every (vertex, facet) row.  Both must
give the same halfspaces, result and dimension, and the new witnesses must
be ``dim + 1`` affinely independent exact members of the family.
"""

from dataclasses import replace
import importlib
from pathlib import Path
import random

import pytest

import gptdyn
from gptdyn import solver
from gptdyn.exactla import ONE, ZERO, affine_hull_dim, dot, identity, rank, zeros
from gptdyn.simplex import lp_optimize
from gptdyn.solver import (
    LinearStage,
    PolytopeFamily,
    allowed_transform_set,
    assemble_constraints,
    family_member,
    impose_state_preservation,
    solve_linear_stage,
    verify_transformation,
)
from gptdyn.theories import PolytopeStateSpace, builtin_theory
from gptdyn.theory_io import load_theory

from helpers import (
    HALVES,
    SIXTHS,
    assert_lps_match_fraction_reference,
    axis_lp_state_preservation,
    checked_implicit_equalities,
    direction_halfspaces,
    inscribed_sphere_theory,
    random_v_theory,
    record_lps,
)
from test_linear_stage import CASES, THEORIES

CROSS_THEORIES = dict(THEORIES)
CROSS_THEORIES.update(
    (f"{label}_v{seed}", lambda seed=seed, grid=grid: random_v_theory(random.Random(seed), grid))
    for label, grid in (("halves", HALVES), ("sixths", SIXTHS))
    for seed in range(100, 120)
)
CROSS_THEORIES["inscribed6"] = lambda: inscribed_sphere_theory((-1, 1))
CROSS_THEORIES["inscribed10"] = lambda: inscribed_sphere_theory((-1, 0, 1))
CROSS_CASES = CASES + [
    (name, branch)
    for name, build in CROSS_THEORIES.items()
    if name not in THEORIES
    for branch in range(build().branch_outcomes)
]


def _without_witnesses(result):
    if isinstance(result, PolytopeFamily):
        return replace(result, witnesses=())
    return result


def assert_witnesses_span_family(t, branch, stage, family):
    """Origin first, ``dim + 1`` affinely independent exact members, each verified."""
    witnesses = family.witnesses
    assert witnesses[0] == zeros(stage.dim)
    assert len(witnesses) == family.dim + 1
    assert affine_hull_dim(witnesses) == family.dim
    for w in witnesses:
        for row, bound in zip(family.halfspace_matrix, family.halfspace_rhs):
            assert dot(row, w) <= bound
        assert verify_transformation(t, family_member(stage, w), branch).passed


@pytest.mark.parametrize(
    "name, branch", CROSS_CASES, ids=[f"{name}-{branch}" for name, branch in CROSS_CASES]
)
def test_tight_cone_matches_axis_lp_reference(name, branch):
    t = CROSS_THEORIES[name]()
    ats = allowed_transform_set(t, branch)
    if not isinstance(t.state_space, PolytopeStateSpace):
        assert ats.result_kind() == "candidates"
        return
    reference = axis_lp_state_preservation(t, ats.linear_stage)
    expected = replace(ats, state_preserving=_without_witnesses(reference))
    got = replace(ats, state_preserving=_without_witnesses(ats.state_preserving))
    assert repr(got) == repr(expected)
    if isinstance(ats.state_preserving, PolytopeFamily):
        assert_witnesses_span_family(t, branch, ats.linear_stage, ats.state_preserving)


@pytest.mark.parametrize(
    "name, branch", CROSS_CASES, ids=[f"{name}-{branch}" for name, branch in CROSS_CASES]
)
def test_search_matches_one_lp_per_row_reference(name, branch, monkeypatch):
    t = CROSS_THEORIES[name]()
    calls = record_lps(monkeypatch)
    searches = []

    def checked(a, b, points=()):
        result, _ = checked_implicit_equalities(calls, a, b, points)
        searches.append(result)
        return result

    monkeypatch.setattr(solver, "implicit_equalities", checked)
    allowed_transform_set(t, branch)
    assert len(searches) == isinstance(t.state_space, PolytopeStateSpace)


POLYTOPE_CROSS_CASES = [(name, branch) for name, branch in CROSS_CASES if name != "qubit"]


@pytest.mark.parametrize(
    "name, branch",
    POLYTOPE_CROSS_CASES,
    ids=[f"{name}-{branch}" for name, branch in POLYTOPE_CROSS_CASES],
)
def test_tight_cone_is_pointed(name, branch):
    # rank A0 = k: a direction D with I + eD and I - eD both allowed keeps
    # every vertex on each facet through it, so Dv = 0 on spanning vertices.
    t = CROSS_THEORIES[name]()
    stage = solve_linear_stage(assemble_constraints(t, branch))
    rows, rhs = direction_halfspaces(t, stage.free_directions)
    cone = tuple(row for row, bound in zip(rows, rhs) if bound == 0)
    assert rank(cone) == stage.dim


def test_random_family_pass_makes_at_most_97_lps(monkeypatch):
    # The theories of one pass of the benchmark's random_family workload,
    # listed as at seed 11; the one-LP-per-row search made 176 LPs on them.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    family = workloads.RandomFamily(gptdyn, random.Random(11), None)
    calls = record_lps(monkeypatch)
    for _, _, text in family.theories:
        t = load_theory(text)
        for branch in (0, 1):
            allowed_transform_set(t, branch)
    assert 0 < len(calls) <= 97


def test_every_cone_row_an_equality_gives_p_zero():
    # Kernel vectors w and -w in the X row of the square: every row with
    # b = 0 is +-(1, -1), an implicit equality, so the search finds no member
    # and p = 0, while lam_1 = lam_2 leaves a family of dimension 1.  Only
    # dependent directions get here (a map keeping every vertex on each of
    # its facets is the identity), so the family contains a line and has no
    # axis-LP reference.
    t = builtin_theory("gbit")
    w = (ONE, ZERO, ZERO)
    kernel = (w, tuple(-x for x in w))
    zero_row = zeros(3)
    stage = LinearStage(
        base=identity(3),
        first_free_row=2,
        kernel=kernel,
        free_directions=tuple((zero_row, zero_row, u) for u in kernel),
    )
    family = impose_state_preservation(t, stage)
    assert isinstance(family, PolytopeFamily)
    cone = {row for row, bound in zip(family.halfspace_matrix, family.halfspace_rhs) if bound == 0}
    assert cone == {(ONE, -ONE), (-ONE, ONE)}
    assert family.dim == 1
    assert_witnesses_span_family(t, 0, stage, family)


def test_inscribed_26_vertex_lps_stay_on_the_tight_cone(monkeypatch):
    t = inscribed_sphere_theory(range(-2, 3))
    assert len(t.state_space.vertices) == 26
    calls = record_lps(monkeypatch)
    for branch in (0, 1):
        calls.clear()
        ats = allowed_transform_set(t, branch)
        family = ats.state_preserving
        assert isinstance(family, PolytopeFamily)
        assert family.dim == 4
        zero_rows = sum(1 for bound in family.halfspace_rhs if bound == 0)
        assert zero_rows < len(family.halfspace_rhs)
        assert calls
        assert all(
            len(system.ineq[0]) <= zero_rows + 2 * ats.linear_stage.dim
            for system, _, _, _ in calls
        )
        if branch:
            assert_lps_match_fraction_reference(calls)
        else:
            # The rational tableau takes about 6 s on branch 0's LPs; the
            # integer one, checked against it elsewhere, takes 0.3 s.  Its
            # fresh calls are recorded too, so loop over a copy.
            for system, objective, sense, result in list(calls):
                fresh = lp_optimize(objective, eq=system.eq, ineq=system.ineq, sense=sense)
                assert repr(result) == repr(fresh)
        assert_witnesses_span_family(t, branch, ats.linear_stage, family)
