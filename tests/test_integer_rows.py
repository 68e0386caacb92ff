"""The integer rows of polytope state spaces against the ``Fraction`` checks.

Validation, membership and verification run their (vertex, facet) loops on
integer rows; on seeded random theories with vertex denominators up to 6
their errors, results and reports must be exactly the ``Fraction`` ones.
"""

import random
from fractions import Fraction

import pytest

from gptdyn.exactla import dot, identity, matmul, matvec, scale_to_integers, vec
from gptdyn.solver import (
    PolytopeFamily,
    allowed_transform_set,
    assemble_constraints,
    family_member,
    sample_family_points,
    verify_transformation,
)
from gptdyn.theories import (
    PolytopeStateSpace,
    Rep,
    StateVec,
    TheorySpec,
    TheoryValidationError,
    builtin_theory,
    expectation_to_minimal_matrix,
    expectation_to_prob_matrix,
    make_boxworld,
    make_qubit,
    membership,
    minimal_to_expectation_matrix,
    minimal_to_prob_matrix,
    prob_to_expectation_matrix,
    prob_to_minimal_matrix,
)

from helpers import (
    SIXTHS,
    fraction_membership,
    fraction_validation_error,
    fraction_verify,
    random_h_theory,
    random_member_state,
    random_v_theory,
)

SMALL = Fraction(1, 1000)


def _theories(seed):
    rng = random.Random(seed)
    theories = [random_v_theory(rng, SIXTHS) for _ in range(5)]
    theories += [random_h_theory(rng) for _ in range(4)]
    theories += [builtin_theory("octahedron"), make_boxworld(2, 3)]
    return theories


def _max_denominator(t):
    return max(x.denominator for v in t.state_space.vertices for x in v)


def test_random_theories_have_vertex_denominators_up_to_six():
    theories = _theories(3)
    assert max(_max_denominator(t) for t in theories) == 6
    assert any(len(t.state_space.cone_facets) > 6 for t in theories)


def test_integer_rows_are_scaled_rows_outside_eq_hash_and_repr():
    for t in _theories(4):
        space = t.state_space
        for rows, int_rows in (
            (space.vertices, space.int_vertices),
            (space.cone_facets, space.int_facets),
        ):
            assert len(rows) == len(int_rows)
            for row, (numerators, scale) in zip(rows, int_rows):
                assert (list(numerators), scale) == scale_to_integers(row)
                assert scale > 0
        # Same rational rows in another order: equal, same hash, same repr.
        other = PolytopeStateSpace(space.vertices[::-1], space.cone_facets[::-1])
        assert other == space and hash(other) == hash(space)
        assert repr(other) == repr(space)
        assert "int_" not in repr(space)


def _nudged(rng, transform):
    rows = [list(row) for row in transform]
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[r][c] += Fraction(rng.choice((1, -1)), rng.randint(1, 6))
    return tuple(tuple(row) for row in rows)


def _with_n_row(transform, n_row):
    return (vec(n_row),) + transform[1:]


def _maps(rng, t, branch):
    """Family members, each nudged in one entry, and maps with broken n rows."""
    ats = allowed_transform_set(t, branch)
    members = [identity(t.dim)]
    if isinstance(ats.state_preserving, PolytopeFamily):
        family = ats.state_preserving
        members += [family_member(ats.linear_stage, w) for w in family.witnesses]
        points = sample_family_points(family, 2, seed=rng.randrange(100))
        members += [family_member(ats.linear_stage, p) for p in points]
    maps = list(members)
    maps += [_nudged(rng, m) for m in members for _ in range(3)]
    d = t.dim
    k = rng.randint(2, 6)
    maps.append(_with_n_row(members[-1], [-1] + [0] * (d - 1)))  # n < 0 everywhere
    maps.append(_with_n_row(members[-1], [Fraction(k + 1, k)] + [0] * (d - 1)))  # n > 1
    # n > 1 only on vertices with a positive last coordinate.
    maps.append(_with_n_row(members[-1], [1] + [0] * (d - 2) + [Fraction(1, k)]))
    return maps


def test_verify_matches_fraction_reference():
    rng = random.Random(17)
    kinds = ("is negative", "exceeds 1", "violates facet")
    seen = set()
    for t in _theories(5):
        for branch in range(t.branch_outcomes):
            cs = assemble_constraints(t, branch)
            for transform in _maps(rng, t, branch):
                report = verify_transformation(t, transform, branch)
                assert repr(report) == repr(fraction_verify(cs, transform))
                seen.add(report.passed)
                for _, _, why in report.membership_violations:
                    seen.update(kind for kind in kinds if kind in why)
    assert seen == {True, False, *kinds}


def test_membership_matches_fraction_reference():
    rng = random.Random(19)
    outcomes = set()
    for t in _theories(6):
        states = [random_member_state(t, rng) for _ in range(6)]
        for transform in _maps(rng, t, 0)[:12]:
            states += [
                StateVec(Rep.MINIMAL, matvec(transform, v), t) for v in t.state_space.vertices
            ]
        for s in states:
            result = membership(t, s)
            assert repr(result) == repr(fraction_membership(t, s))
            outcomes.add(result.is_inside)
    assert outcomes == {True, False}


def _tight_pair(t):
    """A vertex and a facet it lies on, with a coordinate along which it leaves."""
    for g in t.state_space.cone_facets:
        for v in t.state_space.vertices:
            if dot(g, v) == 0:
                for j in range(1, t.dim):
                    if g[j] > 0 and v[j] + SMALL <= 1:
                        return v, j
    raise AssertionError("no tight pair")  # pragma: no cover


def _invalid_spaces(t):
    space = t.state_space
    vertices = list(space.vertices)
    v, j = _tight_pair(t)
    outside = list(v)
    outside[j] += SMALL  # 1/1000 outside a facet, probabilities still in [0, 1]
    yield vertices + [tuple(outside)], space.cone_facets
    for j in range(1, t.dim):
        above = list(vertices[0])
        above[j] = 1 + SMALL  # p = 1 + 1/1000
        yield vertices + [tuple(above)], space.cone_facets
        below = list(vertices[-1])
        below[j] = -SMALL
        yield vertices + [tuple(below)], space.cone_facets
    if t.branch_outcomes == 3:  # the last branch probability 1 - 2 (1/2 + 1/1000) < 0
        last = list(vertices[0])
        last[1] = last[2] = Fraction(1, 2) + SMALL
        yield vertices + [tuple(last)], space.cone_facets
    yield vertices + [(1 + SMALL,) + vertices[0][1:]], space.cone_facets
    yield vertices + [vertices[0] + (0,)], space.cone_facets
    yield vertices, space.cone_facets + (space.cone_facets[0] + (0,),)


def test_validation_matches_fraction_reference():
    messages = []
    for t in _theories(7):
        for vertices, facets in _invalid_spaces(t):
            space = PolytopeStateSpace(tuple(vertices), tuple(facets))
            expected = fraction_validation_error(t.measurements, space)
            assert expected is not None
            with pytest.raises(TheoryValidationError) as info:
                TheorySpec(t.measurements, space)
            assert str(info.value) == expected
            messages.append(expected)
        assert fraction_validation_error(t.measurements, t.state_space) is None
    assert any("violates the supplied facet" in m for m in messages)
    assert any("= 1001/1000 is outside" in m for m in messages)
    assert any("= -1/1000 is outside" in m for m in messages)
    assert any("p(Z=2) = -1/500 is outside" in m for m in messages)
    assert any("not normalised" in m for m in messages)


def test_conversion_matrices_built_once_per_theory():
    t = make_qubit()
    to_exp = minimal_to_expectation_matrix(t)
    to_min = expectation_to_minimal_matrix(t)
    assert minimal_to_expectation_matrix(t) is to_exp
    assert expectation_to_minimal_matrix(t) is to_min
    assert to_exp == matmul(prob_to_expectation_matrix(t), minimal_to_prob_matrix(t))
    assert to_min == matmul(prob_to_minimal_matrix(t), expectation_to_prob_matrix(t))
    assert matmul(to_exp, to_min) == identity(t.dim)
    # A cached matrix is no field: an equal theory built afresh compares equal.
    assert make_qubit() == t and hash(make_qubit()) == hash(t)
