"""Theory model tests: representations, membership, effects, builders."""

from fractions import Fraction
import random

import pytest

from gptdyn.exactla import identity, matmul, vec
from helpers import matrix_ball_membership, random_member_state

from gptdyn.theories import (
    BallStateSpace,
    MeasurementSpec,
    PolytopeStateSpace,
    Rep,
    Role,
    StateVec,
    TheorySpec,
    TheoryValidationError,
    UnsupportedRepresentationError,
    builtin_theory,
    effect,
    expectation_to_prob_matrix,
    from_minimal,
    make_boxworld,
    make_classical,
    make_gbit,
    make_octahedron,
    make_qubit,
    membership,
    outcome_probability,
    prob_to_expectation_matrix,
    spanning_states,
    to_expectation,
    to_minimal,
    to_probability,
)


# -- dimensions and builders ------------------------------------------------------


def test_gbit_dimensions():
    t = make_gbit()
    assert t.branch_outcomes == 2
    assert t.extra_freedoms == 1
    assert t.dim == 3
    assert len(t.state_space.vertices) == 4


def test_cube_dimensions():
    t = make_boxworld(3, 2)
    assert (t.branch_outcomes, t.extra_freedoms, t.dim) == (2, 2, 4)
    assert len(t.state_space.vertices) == 8


def test_boxworld_vertex_counts():
    for settings in (2, 3):
        for outcomes in (2, 3):
            t = make_boxworld(settings, outcomes)
            assert len(t.state_space.vertices) == outcomes**settings
            assert t.dim == outcomes + (settings - 1) * (outcomes - 1)


def test_classical_dimensions():
    t = make_classical(2)
    assert (t.branch_outcomes, t.extra_freedoms, t.dim) == (2, 0, 2)
    assert len(t.state_space.vertices) == 2


def test_builder_vertices_are_members():
    for name in ("gbit", "cube", "classical2", "octahedron"):
        t = builtin_theory(name)
        for v in t.state_space.vertices:
            assert membership(t, t.minimal_state(v)).is_inside


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_theory("pentagon")


def test_boxworld_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_boxworld(1, 2)
    with pytest.raises(ValueError):
        make_boxworld(2, 1)
    with pytest.raises(ValueError):
        make_classical(1)


def test_duplicate_branch_role_rejected():
    with pytest.raises(TheoryValidationError):
        TheorySpec(
            measurements=(
                MeasurementSpec("Z", 2, Role.BRANCH),
                MeasurementSpec("W", 2, Role.BRANCH),
            ),
            state_space=make_gbit().state_space,
        )


def test_branch_must_come_first():
    with pytest.raises(TheoryValidationError):
        TheorySpec(
            measurements=(
                MeasurementSpec("X", 2, Role.FIDUCIAL),
                MeasurementSpec("Z", 2, Role.BRANCH),
            ),
            state_space=make_gbit().state_space,
        )


def test_vertex_outside_unit_range_rejected():
    square = make_gbit().state_space
    bad = PolytopeStateSpace(
        vertices=square.vertices + (vec([1, 2, 0]),),
        cone_facets=square.cone_facets,
    )
    with pytest.raises(TheoryValidationError, match="outside"):
        TheorySpec(
            measurements=make_gbit().measurements,
            state_space=bad,
        )


def test_ball_requires_two_extra_binary_measurements():
    with pytest.raises(TheoryValidationError):
        TheorySpec(
            measurements=(
                MeasurementSpec("Z", 2, Role.BRANCH),
                MeasurementSpec("X", 2, Role.FIDUCIAL),
            ),
            state_space=BallStateSpace(),
        )


# -- representation conversions ----------------------------------------------------


def test_expectation_of_deterministic_corner():
    t = make_gbit()
    s = t.probability_state([1, 0, 1, 0])
    assert to_expectation(s).entries == vec([1, 1, 1])


def test_expectation_of_maximally_mixed():
    t = make_gbit()
    s = t.probability_state(["1/2", "1/2", "1/2", "1/2"])
    assert to_expectation(s).entries == vec([1, 0, 0])


def test_expectation_matrix_applied_by_hand():
    # Oracle: multiply the 3x4 conversion matrix against the probability
    # vector by hand: n = (1/2+1/2+3/4+1/4)/2 = 1, <Z> = 0, <X> = 1/2.
    t = make_gbit()
    s = t.probability_state(["1/2", "1/2", "3/4", "1/4"])
    assert to_expectation(s).entries == vec([1, 0, "1/2"])


def test_conversion_matrices_match_printed_blocks():
    t = make_gbit()
    m = prob_to_expectation_matrix(t)
    assert m == (
        vec(["1/2", "1/2", "1/2", "1/2"]),
        vec([1, -1, 0, 0]),
        vec([0, 0, 1, -1]),
    )
    m_inv = expectation_to_prob_matrix(t)
    assert m_inv == (
        vec(["1/2", "1/2", 0]),
        vec(["1/2", "-1/2", 0]),
        vec(["1/2", 0, "1/2"]),
        vec(["1/2", 0, "-1/2"]),
    )
    assert matmul(m, m_inv) == identity(3)


def test_expectation_probability_roundtrip_trivial_cases():
    t = make_gbit()
    assert to_probability(t.expectation_state([1, 1, 1])).entries == vec([1, 0, 1, 0])
    assert to_probability(t.expectation_state([1, 0, 0])).entries == vec(
        ["1/2", "1/2", "1/2", "1/2"]
    )


def test_minimal_examples():
    t = make_gbit()
    assert to_minimal(t.probability_state([1, 0, 1, 0])).entries == vec([1, 1, 1])
    assert to_minimal(t.probability_state(["1/2", "1/2", "1/2", "1/2"])).entries == vec(
        [1, "1/2", "1/2"]
    )
    # Sub-normalised corner at n = 1/2, mapped by hand.
    assert to_minimal(
        t.probability_state(["1/2", 0, "1/2", 0])
    ).entries == vec(["1/2", "1/2", "1/2"])


def test_unequal_normalisations_rejected():
    t = make_gbit()
    with pytest.raises(TheoryValidationError, match="normalisations"):
        to_minimal(t.probability_state([1, 0, "1/2", 0]))
    with pytest.raises(TheoryValidationError):
        to_expectation(t.probability_state([1, 0, "1/2", 0]))


def test_expectation_requires_binary():
    t = make_boxworld(2, 3)
    with pytest.raises(UnsupportedRepresentationError):
        to_expectation(t.minimal_state([1, 0, 0, 0, 0]))


def test_roundtrips_exact_on_random_states():
    rng = random.Random(4242)
    for name in ("gbit", "cube", "qubit", "classical2", "octahedron"):
        t = builtin_theory(name)
        for _ in range(40):
            s = random_member_state(t, rng)
            p = to_probability(s)
            assert to_minimal(p).entries == s.entries
            assert from_minimal(to_minimal(p)).entries == p.entries
            e = to_expectation(p)
            assert to_probability(e).entries == p.entries


def test_roundtrip_nonbinary_theory():
    rng = random.Random(77)
    t = make_boxworld(3, 3)
    for _ in range(20):
        s = random_member_state(t, rng)
        p = to_probability(s)
        assert to_minimal(p).entries == s.entries


# -- membership -----------------------------------------------------------------


def test_qubit_membership_examples():
    t = make_qubit()
    on_sphere = t.expectation_state([1, 0, 1, 0])
    assert membership(t, on_sphere).is_inside
    outside = t.expectation_state([1, 1, 1, 1])
    result = membership(t, outside)
    assert not result.is_inside
    assert "exceeds" in result.violation


def test_gbit_membership_corner():
    t = make_gbit()
    assert membership(t, t.minimal_state([1, 1, 1])).is_inside
    assert not membership(t, t.minimal_state([1, 1, 2])).is_inside
    assert not membership(t, t.minimal_state(["3/2", 1, 1])).is_inside
    assert not membership(t, t.minimal_state(["-1/2", 0, 0])).is_inside


def test_membership_rejects_wrong_length_first():
    # The length is checked before n, so an out-of-range n gets no verdict.
    gbit = make_gbit()
    for entries in ((2, 1), (1, 1), (-1, 0, 0, 0)):
        state = StateVec(Rep.MINIMAL, vec(entries), gbit)
        with pytest.raises(ValueError, match="state of length"):
            membership(gbit, state)
    qubit = make_qubit()
    for entries in ((1, 1, 1), (0, 0, 0), (1, 1, 1, 1, 1), (2, 0, 0, 0, 0)):
        state = StateVec(Rep.MINIMAL, vec(entries), qubit)
        with pytest.raises(ValueError, match="state of length"):
            membership(qubit, state)


def test_ball_membership_matches_matrix_route():
    rng = random.Random(23)
    t = make_qubit()
    verdicts = set()
    for i in range(600):
        n = Fraction(rng.randint(-1, 7), 6)
        if i % 3 == 0:
            s = t.minimal_state([n] + [Fraction(rng.randint(-2, 8), 6) for _ in range(3)])
        elif i % 3 == 1:
            s = t.expectation_state([n] + [Fraction(rng.randint(-6, 6), 6) for _ in range(3)])
        else:
            ps = [Fraction(rng.randint(0, 6), 6) for _ in range(3)]
            s = t.probability_state([q for p in ps for q in (p, n - p)])
        result = membership(t, s)
        assert repr(result) == repr(matrix_ball_membership(t, s))
        verdicts.add(result.violation.split()[0] if result.violation else "inside")
    assert verdicts == {"inside", "normalisation", "squared"}


def test_subnormal_scaling_stays_member():
    rng = random.Random(11)
    for name in ("gbit", "cube", "qubit", "octahedron"):
        t = builtin_theory(name)
        for _ in range(20):
            s = random_member_state(t, rng, subnormal=False)
            assert membership(t, s).is_inside
            scale = Fraction(rng.randint(0, 5), 5)
            scaled = t.minimal_state([scale * x for x in s.entries])
            assert membership(t, scaled).is_inside


def test_zero_state_is_member():
    for name in ("gbit", "qubit", "classical2"):
        t = builtin_theory(name)
        assert membership(t, t.minimal_state([0] * t.dim)).is_inside


# -- effects -------------------------------------------------------------------


def test_effect_on_corner_and_mixed():
    t = make_gbit()
    z_up = effect(t, "Z", 0)
    corner = t.minimal_state([1, 1, 1])
    assert outcome_probability(corner, z_up) == 1
    mixed = t.minimal_state([1, "1/2", "1/2"])
    assert outcome_probability(mixed, z_up) == Fraction(1, 2)


def test_qubit_effect_in_expectation_picture():
    # Oracle: the X=+1 effect is half the sum of the n row and the <X> row.
    t = make_qubit()
    x_plus = effect(t, "X", 0, rep=Rep.EXPECTATION)
    assert x_plus.vector == vec(["1/2", 0, "1/2", 0])
    s = t.expectation_state([1, 0, 1, 0])
    assert outcome_probability(s, x_plus) == 1


def test_effect_block_sums_to_normalisation():
    rng = random.Random(5)
    for name in ("gbit", "cube", "qubit", "octahedron", "classical2"):
        t = builtin_theory(name)
        for _ in range(10):
            s = random_member_state(t, rng)
            n = s.entries[0]
            for m in t.measurements:
                total = sum(
                    outcome_probability(s, effect(t, m.label, j))
                    for j in range(m.outcomes)
                )
                assert total == n


def test_effect_probability_in_range():
    rng = random.Random(6)
    for name in ("gbit", "qubit", "octahedron"):
        t = builtin_theory(name)
        for _ in range(25):
            s = random_member_state(t, rng)
            n = s.entries[0]
            for m in t.measurements:
                for j in range(m.outcomes):
                    p = outcome_probability(s, effect(t, m.label, j))
                    assert 0 <= p <= n


def test_effect_argument_errors():
    t = make_gbit()
    with pytest.raises(ValueError):
        effect(t, "Q", 0)
    with pytest.raises(ValueError):
        effect(t, "Z", 5)
    s = t.minimal_state([1, 1, 1])
    wrong_rep = effect(t, "Z", 0, rep=Rep.PROBABILITY)
    with pytest.raises(ValueError):
        outcome_probability(s, wrong_rep)


def test_spanning_states_span():
    from gptdyn.exactla import rank

    for name in ("gbit", "cube", "qubit", "classical2", "octahedron"):
        t = builtin_theory(name)
        assert rank(spanning_states(t)) == t.dim


def test_octahedron_facets():
    t = make_octahedron()
    assert len(t.state_space.cone_facets) == 4
    for v in t.state_space.vertices:
        assert membership(t, t.minimal_state(v)).is_inside
    # Mid-edge mixtures stay inside, the square corner does not.
    assert membership(t, t.minimal_state([1, "3/4", "3/4"])).is_inside
    assert not membership(t, t.minimal_state([1, 1, 1])).is_inside
