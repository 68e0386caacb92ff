"""Solver pipeline tests against hand-derived oracles."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gptdyn.exactla import identity, mat, matmul, matvec, rank, vec
from gptdyn.restriction import conditional_state_set
from gptdyn.solver import (
    CandidateVerified,
    PolytopeFamily,
    StatePreservationNotApplicableError,
    UniqueIdentity,
    allowed_transform_set,
    assemble_constraints,
    ball_candidate_transforms,
    count_forced_eigenvectors,
    family_member,
    impose_state_preservation,
    restriction_dynamics_tradeoff,
    sample_family_points,
    solve_linear_stage,
    verify_main_theorem,
    verify_transformation,
)
from gptdyn.theories import (
    BUILTIN_BUILDERS,
    expectation_to_minimal_matrix,
    make_boxworld,
    make_classical,
    make_gbit,
    make_octahedron,
    make_qubit,
    membership,
    minimal_to_expectation_matrix,
)

from helpers import embed_phase_block, matrix_ball_verify, random_v_theory


def expectation_picture(t, transform):
    return matmul(
        minimal_to_expectation_matrix(t),
        matmul(transform, expectation_to_minimal_matrix(t)),
    )


def minimal_picture(t, t_exp):
    return matmul(
        expectation_to_minimal_matrix(t),
        matmul(t_exp, minimal_to_expectation_matrix(t)),
    )


# -- constraint assembly ---------------------------------------------------------


def test_gbit_fixed_span():
    cs = assemble_constraints(make_gbit(), 1)
    assert rank(cs.fixed_vectors) == 2
    assert cs.branch_row_count == 2


def test_qubit_fixed_span_is_one_ray():
    cs = assemble_constraints(make_qubit(), 1)
    assert cs.fixed_vectors == (vec([1, 1, "1/2", "1/2"]),)
    assert rank(cs.fixed_vectors) == 1


def test_classical_rows_force_identity_outright():
    t = make_classical(2)
    stage = solve_linear_stage(assemble_constraints(t, 1))
    assert stage.base == identity(2)
    assert stage.dim == 0


def test_invalid_branch_rejected():
    with pytest.raises(ValueError):
        assemble_constraints(make_gbit(), 5)


# -- linear stage dimensions ------------------------------------------------------


def test_linear_stage_dims():
    # Hand elimination: one free row direction for the square, two for the
    # cube, six for the round space (2 rows x 4 entries - 2 ray conditions).
    assert solve_linear_stage(assemble_constraints(make_gbit(), 1)).dim == 1
    assert solve_linear_stage(assemble_constraints(make_boxworld(3, 2), 1)).dim == 2
    assert solve_linear_stage(assemble_constraints(make_qubit(), 1)).dim == 6


def test_gbit_free_direction_shape():
    t = make_gbit()
    stage = solve_linear_stage(assemble_constraints(t, 1))
    direction = stage.free_directions[0]
    # Branch rows are pinned; only the last row moves.
    assert direction[0] == vec([0, 0, 0])
    assert direction[1] == vec([0, 0, 0])
    # The direction annihilates both fixed vertices of the other branch.
    for v in assemble_constraints(t, 1).fixed_vectors:
        assert matvec(direction, v) == vec([0, 0, 0])


def test_gbit_linear_stage_matches_hand_elimination():
    # Hand elimination of the 3x3 system in the expectation picture leaves
    # the bottom row (g, -g, 1): the free direction is (g, -g, 0) there.
    t = make_gbit()
    stage = solve_linear_stage(assemble_constraints(t, 1))
    d_exp = expectation_picture(t, stage.free_directions[0])
    assert d_exp[0] == vec([0, 0, 0])
    assert d_exp[1] == vec([0, 0, 0])
    g = d_exp[2][0]
    assert g != 0
    assert d_exp[2] == vec([g, -g, 0])


# -- state preservation ------------------------------------------------------------


def test_gbit_freezes():
    t = make_gbit()
    for branch in (0, 1):
        stage = solve_linear_stage(assemble_constraints(t, branch))
        assert isinstance(impose_state_preservation(t, stage), UniqueIdentity)


def test_cube_freezes():
    t = make_boxworld(3, 2)
    for branch in (0, 1):
        stage = solve_linear_stage(assemble_constraints(t, branch))
        assert isinstance(impose_state_preservation(t, stage), UniqueIdentity)


def test_octahedron_family_is_one_dimensional():
    # Oracle: image of each of the 4 vertices against the 4 facets leaves
    # exactly the scaling of the free expectation axis, magnitude <= 1.
    t = make_octahedron()
    stage = solve_linear_stage(assemble_constraints(t, 1))
    assert stage.dim == 2
    family = impose_state_preservation(t, stage)
    assert isinstance(family, PolytopeFamily)
    assert family.dim == 1
    for point in sample_family_points(family, 8, seed=3):
        member = family_member(stage, point)
        t_exp = expectation_picture(t, member)
        assert t_exp[0] == vec([1, 0, 0])
        assert t_exp[1] == vec([0, 1, 0])
        assert t_exp[2][0] == 0 and t_exp[2][1] == 0
        assert -1 <= t_exp[2][2] <= 1
        assert verify_transformation(t, member, 1).passed


def test_state_preservation_not_applicable_for_ball():
    t = make_qubit()
    stage = solve_linear_stage(assemble_constraints(t, 1))
    with pytest.raises(StatePreservationNotApplicableError):
        impose_state_preservation(t, stage)


# -- allowed transform sets -----------------------------------------------------------


def test_gbit_allowed_set_is_identity_only():
    for branch in (0, 1):
        ats = allowed_transform_set(make_gbit(), branch)
        assert isinstance(ats.state_preserving, UniqueIdentity)
        assert ats.result_kind() == "unique_identity"
        assert ats.family_dim() == 0


def test_qubit_allowed_set_has_verified_candidates():
    ats = allowed_transform_set(make_qubit(), 1)
    assert ats.linear_stage.dim == 6
    assert ats.forced_fixed_count == 2
    assert isinstance(ats.state_preserving, CandidateVerified)
    transforms = ats.state_preserving.transforms
    assert identity(4) in transforms
    assert any(tr != identity(4) for tr in transforms)
    for report in ats.state_preserving.reports:
        assert report.passed
        assert report.method == "contraction-block"
        assert report.exhaustive


def test_classical_allowed_set():
    ats = allowed_transform_set(make_classical(2), 0)
    assert ats.result_kind() == "unique_identity"
    assert ats.forced_fixed_count == 2


def test_solver_report_schema():
    payload = allowed_transform_set(make_octahedron(), 0).to_jsonable()
    assert payload == {
        "branch": 0,
        "linear_stage_dim": 2,
        "result": "family",
        "family_dim": 1,
        "forced_fixed_count": 2,
    }


# -- verification -----------------------------------------------------------------------


def test_identity_passes_everywhere():
    for builder in (make_gbit, make_qubit, make_octahedron):
        t = builder()
        for branch in range(t.branch_outcomes):
            report = verify_transformation(t, identity(t.dim), branch)
            assert report.passed


def test_gbit_shear_fails_via_vertex_image():
    # Expectation-picture bottom row (1/2, -1/2, 1) fixes the upper-branch
    # states but shears the lower ones; by direct multiplication the corner
    # (1, -1, 1) maps to <X> = 1/2 + 1/2 + 1 = 2, outside [-1, 1].
    t = make_gbit()
    t_exp = mat([[1, 0, 0], [0, 1, 0], ["1/2", "-1/2", 1]])
    bad = minimal_picture(t, t_exp)
    report = verify_transformation(t, bad, 1)
    assert report.residuals_zero
    assert not report.passed
    witnesses = {probe for probe, _, _ in report.membership_violations}
    # Minimal-picture image of (n, <Z>, <X>) = (1, -1, 1) is (1, 0, 1).
    assert vec([1, 0, 1]) in witnesses


def test_qubit_rotation_verified_exactly():
    t = make_qubit()
    cos, sin = Fraction(3, 5), Fraction(4, 5)
    t_exp = mat(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, cos, -sin],
            [0, 0, sin, cos],
        ]
    )
    rotation = minimal_picture(t, t_exp)
    report = verify_transformation(t, rotation, 1)
    assert report.passed
    assert report.method == "contraction-block"
    assert report.exhaustive


def test_qubit_shrink_verified_exactly():
    t = make_qubit()
    t_exp = mat(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, "1/2", 0],
            [0, 0, 0, "1/2"],
        ]
    )
    shrink = minimal_picture(t, t_exp)
    report = verify_transformation(t, shrink, 1)
    assert report.passed
    assert report.method == "contraction-block"
    assert report.exhaustive


def test_qubit_expansion_caught_by_probes():
    t = make_qubit()
    t_exp = mat(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 2, 0],
            [0, 0, 0, 1],
        ]
    )
    grow = minimal_picture(t, t_exp)
    report = verify_transformation(t, grow, 1)
    assert not report.passed
    assert report.membership_violations


def test_qubit_branch_coupling_caught():
    # A map feeding <Z> into <X> violates membership at the free pole.
    t = make_qubit()
    t_exp = mat(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            ["1/2", "-1/2", 1, 0],
            [0, 0, 0, 1],
        ]
    )
    coupled = minimal_picture(t, t_exp)
    report = verify_transformation(t, coupled, 1)
    assert report.residuals_zero
    assert not report.passed


def qubit_t_exp(block, coupling=((0, 0), (0, 0)), z_row=(0, 1, 0, 0)):
    """Expectation-picture qubit map; ``coupling`` feeds (n, <Z>) into X/Y."""
    return mat(
        [
            [1, 0, 0, 0],
            list(z_row),
            list(coupling[0]) + list(block[0]),
            list(coupling[1]) + list(block[1]),
        ]
    )


def assert_witnesses_exact(t, transform, report):
    for state, image, why in report.membership_violations:
        assert membership(t, t.minimal_state(state)).is_inside
        assert image == matvec(transform, state)
        rejected = membership(t, t.minimal_state(image))
        assert not rejected.is_inside
        assert why == rejected.violation


def test_qubit_uut_stretch_fails():
    # (1001/1000) u u^T stretches the pure state with X/Y direction u to
    # length 1001/1000; it fixes both poles, so only the block can catch it.
    t = make_qubit()
    u = (Fraction(12, 13), Fraction(5, 13))
    block = [[Fraction(1001, 1000) * a * b for b in u] for a in u]
    grow = minimal_picture(t, qubit_t_exp(block))
    report = verify_transformation(t, grow, 0)
    assert report.residuals_zero
    assert not report.passed
    assert report.membership_violations
    assert report.method == "contraction-block"
    assert report.exhaustive
    assert_witnesses_exact(t, grow, report)


def _circle_point(q):
    """Rational unit vector ((1 - q^2)/(1 + q^2), 2q/(1 + q^2))."""
    return ((1 - q * q) / (1 + q * q), 2 * q / (1 + q * q))


def _ball_blocks(rng):
    """Random rational 2x2 blocks, many of them on or near the unit-norm boundary."""
    blocks = []
    for _ in range(100):
        entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)]
        blocks.append([entries[:2], entries[2:]])
    for _ in range(50):
        c, s = _circle_point(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        k = rng.choice((2, 10, 1000, 10**6))
        f = 1 + Fraction(rng.choice((-1, 0, 1)), k)
        blocks.append([[f * c, -f * s], [f * s, f * c]])  # scaled rotation
        blocks.append([[f * c, f * s], [f * s, -f * c]])  # scaled reflection
        u = _circle_point(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        blocks.append([[f * a * b for b in u] for a in u])  # scaled projection
        # A unit first column makes I - M^T M vanish at e_X.
        x, y = Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4)
        blocks.append([[c, x], [s, y]])
    return blocks


def _reference_keeps_ball(t_exp):
    """Pinned, uncoupled, and both singular values of the block at most 1."""
    pinned = t_exp[0] == (1, 0, 0, 0) and t_exp[1] == (0, 1, 0, 0)
    uncoupled = all(t_exp[r][c] == 0 for r in (2, 3) for c in (0, 1))
    (a, b), (c, d) = t_exp[2][2:], t_exp[3][2:]
    trace = a * a + b * b + c * c + d * d
    det = a * d - b * c
    return pinned and uncoupled and trace <= min(2, 1 + det * det)


def _contraction_case(block):
    """Which sign of ``G = I - M^T M`` decides whether ``M`` is a contraction."""
    (a, b), (c, d) = block
    g11, g22, g12 = 1 - a * a - c * c, 1 - b * b - d * d, -(a * b + c * d)
    det = g11 * g22 - g12 * g12
    if g11 < 0:
        return "g11 < 0"
    if g22 < 0:
        return "g22 < 0"
    if det < 0:
        return "det < 0, g11 > 0" if g11 > 0 else "det < 0, g11 = 0"
    return "contraction, det > 0" if det > 0 else "contraction, det = 0"


def test_ball_verdict_matches_singular_value_reference():
    rng = random.Random(5)
    t = make_qubit()
    small = Fraction(1, 1000)
    to_min = expectation_to_minimal_matrix(t)
    to_exp = minimal_to_expectation_matrix(t)
    uncoupled, z_row = ((0, 0), (0, 0)), (0, 1, 0, 0)
    blocks = _ball_blocks(rng)
    seen = Counter()
    for i, block in enumerate(blocks):
        variants = [(uncoupled, z_row)]
        if i % 4 == 0:
            variants.append((((small, 0), (0, -small)), z_row))  # moves both poles
        if i % 4 == 1:
            variants.append((((small, small), (0, 0)), z_row))  # moves the <Z> = 1 pole
        if i % 9 == 0:
            variants.append((uncoupled, (0, 1, small, 0)))  # unpins the <Z> row
        for coupling, row in variants:
            t_exp = qubit_t_exp(block, coupling, row)
            transform = matmul(to_min, matmul(t_exp, to_exp))
            report = verify_transformation(t, transform, i % 2)
            expected = _reference_keeps_ball(t_exp)
            assert report.passed == expected, (block, coupling, row)
            assert report.method == "contraction-block"
            assert report.exhaustive
            assert_witnesses_exact(t, transform, report)
            if row != z_row:
                seen["unpinned"] += 1
                assert not report.membership_violations
            else:
                coupled = coupling != uncoupled
                seen["coupled" if coupled else _contraction_case(block)] += 1
                assert expected or report.membership_violations
    assert len(blocks) >= 300
    assert len(seen) == 8, seen


def test_ball_candidates_match_matrix_route():
    t = make_qubit()
    c, s = Fraction(3, 5), Fraction(4, 5)
    blocks = [
        [[1, 0], [0, 1]],
        [[c, -s], [s, c]],
        [[c, s], [-s, c]],
        [[1, 0], [0, -1]],
        [[c, s], [s, -c]],
    ]
    expected = tuple(embed_phase_block(t, mat(block)) for block in blocks)
    assert repr(ball_candidate_transforms(t)) == repr(expected)


def _ball_maps(rng):
    """Seeded qubit maps: pinned, pole-moving and unpinned ones."""
    t = make_qubit()
    small = Fraction(1, 1000)
    uncoupled, z_row = ((0, 0), (0, 0)), (0, 1, 0, 0)
    maps = []
    for i, block in enumerate(_ball_blocks(rng)):
        coupling = ((small, 0), (0, -small)) if i % 3 == 1 else uncoupled
        row = (0, 1, small, 0) if i % 3 == 2 else z_row
        maps.append(minimal_picture(t, qubit_t_exp(block, coupling, row)))

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    for _ in range(100):
        free_rows = tuple(tuple(entry() for _ in range(4)) for _ in range(2))
        maps.append(identity(4)[:2] + free_rows)
        maps.append(tuple(tuple(entry() for _ in range(4)) for _ in range(4)))
    return maps


def test_ball_reports_match_matrix_route():
    rng = random.Random(11)
    t = make_qubit()
    poles = {(1, 1, Fraction(1, 2), Fraction(1, 2)), (1, 0, Fraction(1, 2), Fraction(1, 2))}
    seen = Counter()
    for i, transform in enumerate(_ball_maps(rng)):
        branch = i % 2
        report = verify_transformation(t, transform, branch)
        expected = matrix_ball_verify(assemble_constraints(t, branch), transform)
        assert repr(report) == repr(expected)
        states = {state for state, _, _ in report.membership_violations}
        if not all(r == (0,) * 4 for r in report.branch_row_residuals):
            seen["unpinned"] += 1
        elif not states:
            seen["kept"] += 1
        elif states <= poles:
            seen["moving pole"] += 1
        else:
            seen["stretched"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_fixed_vector_residuals_detected():
    t = make_gbit()
    almost = mat([[1, 0, 0], [0, 1, 0], [0, "1/2", "1/2"]])
    report = verify_transformation(t, almost, 1)
    assert not report.residuals_zero
    assert not report.passed


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_transformation(make_gbit(), identity(4), 0)


def test_composition_closure():
    t = make_octahedron()
    stage = solve_linear_stage(assemble_constraints(t, 1))
    family = impose_state_preservation(t, stage)
    assert isinstance(family, PolytopeFamily)
    points = sample_family_points(family, 4, seed=9)
    members = [family_member(stage, p) for p in points]
    for first in members:
        for second in members:
            assert verify_transformation(t, matmul(first, second), 1).passed
    qt = make_qubit()
    candidates = ball_candidate_transforms(qt)
    product = matmul(candidates[1], candidates[3])
    assert verify_transformation(qt, product, 1).passed


def test_emitted_transforms_fix_all_fixed_vectors():
    t = make_octahedron()
    branch = 0
    cs = assemble_constraints(t, branch)
    ats = allowed_transform_set(t, branch)
    assert isinstance(ats.state_preserving, PolytopeFamily)
    for point in sample_family_points(ats.state_preserving, 6, seed=21):
        member = family_member(ats.linear_stage, point)
        for v in cs.fixed_vectors:
            assert matvec(member, v) == v
    qt = make_qubit()
    qcs = assemble_constraints(qt, 1)
    for transform in ball_candidate_transforms(qt):
        for v in qcs.fixed_vectors:
            assert matvec(transform, v) == v


def test_branch_row_constraint_equivalent_to_statistics_preservation():
    from gptdyn.theories import spanning_states

    t = make_octahedron()
    ats = allowed_transform_set(t, 1)
    assert isinstance(ats.state_preserving, PolytopeFamily)
    member = family_member(
        ats.linear_stage, sample_family_points(ats.state_preserving, 1, seed=2)[0]
    )
    for s in spanning_states(t):
        image = matvec(member, s)
        assert t.full_probabilities(image, "Z") == t.full_probabilities(s, "Z")
        assert image[0] == s[0]


# -- eigenvector counting --------------------------------------------------------------


def test_forced_eigenvector_counts():
    assert count_forced_eigenvectors(make_gbit(), 1) == 3
    assert count_forced_eigenvectors(make_qubit(), 1) == 2
    assert count_forced_eigenvectors(make_octahedron(), 1) == 2
    assert count_forced_eigenvectors(make_classical(2), 1) == 2


def test_boxworld_counts_match_dimension():
    for settings in (2, 3):
        for outcomes in (2, 3):
            t = make_boxworld(settings, outcomes)
            for branch in range(t.branch_outcomes):
                assert count_forced_eigenvectors(t, branch) == t.dim


def test_forced_fixed_count_is_fixed_rank_plus_one():
    # Both counts read rank F + 1; the reference adds the acting generator to F.
    rng = random.Random(909)
    theories = [build() for build in BUILTIN_BUILDERS.values()]
    theories += [make_boxworld(s, o) for s in (2, 3) for o in (2, 3)]
    theories += [random_v_theory(rng) for _ in range(12)]
    for t in theories:
        for branch in range(t.branch_outcomes):
            cs = assemble_constraints(t, branch)
            acting = conditional_state_set(t, branch).generators[0]
            expected = rank(cs.fixed_vectors + (acting,))
            assert count_forced_eigenvectors(t, branch) == expected
            assert allowed_transform_set(t, branch).forced_fixed_count == expected


# -- theorem-level checks ---------------------------------------------------------------


def test_theorem_gbit_frozen():
    report = verify_main_theorem(make_gbit(), "gbit")
    assert report.ok
    assert report.summary == "frozen: unique identity on every branch"


def test_theorem_qubit_dynamic():
    report = verify_main_theorem(make_qubit(), "qubit")
    assert report.ok
    assert report.summary == "non-classical dynamics present"


def test_theorem_classical_frozen():
    report = verify_main_theorem(make_classical(2), "classical2")
    assert report.ok
    assert report.summary == "frozen: unique identity on every branch"


def test_theorem_octahedron_partial_dynamics():
    report = verify_main_theorem(make_octahedron(), "octahedron")
    assert report.ok
    assert report.summary == "non-classical dynamics present"


def test_tradeoff_square_vs_octahedron():
    report = restriction_dynamics_tradeoff(
        make_octahedron(), make_gbit(), "octahedron", "square"
    )
    assert report.consistent
    assert report.restricted_dims == (1, 1)
    assert report.freer_dims == (0, 0)


def test_tradeoff_rejects_wrong_order():
    with pytest.raises(ValueError):
        restriction_dynamics_tradeoff(make_gbit(), make_octahedron())
