"""Exact LP kernel tests; derived expectations use vertex enumeration oracles,
and the integer-row tableau is checked against the rational-row one."""

from collections import Counter
from fractions import Fraction
from itertools import product
import random

import pytest

from gptdyn.exactla import dot, identity, mat, matvec, vec
from gptdyn.simplex import LpStatus, LpSystem, lp_optimize, stochastic_fixed_point
from gptdyn.solver import assemble_constraints, impose_state_preservation, solve_linear_stage
from gptdyn.theories import BUILTIN_BUILDERS, PolytopeStateSpace, make_boxworld

from helpers import assert_lps_match_fraction_reference, fraction_lp_optimize, record_lps


def test_maximize_on_unit_interval():
    result = lp_optimize(
        vec([1]), ineq=(mat([[1], [-1]]), vec([1, 0])), sense="max"
    )
    assert result.status is LpStatus.OPTIMAL
    assert result.optimum == 1
    assert result.witness == vec([1])


def test_infeasible_interval():
    # x <= 0 and x >= 1 cannot both hold.
    result = lp_optimize(vec([1]), ineq=(mat([[1], [-1]]), vec([0, -1])), sense="max")
    assert result.status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    result = lp_optimize(vec([1]), ineq=(mat([[-1]]), vec([0])), sense="max")
    assert result.status is LpStatus.UNBOUNDED


def test_square_objective_matches_vertex_oracle():
    # Oracle: enumerate the four corners of |x| <= 1, |z| <= 1 directly.
    corners = [vec([sx, sz]) for sx, sz in product((-1, 1), repeat=2)]
    oracle = max(x + z for x, z in corners)
    assert oracle == 2
    box = (
        mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
        vec([1, 1, 1, 1]),
    )
    result = lp_optimize(vec([1, 1]), ineq=box, sense="max")
    assert result.status is LpStatus.OPTIMAL
    assert result.optimum == oracle
    assert result.witness == vec([1, 1])


def test_min_max_negation_symmetry():
    box = (
        mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
        vec([1, 2, 3, 4]),
    )
    objective = vec(["2/3", "-1/5"])
    direct = lp_optimize(objective, ineq=box, sense="max")
    flipped = lp_optimize(vec([-c for c in objective]), ineq=box, sense="min")
    assert direct.status is flipped.status is LpStatus.OPTIMAL
    assert direct.optimum == -flipped.optimum


def test_equality_constraints_respected():
    # Maximize x + 2y on the probability simplex.
    result = lp_optimize(
        vec([1, 2]),
        eq=(mat([[1, 1]]), vec([1])),
        ineq=(mat([[-1, 0], [0, -1]]), vec([0, 0])),
        sense="max",
    )
    assert result.status is LpStatus.OPTIMAL
    assert result.optimum == 2
    assert result.witness == vec([0, 1])


def test_negative_rhs_rows_need_artificials():
    # x >= 2 written as -x <= -2, maximize -x.
    result = lp_optimize(vec([-1]), ineq=(mat([[-1]]), vec([-2])), sense="max")
    assert result.status is LpStatus.OPTIMAL
    assert result.optimum == -2


def test_degenerate_cycling_guard():
    # A classic degenerate instance; Bland's rule must terminate.
    a = mat(
        [
            ["1/4", -8, -1, 9],
            ["1/2", -12, "-1/2", 3],
            [0, 0, 1, 0],
        ]
    )
    b = vec([0, 0, 1])
    result = lp_optimize(
        vec(["3/4", -20, "1/2", -6]),
        ineq=(a, b),
        sense="max",
    )
    assert result.status is LpStatus.UNBOUNDED


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        lp_optimize(vec([1, 2]), ineq=(mat([[1]]), vec([1])))
    with pytest.raises(ValueError):
        lp_optimize(vec([1]), eq=(mat([[1]]), vec([1, 2])))
    with pytest.raises(ValueError):
        lp_optimize(vec([1]), sense="upwards")


def test_fixed_point_identity_contract():
    v = stochastic_fixed_point(identity(2))
    assert sum(v) == 1 and all(x >= 0 for x in v)
    assert matvec(identity(2), v) == v


def test_fixed_point_swap_matrix():
    swap = mat([[0, 1], [1, 0]])
    assert stochastic_fixed_point(swap) == vec(["1/2", "1/2"])


def test_fixed_point_checked_by_multiplication():
    s = mat([["1/2", "1/4"], ["1/2", "3/4"]])
    v = stochastic_fixed_point(s)
    # Oracle: verify S v = v by direct multiplication, then pin the value.
    assert matvec(s, v) == v
    assert v == vec(["1/3", "2/3"])


def test_fixed_point_rejects_non_stochastic():
    with pytest.raises(ValueError):
        stochastic_fixed_point(mat([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        stochastic_fixed_point(mat([[2, 0], [-1, 1]]))
    with pytest.raises(ValueError):
        stochastic_fixed_point(mat([[1, 0, 0], [0, 1, 0]]))


def _random_column_stochastic(rng: random.Random, size: int):
    columns = []
    for _ in range(size):
        weights = [Fraction(rng.randint(0, 6)) for _ in range(size)]
        if sum(weights) == 0:
            weights[rng.randrange(size)] = Fraction(1)
        total = sum(weights)
        columns.append([w / total for w in weights])
    return mat([[columns[j][i] for j in range(size)] for i in range(size)])


def test_fixed_point_contract_on_random_matrices():
    rng = random.Random(99)
    for _ in range(25):
        size = rng.randint(1, 5)
        s = _random_column_stochastic(rng, size)
        v = stochastic_fixed_point(s)
        assert matvec(s, v) == v
        assert sum(v) == 1
        assert all(x >= 0 for x in v)


def _rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 12))


def _mixed_lp(rng: random.Random):
    """A small LP around a random point: mixed rows, ties, redundancy, contradictions."""
    nvars = rng.randint(1, 4)
    point = [_rational(rng) for _ in range(nvars)]
    eq_rows, eq_rhs = [], []
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        row = [_rational(rng) for _ in range(nvars)]
        eq_rows.append(row)
        eq_rhs.append(dot(row, point))
    if eq_rows and rng.random() < 0.4:
        # A redundant equality, a multiple of another or the sum of two: phase 1 drops a row.
        i, j = rng.randrange(len(eq_rows)), rng.randrange(len(eq_rows))
        q = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
        eq_rows.append([q * x + y for x, y in zip(eq_rows[i], eq_rows[j])])
        eq_rhs.append(q * eq_rhs[i] + eq_rhs[j])
    in_rows, in_rhs = [], []
    for _ in range(rng.randint(0, 7)):
        row = [_rational(rng) for _ in range(nvars)]
        # Zero slack makes degenerate vertices and ratio ties; negative slack
        # cuts the point off and gives negative right-hand sides.
        slack = rng.choice((0, 0, Fraction(rng.randint(-3, 6), rng.randint(1, 12))))
        in_rows.append(row)
        in_rhs.append(dot(row, point) + slack)
    if in_rows and rng.random() < 0.3:
        k = rng.randrange(len(in_rows))
        in_rows.append([2 * x for x in in_rows[k]])
        in_rhs.append(2 * in_rhs[k])
    if in_rows and rng.random() < 0.1:
        k = rng.randrange(len(in_rows))
        in_rows.append([-x for x in in_rows[k]])
        in_rhs.append(-in_rhs[k] - 1)
    if rng.random() < 0.5:
        for i in range(nvars):
            for sign in (1, -1):
                in_rows.append([Fraction(sign) if j == i else Fraction(0) for j in range(nvars)])
                in_rhs.append(sign * point[i] + rng.randint(0, 3))
    objective = vec([_rational(rng) for _ in range(nvars)])
    eq = (mat(eq_rows), vec(eq_rhs)) if eq_rows else None
    ineq = (mat(in_rows), vec(in_rhs)) if in_rows else None
    return objective, eq, ineq, rng.choice(("max", "min"))


def _face_lp(rng: random.Random):
    """Rows through the origin inside a box, pushed along two rows at once.

    The origin is a degenerate vertex, so the ratio test ties at 0; when both
    pushed rows are tight at the optimum the optima form a face, and the
    pivot path decides which point of it is the witness.
    """
    nvars = rng.randint(3, 4)
    rows = [
        [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(nvars)]
        for _ in range(rng.randint(2, 5))
    ]
    rhs = [Fraction(0)] * len(rows)
    for i in range(nvars):
        for sign in (1, -1):
            rows.append([Fraction(sign) if j == i else Fraction(0) for j in range(nvars)])
            rhs.append(Fraction(1))
    i, j = rng.sample(range(len(rows)), 2)
    objective = vec([x + y for x, y in zip(rows[i], rows[j])])
    if rng.random() < 0.5:
        return vec([-x for x in objective]), None, (mat(rows), vec(rhs)), "min"
    return objective, None, (mat(rows), vec(rhs)), "max"


def _assert_same_as_reference(objective, eq, ineq, sense):
    got = lp_optimize(objective, eq=eq, ineq=ineq, sense=sense)
    want = fraction_lp_optimize(objective, eq=eq, ineq=ineq, sense=sense)
    assert repr(got) == repr(want), (objective, eq, ineq, sense)
    return got


def _seeded_lps():
    rng = random.Random(2024)
    for k in range(200):
        yield _face_lp(rng) if k % 5 < 2 else _mixed_lp(rng)


def test_integer_tableau_matches_rational_tableau_on_random_lps():
    statuses = Counter()
    for lp in _seeded_lps():
        statuses[_assert_same_as_reference(*lp).status] += 1
    assert min(statuses[s] for s in LpStatus) >= 15, statuses


def test_one_system_answers_like_fresh_lps():
    # Several objectives on one system, in turn: a pivot leaking from one
    # optimisation into the next would change a later result.
    rng = random.Random(7)
    for objective, eq, ineq, sense in _seeded_lps():
        nvars = len(objective)
        system = LpSystem(nvars, eq, ineq)
        other = vec([_rational(rng) for _ in range(nvars)])
        runs = [(objective, sense), (other, rng.choice(("max", "min")))]
        runs += [(row, "min") for row in (ineq[0] if ineq else ())[:2]]
        runs.append((objective, sense))
        for c, direction in runs:
            fresh = lp_optimize(c, eq=eq, ineq=ineq, sense=direction)
            assert repr(system.optimize(c, direction)) == repr(fresh), (c, eq, ineq, direction)


def test_system_checks_its_inputs():
    with pytest.raises(ValueError, match="columns"):
        LpSystem(2, ineq=(mat([[1]]), vec([1])))
    system = LpSystem(1, ineq=(mat([[1]]), vec([1])))
    with pytest.raises(ValueError, match="entries"):
        system.optimize(vec([1, 2]))
    with pytest.raises(ValueError, match="sense"):
        system.optimize(vec([1]), sense="upwards")
    # An infeasible system answers every objective the same.
    empty = LpSystem(1, ineq=(mat([[1], [-1]]), vec([0, -1])))
    for sense in ("max", "min"):
        assert empty.optimize(vec([1]), sense).status is LpStatus.INFEASIBLE


def _recorded_state_preservation_lps(t, monkeypatch):
    calls = record_lps(monkeypatch)
    for branch in range(t.branch_outcomes):
        impose_state_preservation(t, solve_linear_stage(assemble_constraints(t, branch)))
    return calls


SOLVER_THEORIES = {
    **{
        name: build
        for name, build in BUILTIN_BUILDERS.items()
        if isinstance(build().state_space, PolytopeStateSpace)
    },
    "boxworld(2,3)": lambda: make_boxworld(2, 3),
    "boxworld(3,3)": lambda: make_boxworld(3, 3),
}


@pytest.mark.parametrize("name", sorted(SOLVER_THEORIES))
def test_integer_tableau_matches_rational_tableau_on_solver_lps(name, monkeypatch):
    calls = _recorded_state_preservation_lps(SOLVER_THEORIES[name](), monkeypatch)
    # The classical bit's linear stage has no free direction, so no LP.
    assert bool(calls) == (name != "classical2")
    assert_lps_match_fraction_reference(calls)
