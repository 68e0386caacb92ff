"""Exact linear algebra unit tests."""

from collections import Counter
from fractions import Fraction
import random

import pytest

from helpers import fraction_nullspace, fraction_rank, fraction_solve_linear

from gptdyn.exactla import (
    LinearSolution,
    affine_hull_dim,
    dot,
    identity,
    is_zero_vec,
    mat,
    matmul,
    matvec,
    nullspace,
    rank,
    shape,
    solve_linear,
    transpose,
    unit,
    vec,
    vec_sub,
    zeros,
)


def test_vec_and_mat_coerce_strings_and_ints():
    v = vec(["1/2", 2, Fraction(3, 4)])
    assert v == (Fraction(1, 2), Fraction(2), Fraction(3, 4))
    m = mat([[1, 0], ["-1/3", "2"]])
    assert m[1][0] == Fraction(-1, 3)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        dot(vec([1, 2]), vec([1]))
    with pytest.raises(ValueError):
        matvec(identity(2), vec([1, 2, 3]))
    with pytest.raises(ValueError):
        matmul(identity(2), mat([[1, 2]]))
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])


def test_solve_scalar():
    solution = solve_linear(mat([[2]]), vec([1]))
    assert solution is not None
    assert solution.particular == vec(["1/2"])
    assert solution.nullspace_basis == ()


def test_solve_identity_picks_unit_vector():
    solution = solve_linear(identity(3), unit(3, 1))
    assert solution is not None
    assert solution.particular == unit(3, 1)
    assert solution.nullspace_basis == ()
    assert solution.rank == 3


def test_solve_underdetermined_checked_by_multiplication():
    a = mat([[1, 1]])
    b = vec([1])
    solution = solve_linear(a, b)
    assert solution is not None
    # Oracle: both returned vectors are verified against A directly.
    assert matvec(a, solution.particular) == b
    assert len(solution.nullspace_basis) == 1
    basis_vec = solution.nullspace_basis[0]
    assert matvec(a, basis_vec) == zeros(1)
    assert not is_zero_vec(basis_vec)
    # The kernel of [1 1] is spanned by (1, -1).
    assert basis_vec[0] == -basis_vec[1]


def test_solve_inconsistent_returns_none():
    assert solve_linear(mat([[1], [1]]), vec([0, 1])) is None


def test_nullspace_trivial_and_full():
    assert nullspace(identity(4)) == ()
    kernel = nullspace(mat([[0, 0, 0], [0, 0, 0]]))
    assert len(kernel) == 3
    assert rank(kernel) == 3


def test_nullspace_checked_by_multiplication():
    a = mat([[1, 1, 0], [0, 0, 1]])
    kernel = nullspace(a)
    assert len(kernel) == 1
    for basis_vec in kernel:
        assert matvec(a, basis_vec) == zeros(2)
    assert kernel[0][2] == 0 and kernel[0][0] == -kernel[0][1]


def test_random_systems_roundtrip_exactly():
    rng = random.Random(20240117)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = mat(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        x = vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)])
        b = matvec(a, x)
        solution = solve_linear(a, b)
        assert solution is not None
        assert matvec(a, solution.particular) == b
        for basis_vec in solution.nullspace_basis:
            assert matvec(a, basis_vec) == zeros(rows)
        assert len(solution.nullspace_basis) == cols - solution.rank


def _entry(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((0, 0, 1, -1, rng.randint(-5, 5))), rng.randint(1, 4))


def _low_rank_matrix(rng: random.Random, rows: int, cols: int):
    """A rows x k times k x cols product of random factors, so of rank <= k."""
    inner = rng.randint(0, max(rows, cols))
    left = [[_entry(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[_entry(rng) for _ in range(cols)] for _ in range(inner)]
    return tuple(
        tuple(sum((x * y[j] for x, y in zip(row, right)), Fraction(0)) for j in range(cols))
        for row in left
    )


def test_elimination_matches_fraction_reference():
    # Rank, kernel basis (values and order), solutions and affine dimension
    # from the integer echelon routine equal those of the Fraction reference.
    assert solve_linear((), ()) == fraction_solve_linear((), ()) == LinearSolution((), (), 0)
    rng = random.Random(6060)
    kinds = Counter()
    for _ in range(400):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        a = _low_rank_matrix(rng, rows, cols)
        r = fraction_rank(a)
        assert rank(a) == r
        assert nullspace(a) == fraction_nullspace(a)
        x = tuple(_entry(rng) for _ in range(shape(a)[1]))
        for b in (matvec(a, x), tuple(_entry(rng) for _ in range(rows))):
            expected = fraction_solve_linear(a, b)
            assert solve_linear(a, b) == expected
            kinds["inconsistent" if expected is None else "consistent"] += 1
        if rows:
            diffs = tuple(vec_sub(p, a[0]) for p in a[1:])
            assert affine_hull_dim(a) == fraction_rank(diffs)
        kinds["rank-deficient" if r < min(rows, cols) else "full rank"] += 1
        if not rows or not cols:
            kinds["zero-row" if not rows else "zero-width"] += 1
        kinds["tall" if rows > cols else "wide" if rows < cols else "square"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_transpose_and_matmul_agree_with_hand_result():
    a = mat([[1, 2], [3, 4]])
    b = mat([["1/2", 0], [1, 1]])
    assert matmul(a, b) == mat([["5/2", 2], ["11/2", 4]])
    assert transpose(a) == mat([[1, 3], [2, 4]])


def test_affine_hull_dim_examples():
    assert affine_hull_dim([vec([1, 2, 3])]) == 0
    assert affine_hull_dim([vec([0, 0]), vec([1, 0]), vec([0, 1])]) == 2
    # Branch-certain square corners (n, <Z>, <X>) = (1, 1, +-1) span a line.
    assert affine_hull_dim([vec([1, 1, 1]), vec([1, 1, -1])]) == 1


def test_affine_hull_dim_permutation_invariant():
    rng = random.Random(7)
    points = [
        vec([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])
        for _ in range(6)
    ]
    reference = affine_hull_dim(points)
    for _ in range(10):
        shuffled = points[:]
        rng.shuffle(shuffled)
        assert affine_hull_dim(shuffled) == reference


def test_affine_hull_dim_empty_raises():
    with pytest.raises(ValueError):
        affine_hull_dim([])


def test_vec_sub_exact():
    assert vec_sub(vec(["1/3", 1]), vec(["1/6", "1/2"])) == vec(["1/6", "1/2"])
