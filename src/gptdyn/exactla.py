"""Exact linear algebra over the rationals.

Everything in this package that touches a state vector or a transformation
matrix runs through these helpers.  The whole point of the library is to
decide questions like "is the identity the *only* allowed transformation?",
which is a degenerate question under floating point, so arithmetic is exact
and no rounding ever happens.  Values are :class:`fractions.Fraction`, but
the heavy loops keep integer rows (positive multiples of the rational rows,
made by :func:`scale_to_integers` and combined by :func:`int_combination`),
which gives the same answers at a fraction of the cost: the simplex tableau
in :mod:`gptdyn.simplex`, and :func:`int_echelon`, the one elimination
routine, behind :func:`rank`, :func:`nullspace`, :func:`solve_linear` and
double description in :mod:`gptdyn.polytopes`.  Dimensions are small, but
the solver runs these helpers and its exact LPs many times per question.

Vectors are tuples of ``Fraction`` and matrices are tuples of row vectors.
Tuples keep the values immutable, hashable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rat = Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, ``"p/q"`` string or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scale_to_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def int_combination(a: int, u: list[int], b: int, w: list[int]) -> list[int]:
    """``a*u - b*w`` for integer vectors, divided by the gcd of its entries."""
    out = [a * x - b * y for x, y in zip(u, w)]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def vec(values: Iterable[int | str | Fraction]) -> Vec:
    return tuple(rat(v) for v in values)


def mat(rows: Iterable[Iterable[int | str | Fraction]]) -> Mat:
    converted = tuple(vec(row) for row in rows)
    if converted:
        width = len(converted[0])
        for row in converted:
            if len(row) != width:
                raise ValueError("matrix rows must all have the same length")
    return converted


def zeros(length: int) -> Vec:
    return (ZERO,) * length


def unit(length: int, index: int) -> Vec:
    return tuple(ONE if i == index else ZERO for i in range(length))


def identity(size: int) -> Mat:
    return tuple(unit(size, i) for i in range(size))


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of length {len(u)} with length {len(v)}")
    return sum((x * y for x, y in zip(u, v)), ZERO)


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError("vector length mismatch in sub")
    return tuple(x - y for x, y in zip(u, v))


def is_zero_vec(u: Vec) -> bool:
    return all(x == 0 for x in u)


def matvec(a: Mat, x: Vec) -> Vec:
    rows, cols = shape(a)
    if cols != len(x):
        raise ValueError(f"matvec of {rows}x{cols} with length {len(x)}")
    return tuple(dot(row, x) for row in a)


def matmul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"matmul of {ra}x{ca} with {rb}x{cb}")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(a: Mat) -> Mat:
    rows, cols = shape(a)
    return tuple(tuple(a[i][j] for i in range(rows)) for j in range(cols))


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def int_echelon(
    rows: Sequence[Sequence[int]], width: int
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Fraction-free elimination of integer rows, one at a time in input order.

    Returns ``(picked, rays, kernel)``: the indices of the first independent
    rows (their number is the rank), one dual ray per picked row (positive
    on it, zero on the other picked rows), and a basis of the vectors
    orthogonal to every row, all gcd-reduced integer vectors.  A row with a
    nonzero product with some kernel vector takes the first such vector as
    its ray, which is eliminated from the others; it stops once the rank
    equals the width.  Kernel vector ``i`` ends at its own free column and
    is 0 at the others', so scaled to 1 there it is the reduced row echelon
    basis vector of that column, in column order.
    """
    kernel = [[int(i == j) for j in range(width)] for i in range(width)]
    rays: list[list[int]] = []
    picked: list[int] = []
    for k, row in enumerate(rows):
        if not kernel:
            break
        values = [int_dot(row, f) for f in kernel]
        pivot = next((i for i, v in enumerate(values) if v), None)
        if pivot is None:
            continue
        value = values.pop(pivot)
        ray = kernel.pop(pivot)
        if value < 0:
            value, ray = -value, [-x for x in ray]
        kernel = [int_combination(value, f, v, ray) for f, v in zip(kernel, values)]
        rays = [int_combination(value, r, int_dot(row, r), ray) for r in rays]
        rays.append(ray)
        picked.append(k)
    return picked, rays, kernel


def _int_rows(a: Mat) -> list[list[int]]:
    return [scale_to_integers(row)[0] for row in a]


def rank(a: Mat) -> int:
    picked, _, _ = int_echelon(_int_rows(a), shape(a)[1])
    return len(picked)


@dataclass(frozen=True)
class LinearSolution:
    """One solution of ``A x = b`` plus a basis of the homogeneous solutions."""

    particular: Vec
    nullspace_basis: tuple[Vec, ...]
    rank: int


def nullspace(a: Mat) -> tuple[Vec, ...]:
    """Basis of ``{x : A x = 0}``; empty iff the columns are independent.

    The reduced row echelon basis: one vector per free column, 1 there and
    0 at the other free columns, in column order.
    """
    _, _, kernel = int_echelon(_int_rows(a), shape(a)[1])
    basis = []
    for w in kernel:
        last = next(x for x in reversed(w) if x)
        basis.append(tuple(Fraction(x, last) for x in w))
    return tuple(basis)


def solve_linear(a: Mat, b: Vec) -> LinearSolution | None:
    """Exact solution of ``A x = b`` from the kernel of ``[A | -b]``.

    Returns the particular solution with all free variables set to zero
    together with the full nullspace basis, or ``None`` when the system is
    inconsistent.  The system is consistent exactly when the last column of
    ``[A | -b]`` is free; its kernel vector, the last one, is then
    ``(particular, 1)``, and the others end in 0 and are the nullspace
    basis of ``A``.
    """
    rows, cols = shape(a)
    if rows != len(b):
        raise ValueError(f"system of {rows} rows with rhs of length {len(b)}")
    augmented = tuple((*row, -rhs) for row, rhs in zip(a, b))
    # A matrix of no rows has no columns either; [A | -b] is then 0 x 1.
    kernel = nullspace(augmented) if rows else ((ONE,),)
    if not kernel or kernel[-1][cols] == 0:
        return None
    return LinearSolution(
        particular=kernel[-1][:cols],
        nullspace_basis=tuple(w[:cols] for w in kernel[:-1]),
        rank=cols + 1 - len(kernel),
    )


def affine_hull_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull: rank of differences from the first point."""
    if not points:
        raise ValueError("affine hull of an empty point set is undefined")
    width = len(points[0])
    for p in points:
        if len(p) != width:
            raise ValueError("points must share a common dimension")
    base = points[0]
    diffs = tuple(vec_sub(p, base) for p in points[1:])
    if not diffs:
        return 0
    return rank(diffs)
