"""Exact linear algebra over the rationals.

Everything in this package that touches a state vector or a transformation
matrix runs through these helpers.  The whole point of the library is to
decide questions like "is the identity the *only* allowed transformation?",
which is a degenerate question under floating point, so arithmetic is exact
and no rounding ever happens.  These helpers work in
:class:`fractions.Fraction`; the simplex tableau in :mod:`gptdyn.simplex`
and the double description routine in :mod:`gptdyn.polytopes` keep integer
rows instead (positive multiples of the rational rows, made by
:func:`scale_to_integers` and combined by :func:`int_combination`), which
gives the same answers at a fraction of the cost.  Dimensions are small,
but the solver runs these helpers and its exact LPs many times per
question, so their cost shows end to end.

Vectors are tuples of ``Fraction`` and matrices are tuples of row vectors.
Tuples keep the values immutable, hashable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError("vector length mismatch in add")
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError("vector length mismatch in sub")
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(u: Vec, s: Fraction | int) -> Vec:
    factor = rat(s)
    return tuple(factor * x for x in u)


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


def mat_add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError("matrix shape mismatch in add")
    return tuple(vec_add(ra, rb) for ra, rb in zip(a, b))


def mat_scale(a: Mat, s: Fraction | int) -> Mat:
    return tuple(vec_scale(row, s) for row in a)


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the reduced rows and pivot columns."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    height, width = len(m), len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(width):
        pivot = next((r for r in range(row, height) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(height):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == height:
            break
    return m, pivots


def rank(a: Mat) -> int:
    _, pivots = _rref(a)
    return len(pivots)


@dataclass(frozen=True)
class LinearSolution:
    """One solution of ``A x = b`` plus a basis of the homogeneous solutions."""

    particular: Vec
    nullspace_basis: tuple[Vec, ...]
    rank: int


def nullspace(a: Mat) -> tuple[Vec, ...]:
    """Basis of ``{x : A x = 0}``; empty iff the columns are independent."""
    rows, cols = shape(a)
    if rows == 0 or cols == 0:
        return tuple(identity(cols)) if cols else ()
    reduced, pivots = _rref(a)
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        entry = [ZERO] * cols
        entry[free] = ONE
        for row, piv in zip(reduced, pivots):
            entry[piv] = -row[free]
        basis.append(tuple(entry))
    return tuple(basis)


def solve_linear(a: Mat, b: Vec) -> LinearSolution | None:
    """Exact Gaussian elimination on ``A x = b``.

    Returns the particular solution with all free variables set to zero
    together with the full nullspace basis, or ``None`` when the system is
    inconsistent.
    """
    rows, cols = shape(a)
    if rows != len(b):
        raise ValueError(f"system of {rows} rows with rhs of length {len(b)}")
    augmented = [list(row) + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = _rref(augmented)
    if cols in pivots:
        return None
    particular = [ZERO] * cols
    for row, piv in zip(reduced, pivots):
        particular[piv] = row[cols]
    return LinearSolution(
        particular=tuple(particular),
        nullspace_basis=nullspace(a),
        rank=len(pivots),
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
