"""Brute-force exact conversion between polytope representations.

Facet and vertex enumeration here are deliberately naive: candidate
hyperplanes (respectively candidate vertices) are read off every
``dim``-element subset of the input, then filtered by support.  Every
halfspace and vertex is exact, but the cost grows with the number of
subsets: the 32 vertices of box-world (5,2), in dimension 5, took 144 s
to convert on a 2-core VM.  ``MAX_ENUM_DIM`` caps the dimension.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from .exactla import (
    Mat,
    ONE,
    Vec,
    ZERO,
    affine_hull_dim,
    dot,
    nullspace,
    rank,
    solve_linear,
)
from .simplex import LpStatus, lp_optimize

MAX_ENUM_DIM = 6

Halfspace = tuple[Vec, Fraction]


class UnsupportedDimensionError(ValueError):
    """Raised when brute-force enumeration would run beyond ``MAX_ENUM_DIM``."""


def canonical_halfspace(normal: Sequence[Fraction], offset: Fraction) -> Halfspace:
    """Scale ``(a, b)`` by a positive rational so the entries are coprime integers."""
    denom_lcm = 1
    for v in list(normal) + [offset]:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in normal] + [int(offset * denom_lcm)]
    common = 0
    for v in ints:
        common = gcd(common, abs(v))
    if common > 1:
        ints = [v // common for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def facet_enumeration(vertices: Sequence[Vec]) -> list[Halfspace]:
    """Irredundant H-representation of the convex hull of full-dimensional input.

    Every ``dim``-subset of vertices that spans a unique hyperplane is
    tested for support; supporting hyperplanes are exactly the facets when
    the vertices affinely span the ambient space.  Each returned pair
    ``(a, b)`` means ``a . x <= b``.
    """
    if not vertices:
        raise ValueError("facet enumeration needs at least one vertex")
    dim = len(vertices[0])
    for v in vertices:
        if len(v) != dim:
            raise ValueError("vertices must share a common dimension")
    if dim > MAX_ENUM_DIM:
        raise UnsupportedDimensionError(
            f"facet enumeration supports dimension <= {MAX_ENUM_DIM}, got {dim}"
        )
    if affine_hull_dim(vertices) != dim:
        raise ValueError(
            "vertices do not affinely span the ambient space; "
            "enumerate within coordinates of the affine hull instead"
        )
    found: set[Halfspace] = set()
    for subset in combinations(range(len(vertices)), dim):
        rows = tuple(vertices[i] + (-ONE,) for i in subset)
        kernel = nullspace(rows)
        if len(kernel) != 1:
            continue
        normal, offset = kernel[0][:dim], kernel[0][dim]
        slacks = [dot(normal, v) - offset for v in vertices]
        if all(s <= 0 for s in slacks):
            found.add(canonical_halfspace(normal, offset))
        elif all(s >= 0 for s in slacks):
            found.add(canonical_halfspace([-v for v in normal], -offset))
    return sorted(found)


def vertex_enumeration(halfspaces: Sequence[Halfspace]) -> list[Vec]:
    """All vertices of ``{x : a . x <= b}``, assumed bounded and full-dimensional.

    Dual counterpart of :func:`facet_enumeration`: intersect every
    ``dim``-subset of boundary hyperplanes and keep the points satisfying
    all constraints.
    """
    if not halfspaces:
        raise ValueError("vertex enumeration needs at least one halfspace")
    dim = len(halfspaces[0][0])
    for a, _ in halfspaces:
        if len(a) != dim:
            raise ValueError("halfspace normals must share a common dimension")
    if dim > MAX_ENUM_DIM:
        raise UnsupportedDimensionError(
            f"vertex enumeration supports dimension <= {MAX_ENUM_DIM}, got {dim}"
        )
    found: set[Vec] = set()
    for subset in combinations(range(len(halfspaces)), dim):
        a_rows = tuple(halfspaces[i][0] for i in subset)
        b_vals = tuple(halfspaces[i][1] for i in subset)
        solution = solve_linear(a_rows, b_vals)
        if solution is None or solution.nullspace_basis:
            continue
        point = solution.particular
        if all(dot(a, point) <= b for a, b in halfspaces):
            found.add(point)
    return sorted(found)


def is_bounded(halfspaces: Sequence[Halfspace]) -> bool:
    """Exact boundedness test: each coordinate admits a finite max and min."""
    if not halfspaces:
        return False
    dim = len(halfspaces[0][0])
    a = tuple(h[0] for h in halfspaces)
    b = tuple(h[1] for h in halfspaces)
    for i in range(dim):
        axis = tuple(ONE if j == i else ZERO for j in range(dim))
        for sense in ("max", "min"):
            result = lp_optimize(axis, ineq=(a, b), sense=sense)
            if result.status is LpStatus.UNBOUNDED:
                return False
    return True


def feasible_region_dim(
    a: Mat, b: Vec, nvars: int, points: Sequence[Vec] = ()
) -> int:
    """Affine dimension of a nonempty region ``{x : A x <= b}``.

    Found by detecting the implicit equality rows (rows whose slack is zero
    over the whole region); the affine hull is their common solution set.
    A row strict at a known member of the region is no implicit equality.
    Every other row is decided by one exact LP, whose optimal vertex joins
    the known members.  ``points`` are members the caller already has; each
    is checked against every row, and one outside the region raises
    ``ValueError``.
    """
    if not a:
        return nvars
    strict = [False] * len(a)
    for point in points:
        for i, (row, rhs) in enumerate(zip(a, b)):
            value = dot(row, point)
            if value > rhs:
                raise ValueError(f"point {point} violates row {i} of the region")
            strict[i] = strict[i] or value < rhs
    equality_rows: list[Vec] = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        if strict[i]:
            continue
        result = lp_optimize(row, ineq=(a, b), sense="min")
        if result.status is not LpStatus.OPTIMAL:
            continue
        if result.optimum == rhs:
            equality_rows.append(row)
            continue
        vertex = result.witness
        for j in range(i + 1, len(a)):
            strict[j] = strict[j] or dot(a[j], vertex) < b[j]
    if not equality_rows:
        return nvars
    return nvars - rank(tuple(equality_rows))
