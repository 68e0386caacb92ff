"""Exact conversion between polytope representations, and exact region tests.

Facet and vertex enumeration are one routine, the double description
method (Motzkin et al. 1953; Fukuda & Prodon, "Double description method
revisited", 1996), run on two cones: the cone of inequalities valid on a
vertex set has the facets as its extreme rays, and the homogenised cone of
a halfspace system has the vertices.  It starts from the simplicial cone
of the first independent input rows, which the shared integer elimination
:func:`gptdyn.exactla.int_echelon` picks, adds the other rows one at a time
and keeps only the extreme rays of the cone cut out so far, as gcd-reduced
integer vectors, so its cost follows the number of rays, not the number of
``dim``-subsets of the input: the 64 vertices of box-world (6,2) convert in
milliseconds.  ``MAX_ENUM_DIM`` bounds the dimension of both conversions,
since intermediate ray sets can grow exponentially with it.

:func:`slice_polytope` reads a halfspace region's vertices and boundedness
off one pass, with an exact LP only when the cone is not pointed.
:func:`implicit_equalities`, the solver's stage two, marks every row in the
span of the equalities found so far without an LP, and runs the exact LPs
it still needs on one integer :class:`~gptdyn.simplex.LpSystem`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactla import (
    Mat,
    ONE,
    Vec,
    ZERO,
    int_combination,
    int_dot,
    int_echelon,
    rank,
    scale_to_integers,
)
from .simplex import LpStatus, LpSystem, lp_optimize

MAX_ENUM_DIM = 6

Halfspace = tuple[Vec, Fraction]


class UnsupportedDimensionError(ValueError):
    """Raised when facet or vertex enumeration gets a dimension above ``MAX_ENUM_DIM``.

    The dimension is that of the normalised slice, one less than the minimal
    dimension of a theory, so theories up to minimal dimension 7 convert.
    """


def canonical_halfspace(normal: Sequence[Fraction], offset: Fraction) -> Halfspace:
    """Scale ``(a, b)`` by a positive rational so the entries are coprime integers."""
    ints, _ = scale_to_integers([*normal, offset])
    common = gcd(*ints)
    if common > 1:
        ints = [v // common for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def _extreme_rays(rows: Sequence[Sequence[Fraction]]) -> list[list[int]] | None:
    """Extreme rays of the cone ``{y : row . y >= 0 for every row}``.

    The double description method: start from the simplicial cone of the
    first ``n`` linearly independent rows (``n`` the width), whose extreme
    rays are the dual rays :func:`int_echelon` returns, then add the other
    rows one at a time in input order.  A row keeps the rays on its
    nonnegative side; each ray ``p`` on its positive side and ray ``q`` on its
    negative side that are adjacent give the new ray
    ``(row.p)*q - (row.q)*p`` on the row's hyperplane.  Two rays are adjacent
    when no third ray is zero on every row they are both zero on (the exact
    combinatorial test); zero sets are bitmasks over the rows added so far.
    Each ray is a gcd-reduced integer vector, so it is unique.  Rows are
    scaled to integers first; the result is ``None`` when the rows do not
    span the space (the cone is not pointed).
    """
    ints = [scale_to_integers(row)[0] for row in rows]
    n = len(ints[0])
    picked, rays, kernel = int_echelon(ints, n)
    if kernel:
        return None
    later = sorted(set(range(len(ints))).difference(picked))
    all_picked = sum(1 << k for k in picked)
    zeros = [all_picked & ~(1 << k) for k in picked]
    for k in later:
        row = ints[k]
        bit = 1 << k
        values = [int_dot(row, r) for r in rays]
        new_rays = [r for r, v in zip(rays, values) if v >= 0]
        new_zeros = [z | bit if v == 0 else z for z, v in zip(zeros, values) if v >= 0]
        negative = [q for q, v in enumerate(values) if v < 0]
        for p, vp in enumerate(values):
            if vp <= 0:
                continue
            for q in negative:
                common = zeros[p] & zeros[q]
                # Adjacent rays span a 2-face, cut out by >= n - 2 rows.
                if common.bit_count() < n - 2:
                    continue
                if any(
                    common & z == common
                    for r, z in enumerate(zeros)
                    if r != p and r != q
                ):
                    continue
                new_rays.append(int_combination(vp, rays[q], values[q], rays[p]))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    return rays


def facet_enumeration(vertices: Sequence[Vec]) -> list[Halfspace]:
    """Irredundant H-representation of the convex hull of full-dimensional input.

    The facets ``b - a . x >= 0`` are the extreme rays ``(b, -a)`` of the
    cone of inequalities valid on every vertex, found by
    :func:`_extreme_rays`; each ray is already coprime, as
    :func:`canonical_halfspace` would make it.  Duplicate and interior
    points are allowed.  The rows ``(1, v)`` span exactly when the vertices
    affinely span the space, so a cone that is not pointed means flat input.
    Each returned pair ``(a, b)`` means ``a . x <= b``.
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
    rays = _extreme_rays([(ONE, *v) for v in vertices])
    if rays is None:
        raise ValueError(
            "vertices do not affinely span the ambient space; "
            "enumerate within coordinates of the affine hull instead"
        )
    if dim == 0:
        # A point has no facets; the ray found is the trivial 0 <= 1.
        return []
    # Every (a, b) is an integer row, so sorting the integers sorts the pairs.
    facets = sorted((tuple(-c for c in y[1:]), y[0]) for y in rays)
    return [(tuple(map(Fraction, a)), Fraction(b)) for a, b in facets]


def slice_polytope(halfspaces: Sequence[Halfspace]) -> tuple[list[Vec], bool]:
    """Vertices of ``{x : a . x <= b}``, and whether the region is bounded.

    Both are read off the :func:`_extreme_rays` ``(t, x)`` of the homogenised
    cone ``{t >= 0, b t - a . x >= 0}``: ``x / t`` is a vertex when ``t > 0``
    and ``x`` a direction of an unbounded region when ``t = 0``.  No vertex
    of a pointed cone means an empty region, which is bounded; a cone that is
    not pointed takes one LP to tell an empty region from one with a line.
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
    rows = [(ONE,) + (ZERO,) * dim] + [(b, *(-x for x in a)) for a, b in halfspaces]
    rays = _extreme_rays(rows)
    if rays is None:
        result = lp_optimize((ZERO,) * dim, ineq=tuple(zip(*halfspaces)))
        return [], result.status is LpStatus.INFEASIBLE
    points = [y for y in rays if y[0] > 0]
    # x / t over one common denominator: the integers x * (L // t) sort as the vertices.
    common = lcm(*(y[0] for y in points))
    points.sort(key=lambda y: [x * (common // y[0]) for x in y[1:]])
    vertices = [tuple(Fraction(x, y[0]) for x in y[1:]) for y in points]
    return vertices, not vertices or len(vertices) == len(rays)


def vertex_enumeration(halfspaces: Sequence[Halfspace]) -> list[Vec]:
    """All vertices of ``{x : a . x <= b}``; ``[]`` if it is empty or has a line."""
    return slice_polytope(halfspaces)[0]


def is_bounded(halfspaces: Sequence[Halfspace]) -> bool:
    """Whether ``{x : a . x <= b}`` is bounded (an empty region is, no rows are not)."""
    return bool(halfspaces) and slice_polytope(halfspaces)[1]


def _slacks(scaled: list[tuple[list[int], int]], point: Vec) -> list[int]:
    """``rhs - row . point`` per integer ``(row, rhs)``, times a positive factor."""
    ints, denom = scale_to_integers(point)
    return [rhs * denom - int_dot(row, ints) for row, rhs in scaled]


def implicit_equalities(
    a: Mat, b: Vec, points: Sequence[Vec] = ()
) -> tuple[list[int], list[Vec]]:
    """Indices of the rows of a nonempty ``{x : A x <= b}`` tight on all of it.

    Rows are decided in order.  A row strict at a known member is no
    equality.  A row whose ``(a_i, -b_i)`` lies in the span of the equalities
    found so far is one: it is orthogonal to every vector of their integer
    kernel.  Any other row is minimised by an exact LP, all on one
    :class:`LpSystem`; an optimum below its bound adds the optimal vertex to
    the known members and to the returned ones, so every other row is strict
    at one of ``points`` or of those.  ``points`` are members the caller
    already has; one outside the region raises ``ValueError``.
    """
    scaled = []
    for row, rhs in zip(a, b):
        ints, _ = scale_to_integers([*row, rhs])
        scaled.append((ints[:-1], ints[-1]))
    strict = [False] * len(a)
    for point in points:
        for i, slack in enumerate(_slacks(scaled, point)):
            if slack < 0:
                raise ValueError(f"point {point} violates row {i} of the region")
            strict[i] = strict[i] or slack > 0
    equalities: list[int] = []
    members: list[Vec] = []
    system = None
    augmented = [[*row, -rhs] for row, rhs in scaled]
    # The integer kernel of the equalities' augmented rows: at first, everything.
    width = len(a[0]) + 1 if a else 0
    kernel = int_echelon([], width)[2]
    for i, (row, rhs) in enumerate(zip(a, b)):
        if strict[i]:
            continue
        if not any(int_dot(augmented[i], f) for f in kernel):
            equalities.append(i)
            continue
        if system is None:
            system = LpSystem(len(row), ineq=(a, b))
        result = system.optimize(row, sense="min")
        if result.status is not LpStatus.OPTIMAL:
            continue
        if result.optimum == rhs:
            equalities.append(i)
            kernel = int_echelon([augmented[j] for j in equalities], width)[2]
            continue
        members.append(result.witness)
        for j, slack in enumerate(_slacks(scaled[i + 1 :], result.witness), i + 1):
            strict[j] = strict[j] or slack > 0
    return equalities, members


def feasible_region_dim(a: Mat, b: Vec, nvars: int, points: Sequence[Vec] = ()) -> int:
    """Affine dimension of a nonempty ``{x : A x <= b}``: nvars less its equalities' rank."""
    return nvars - rank(tuple(a[i] for i in implicit_equalities(a, b, points)[0]))
