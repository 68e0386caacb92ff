"""Independent exact answers the benchmark checks gptdyn's outputs against.

Nothing here imports gptdyn: the reference conversions are a separate
exhaustive brute force over ``fractions.Fraction``, and the map checker
decides membership of vertex images directly from the facets.  Each
function returns a canonical, sorted answer so it can be compared for
equality with what gptdyn reports.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def row_reduce(rows):
    """Reduced row echelon form of a list of rows; returns (rows, pivot columns)."""
    m = [list(r) for r in rows]
    pivots = []
    top = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        piv = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        inv = 1 / m[top][col]
        m[top] = [v * inv for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
        top += 1
    return m[:top], pivots


def rank(rows) -> int:
    return len(row_reduce(rows)[1]) if rows else 0


def affine_dim(points) -> int:
    return rank([tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]])


def _canonical(normal, offset):
    """Scale ``normal . x <= offset`` to coprime integers (positive factor)."""
    values = list(normal) + [offset]
    lcm = 1
    for v in values:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in values]
    common = 0
    for v in ints:
        common = gcd(common, abs(v))
    ints = [v // common for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def cone_row(normal, offset):
    """Homogenise slice halfspace ``a . y <= b`` to the cone row ``(-b, a)``."""
    a, b = _canonical(normal, offset)
    return (-b,) + a


def slice_facets(points) -> list:
    """Facets ``(a, b)`` of the hull of full-dimensional points, brute force."""
    dim = len(points[0])
    found = set()
    for subset in combinations(points, dim):
        reduced, pivots = row_reduce([p + (Fraction(-1),) for p in subset])
        if len(pivots) != dim:
            continue
        free = next(c for c in range(dim + 1) if c not in pivots)
        kernel = [Fraction(0)] * (dim + 1)
        kernel[free] = Fraction(1)
        for row, piv in zip(reduced, pivots):
            kernel[piv] = -row[free]
        normal, offset = tuple(kernel[:dim]), kernel[dim]
        slacks = [sum(a * x for a, x in zip(normal, p)) - offset for p in points]
        if all(s <= 0 for s in slacks):
            found.add(_canonical(normal, offset))
        elif all(s >= 0 for s in slacks):
            found.add(_canonical(tuple(-a for a in normal), -offset))
    return sorted(found)


def slice_vertices(halfspaces) -> list:
    """Vertices of the bounded region ``{y : a . y <= b}``, brute force."""
    dim = len(halfspaces[0][0])
    found = set()
    for subset in combinations(halfspaces, dim):
        reduced, pivots = row_reduce([a + (b,) for a, b in subset])
        if pivots != list(range(dim)):
            continue
        point = tuple(row[dim] for row in reduced)
        if all(sum(x * y for x, y in zip(a, point)) <= b for a, b in halfspaces):
            found.add(point)
    return sorted(found)


def preserves(transform, vertices, cone_facets, fixed, pinned_rows) -> bool:
    """Does ``transform`` satisfy branch locality and map the polytope into itself?

    Checks the pinned leading rows against the identity, ``T v = v`` for
    every fixed vector, and ``0 <= n <= 1`` plus every cone facet on every
    vertex image (by convexity the vertices decide all states).
    """
    d = len(transform)
    identity = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    if any(tuple(transform[r]) != identity[r] for r in range(pinned_rows)):
        return False

    def image(v):
        return tuple(sum(a * x for a, x in zip(row, v)) for row in transform)

    if any(image(v) != tuple(v) for v in fixed):
        return False
    for v in vertices:
        w = image(v)
        if not 0 <= w[0] <= 1:
            return False
        if any(sum(g_i * w_i for g_i, w_i in zip(g, w)) > 0 for g in cone_facets):
            return False
    return True
