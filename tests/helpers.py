"""Shared test utilities: random exact states and mixtures, and the flat
d*d-unknown form of the solver's equality stage as a reference."""

from fractions import Fraction
import random

from gptdyn.exactla import ONE, ZERO, Mat, Vec, dot, matvec, nullspace, unit
from gptdyn.solver import ConstraintSystem
from gptdyn.theories import TheorySpec, spanning_states


def rational_mixture(rows, weights):
    total = sum(weights)
    width = len(rows[0])
    return tuple(
        sum((w * r[i] for w, r in zip(weights, rows)), Fraction(0)) / total
        for i in range(width)
    )


def random_member_state(theory: TheorySpec, rng: random.Random, subnormal: bool = True):
    """Random rational mixture of spanning members, optionally scaled down."""
    base = spanning_states(theory)
    weights = [Fraction(rng.randint(0, 8)) for _ in base]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    entries = rational_mixture(base, weights)
    if subnormal:
        scale = Fraction(rng.randint(1, 6), 6)
        entries = tuple(scale * x for x in entries)
    return theory.minimal_state(entries)


def flat_equations(cs: ConstraintSystem) -> tuple[Mat, Vec]:
    """``cs`` as ``A vec(T) = b`` over the row-major d*d entries of ``T``."""
    d = cs.theory.dim
    rows = []
    rhs = []
    for r in range(cs.branch_row_count):
        for c in range(d):
            rows.append(unit(d * d, r * d + c))
            rhs.append(ONE if r == c else ZERO)
    for v in cs.fixed_vectors:
        for r in range(d):
            row = [ZERO] * (d * d)
            row[r * d : r * d + d] = list(v)
            rows.append(tuple(row))
            rhs.append(v[r])
    return tuple(rows), tuple(rhs)


def flat_free_directions(cs: ConstraintSystem) -> tuple[Mat, ...]:
    """Kernel of the flat system, each basis vector folded back into a d x d matrix."""
    d = cs.theory.dim
    a, _ = flat_equations(cs)
    return tuple(
        tuple(v[r * d : (r + 1) * d] for r in range(d)) for v in nullspace(a)
    )


def direction_halfspaces(
    t: TheorySpec, directions: tuple[Mat, ...]
) -> tuple[Mat, Vec]:
    """State-preservation rows from whole direction matrices, one per (vertex, facet).

    The row is ``g . (D v)`` over the directions ``D`` and the bound is
    ``-g . v``; vanishing rows are dropped and repeats kept once, in order.
    """
    seen = set()
    rows = []
    rhs = []
    for v in t.state_space.vertices:
        for g in t.state_space.cone_facets:
            coeffs = tuple(dot(g, matvec(direction, v)) for direction in directions)
            bound = -dot(g, v)
            if all(c == 0 for c in coeffs):
                assert bound >= 0
                continue
            if (coeffs, bound) not in seen:
                seen.add((coeffs, bound))
                rows.append(coeffs)
                rhs.append(bound)
    return tuple(rows), tuple(rhs)
