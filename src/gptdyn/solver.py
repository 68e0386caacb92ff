"""Allowed transformations under branch locality, solved exactly.

Acting on one branch imposes two families of linear conditions on a
transformation ``T`` of minimal-representation states:

* every state certain to sit in a *different* branch must be left exactly
  fixed (``T v = v``; sub-normalised closure makes these linear), and
* the branch statistics of *every* state are untouched, which - because
  the valid states span the whole space - pins the normalisation row and
  the branch-probability rows of ``T`` to the identity's rows.

Stage one solves that equality system exactly.  It never couples two rows
of ``T``: the first ``N`` rows are pinned, and every other row ``T_r`` must
satisfy ``T_r . v = v_r`` for each fixed vector ``v``, which the identity's
row already does.  So one kernel of the stacked fixed vectors ``F``, taken
once, applies row by row: the leftover freedom is spanned by the directions
``e_r (x) w`` for each free row ``r >= N`` and each ``w`` in ``ker F``.
Stage two intersects it with state preservation: for polytope state spaces
the image of every vertex must satisfy every facet, which is a finite
system of linear inequalities in the free parameters, so the surviving
family is itself a polytope, with the dimension of its cone of rows with
zero bound, which exact LPs decide.  The rows are formed and de-duplicated
on the state space's integer vertex and facet rows.
For the round state space the family is not polyhedral; instead an
explicit family of rational orthogonal phase-plane maps is verified member
by member.

Verification is exact on both kinds of state space.  A polytope is kept
when every vertex image lies in it (convexity does the rest): each facet is
pulled back through ``T`` once and tested against the integer vertex rows,
and membership words the violation of a vertex that fails.  With
the branch rows pinned, the ball is kept exactly when both branch poles map
to themselves and the 2x2 X/Y block ``M`` of the expectation-picture map is
a contraction, ``I - M^T M >= 0``: both diagonal entries and the determinant
of that matrix are nonnegative rationals.  ``M`` is the p(X=0)/p(Y=0) block
of ``T`` itself, and the poles, the candidates and the witnesses are written
in minimal coordinates directly, so no conversion matrix is involved.  When
such a map fails, the report names a valid state whose image membership
rejects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm

from .exactla import (
    Mat,
    ONE,
    Vec,
    ZERO,
    identity,
    int_dot,
    int_echelon,
    is_zero_vec,
    matvec,
    nullspace,
    rank,
    scale_to_integers,
    vec_sub,
    zeros,
)
from .polytopes import implicit_equalities
from .restriction import (
    RestrictionClass,
    classify_restriction,
    conditional_generators,
)
from .theories import (
    DegenerateTheoryError,
    PolytopeStateSpace,
    Rep,
    StateVec,
    TheorySpec,
    membership,
)
from .theory_io import vec_strs


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality constraints on a branch-local transformation ``T``.

    Rows ``0 .. branch_row_count - 1`` of ``T`` equal the identity's rows and
    ``T v = v`` for every vector ``v`` in ``fixed_vectors``.
    """

    theory: TheorySpec
    acting_branch: int
    fixed_vectors: Mat
    branch_row_count: int


@dataclass(frozen=True)
class LinearStage:
    """Solutions of the equality stage: identity plus a span of free directions.

    Each free direction has a single nonzero row ``r >= first_free_row``,
    equal to one vector of ``kernel`` (a basis of the kernel of the fixed
    vectors).  ``free_directions`` lists them row by row, and within a row
    in kernel order.
    """

    base: Mat
    first_free_row: int
    kernel: Mat
    free_directions: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.free_directions)


@dataclass(frozen=True)
class UniqueIdentity:
    """State preservation forces every free parameter to zero."""


@dataclass(frozen=True)
class PolytopeFamily:
    """Free parameters confined to a polytope of positive dimension.

    ``halfspace_matrix . lam <= halfspace_rhs`` characterises the family
    exactly.  ``witnesses`` are ``dim + 1`` affinely independent exact
    members: the origin (the identity) first, then ``dim`` more.
    """

    dim: int
    halfspace_matrix: Mat
    halfspace_rhs: Vec
    witnesses: Mat


@dataclass(frozen=True)
class CandidateVerified:
    """Explicitly verified members for state spaces with no polyhedral family."""

    transforms: tuple[Mat, ...]
    reports: tuple["VerificationReport", ...]


StatePreserving = UniqueIdentity | PolytopeFamily | CandidateVerified


@dataclass(frozen=True)
class AllowedTransformSet:
    theory: TheorySpec
    branch: int
    linear_stage: LinearStage
    state_preserving: StatePreserving
    forced_fixed_count: int

    def result_kind(self) -> str:
        if isinstance(self.state_preserving, UniqueIdentity):
            return "unique_identity"
        if isinstance(self.state_preserving, PolytopeFamily):
            return "family"
        return "candidates"

    def family_dim(self) -> int | None:
        if isinstance(self.state_preserving, UniqueIdentity):
            return 0
        if isinstance(self.state_preserving, PolytopeFamily):
            return self.state_preserving.dim
        return None

    def to_jsonable(self) -> dict:
        return {
            "branch": self.branch,
            "linear_stage_dim": self.linear_stage.dim,
            "result": self.result_kind(),
            "family_dim": self.family_dim(),
            "forced_fixed_count": self.forced_fixed_count,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Exact residuals and membership findings for one candidate transformation."""

    branch: int
    branch_row_residuals: Mat
    fixed_vector_residuals: Mat
    membership_violations: tuple[tuple[Vec, Vec, str], ...]
    method: str
    exhaustive: bool

    @property
    def residuals_zero(self) -> bool:
        return all(
            is_zero_vec(r)
            for r in self.branch_row_residuals + self.fixed_vector_residuals
        )

    @property
    def passed(self) -> bool:
        return self.residuals_zero and not self.membership_violations

    def to_jsonable(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "residuals_zero": self.residuals_zero,
            "membership_violations": [
                {"probe": vec_strs(p), "image": vec_strs(i), "violation": why}
                for p, i, why in self.membership_violations
            ],
            "method": self.method,
            "exhaustive": self.exhaustive,
        }


class StatePreservationNotApplicableError(ValueError):
    """Raised when the facet-based stage is asked about a non-polyhedral space."""


# -- stage one: the equality system -----------------------------------------------


def assemble_constraints(t: TheorySpec, branch: int) -> ConstraintSystem:
    """Fixed vectors of all other branches plus the pinned branch-statistics rows."""
    if not 0 <= branch < t.branch_outcomes:
        raise ValueError(
            f"branch {branch} out of range for {t.branch_outcomes} outcomes"
        )
    if not t.states_span_space:
        raise DegenerateTheoryError(
            "the valid states do not span the state space; branch-statistics "
            "preservation cannot be promoted to row constraints"
        )
    fixed: list[Vec] = []
    for other in range(t.branch_outcomes):
        if other != branch:
            fixed.extend(conditional_generators(t, other))
    return ConstraintSystem(
        theory=t,
        acting_branch=branch,
        fixed_vectors=tuple(fixed),
        branch_row_count=t.branch_outcomes,
    )


def solve_linear_stage(cs: ConstraintSystem) -> LinearStage:
    """Exact solution set of the equalities: the identity plus ``e_r (x) ker F``.

    The kernel of the fixed vectors ``F`` is taken once, ``d`` entries wide,
    and placed in every free row.  The order of the directions is the one
    elimination over the row-major ``d*d`` entries of ``T`` gives.
    """
    d = cs.theory.dim
    kernel = nullspace(cs.fixed_vectors) if cs.fixed_vectors else identity(d)
    zero_row = zeros(d)
    directions = tuple(
        tuple(w if row == r else zero_row for row in range(d))
        for r in range(cs.branch_row_count, d)
        for w in kernel
    )
    return LinearStage(
        base=identity(d),
        first_free_row=cs.branch_row_count,
        kernel=kernel,
        free_directions=directions,
    )


# -- stage two: state preservation --------------------------------------------------


def family_member(stage: LinearStage, point: Vec) -> Mat:
    """Instantiate ``base + sum(point_k * direction_k)``.

    Direction ``k`` is kernel vector ``k % width`` in row ``first_free_row +
    k // width`` (``width`` kernel vectors per free row), so each nonzero
    parameter adds its multiple of that vector to that row alone.
    """
    if len(point) != stage.dim:
        raise ValueError(f"expected {stage.dim} parameters, got {len(point)}")
    rows = [list(row) for row in stage.base]
    width = len(stage.kernel)
    for k, lam in enumerate(point):
        if lam != 0:
            row = rows[stage.first_free_row + k // width]
            for j, x in enumerate(stage.kernel[k % width]):
                row[j] += lam * x
    return tuple(map(tuple, rows))


def impose_state_preservation(
    t: TheorySpec, stage: LinearStage
) -> UniqueIdentity | PolytopeFamily:
    """Cut the free directions down to those mapping the polytope into itself.

    Each (vertex, facet) pair contributes one inequality that is linear in
    the free parameters; by convexity the vertices decide membership for
    every state.  Direction ``e_r (x) w`` moves the image of vertex ``v`` by
    ``w . v`` along ``e_r``, so the pair's row is ``g_r (w . v)`` over the
    directions and its bound is ``-g . v``.  Pairs whose row vanishes (``v``
    orthogonal to the kernel, or ``g`` zero on every free row) are dropped:
    the identity keeps ``v`` inside ``g``.  No LP sees these rows ``A lam <=
    b``: every bound is >= 0 and the origin is a member, so near it the
    family is the cone of the rows with ``b = 0``.  One implicit-equality
    search over those rows and the box ``-1 <= lam_i <= 1`` gives its
    dimension.  The witnesses are the origin and ``p + u/q`` for each basis
    vector ``u`` of the cone's hull: ``p``, the sum of the members found, is
    strict on the other cone rows and scaled so each is <= -1; the integer
    ``q >= |row . u|`` is stepped up while the members are dependent.  One
    ``1/s`` fits them into the rows with ``b > 0``.
    """
    space = t.state_space
    if not isinstance(space, PolytopeStateSpace):
        raise StatePreservationNotApplicableError(
            "state preservation as linear inequalities needs facets; "
            "verify explicit candidates instead"
        )
    k = stage.dim
    # In integers: kernel vector w_i = u_i / c over one denominator c, vertex
    # v = x / s and facet g = h / e.  The pair's row and bound are then
    # (h_r (u_i . x) for r, i; -(h . x) c) over the denominator e s c, and
    # divided by the gcd of all of them they are a key that two pairs share
    # exactly when their rational rows are equal.
    scaled_kernel = [scale_to_integers(w) for w in stage.kernel]
    c = lcm(*(scale for _, scale in scaled_kernel))
    kernel = [[a * (c // scale) for a in u] for u, scale in scaled_kernel]
    first = stage.first_free_row
    moving_facets = [(h, e, h[first:]) for h, e in space.int_facets if any(h[first:])]
    keys: dict[tuple[tuple[int, ...], int], None] = {}
    for x, s in space.int_vertices:
        images = [int_dot(u, x) for u in kernel]
        if not any(images):
            continue
        for h, e, h_free in moving_facets:
            numerators = [hr * y for hr in h_free for y in images]
            numerators.append(-int_dot(h, x) * c)
            denominator = e * s * c
            common = gcd(denominator, *numerators)
            keys[tuple(n // common for n in numerators), denominator // common] = None
    rows = tuple(tuple(Fraction(n, e) for n in ns[:-1]) for ns, e in keys)
    rhs = tuple(Fraction(ns[-1], e) for ns, e in keys)
    cone = tuple(row for row, bound in zip(rows, rhs) if bound == 0)
    cone_keys = [(ns[:-1], e) for ns, e in keys if ns[-1] == 0]
    box = tuple(tuple(sign * x for x in axis) for axis in identity(k) for sign in (ONE, -ONE))
    origin = zeros(k)
    equalities, found = implicit_equalities(
        cone + box, (ZERO,) * len(cone) + (ONE,) * len(box), [origin]
    )
    _, _, basis = int_echelon([cone_keys[i][0] for i in equalities], k)
    if not basis:
        return UniqueIdentity()
    slack = [key for i, key in enumerate(cone_keys) if i not in equalities]
    p = [sum(column) for column in zip(origin, *found)]
    scale = max((-e / int_dot(ns, p) for ns, e in slack), default=ONE)
    p = [scale * x for x in p]
    bounds = [Fraction(abs(int_dot(ns, u)), e) for ns, e in slack for u in basis]
    q = max(1, ceil(max(bounds, default=0)))
    while True:
        members = [tuple(x + Fraction(y, q) for x, y in zip(p, u)) for u in basis]
        if rank(tuple(members)) == len(basis):
            break
        q += 1
    # On the integer rows, the row's denominator cancels from row . m / bound.
    scaled = [scale_to_integers(m) for m in members]
    ratios = [
        Fraction(int_dot(ns[:-1], y), ns[-1] * d) for ns, _ in keys if ns[-1] for y, d in scaled
    ]
    s = max(1, ceil(max(ratios, default=0)))
    return PolytopeFamily(
        dim=len(basis),
        halfspace_matrix=rows,
        halfspace_rhs=rhs,
        witnesses=(origin, *(tuple(x / s for x in m) for m in members)),
    )


def sample_family_points(
    family: PolytopeFamily, count: int, seed: int = 0
) -> list[Vec]:
    """Rational parameter points inside the family: mixtures of its witnesses."""
    rng = random.Random(seed)
    pool = family.witnesses
    points = []
    for _ in range(count):
        weights = [Fraction(rng.randint(0, 9)) for _ in pool]
        if sum(weights) == 0:
            weights[0] = Fraction(1)
        total = sum(weights)
        points.append(
            tuple(
                sum((w * p[i] for w, p in zip(weights, pool)), ZERO) / total
                for i in range(len(pool[0]))
            )
        )
    return points


# -- explicit candidates for the round state space -----------------------------------


def ball_candidate_transforms(t: TheorySpec) -> tuple[Mat, ...]:
    """Exact rational rotations and a reflection of the free expectation plane.

    Under a block ``B`` on ``(<X>, <Y>)``, minimal entry ``2 + i`` (``p =
    (n + <G>)/2`` of X, then Y) maps to ``((1 - b_i0 - b_i1)/2) n + b_i0
    p(X=0) + b_i1 p(Y=0)``; the branch rows stay the identity's.
    """
    cos, sin = Fraction(3, 5), Fraction(4, 5)
    blocks = [
        ((ONE, ZERO), (ZERO, ONE)),
        ((cos, -sin), (sin, cos)),
        ((cos, sin), (-sin, cos)),
        ((ONE, ZERO), (ZERO, -ONE)),
        ((cos, sin), (sin, -cos)),
    ]
    pinned = identity(t.dim)[:2]
    return tuple(
        pinned + tuple(((1 - b0 - b1) / 2, ZERO, b0, b1) for b0, b1 in block)
        for block in blocks
    )


def _ball_escapes(transform: Mat) -> list[Vec]:
    """Valid states that a map with pinned branch rows takes out of the ball.

    In minimal coordinates ``(n, p(Z=0), p(X=0), p(Y=0))`` with ``p = (n +
    <G>)/2``, the expectation-picture map has entries ``T[i][j] - T[0][j]/2``
    for ``i, j >= 1``, so with row 0 pinned its X/Y block ``M`` is
    ``T[2:4][2:4]``.  Such a map keeps the ball exactly when both branch
    poles stay fixed and ``M`` is a contraction: ``G = I - M^T M`` is
    positive semidefinite, i.e. both diagonal entries and the determinant
    are >= 0.  Then there are none; otherwise the moving poles are
    returned, or one pure state whose X/Y part points along a ``w`` with
    ``w^T G w < 0``.
    """
    half = Fraction(1, 2)
    poles = [(ONE, ONE, half, half), (ONE, ZERO, half, half)]
    moving = [p for p in poles if matvec(transform, p) != p]
    if moving:
        return moving
    (m11, m12), (m21, m22) = transform[2][2:], transform[3][2:]
    g11 = 1 - m11 * m11 - m21 * m21
    g22 = 1 - m12 * m12 - m22 * m22
    g12 = -(m11 * m12 + m21 * m22)
    if g11 >= 0 and g22 >= 0 and g11 * g22 - g12 * g12 >= 0:
        return []
    if g11 < 0:
        w = (ONE, ZERO)
    elif g22 < 0:
        w = (ZERO, ONE)
    elif g11 > 0:
        w = (-g12, g11)  # w^T G w = g11 det G
    else:
        w = (g22 + 1, -g12)  # g11 = 0: w^T G w = -(g22 + 2) g12^2
    # With a = |w|^2 and k = 2/(a + 1), the state (<Z>, <X>, <Y>) =
    # ((a - 1)/(a + 1), k w) is pure, and its image (<Z>, k M w) has squared
    # length 1 + k^2 (|M w|^2 - a) > 1.  In minimal coordinates it is
    # (1, a/(a + 1), (1 + k w_0)/2, (1 + k w_1)/2).
    a = w[0] * w[0] + w[1] * w[1]
    k = 2 / (a + 1)
    return [(ONE, a / (a + 1), (1 + k * w[0]) / 2, (1 + k * w[1]) / 2)]


# -- verification ---------------------------------------------------------------------


def verify_transformation(t: TheorySpec, transform: Mat, branch: int) -> VerificationReport:
    """Exact check of one candidate: residuals first, then state preservation."""
    d = t.dim
    if len(transform) != d or any(len(row) != d for row in transform):
        raise ValueError(f"transformation must be {d}x{d} for this theory")
    return _verify_against(assemble_constraints(t, branch), transform)


def _verify_against(cs: ConstraintSystem, transform: Mat) -> VerificationReport:
    t = cs.theory
    d = t.dim
    ident = identity(d)
    branch_residuals = tuple(
        vec_sub(transform[r], ident[r]) for r in range(cs.branch_row_count)
    )
    # With T = M / m and v = x / s in integers, (T v - v)_i is
    # (M_i . x - m x_i) / (m s).
    entries, m = scale_to_integers([a for row in transform for a in row])
    int_rows = [entries[i * d : (i + 1) * d] for i in range(d)]
    fixed_residuals = tuple(
        tuple(Fraction(int_dot(row, x) - m * xi, m * s) for row, xi in zip(int_rows, x))
        for x, s in map(scale_to_integers, cs.fixed_vectors)
    )
    space = t.state_space
    violations: list[tuple[Vec, Vec, str]] = []
    if isinstance(space, PolytopeStateSpace):
        method = "vertex-images"
        # The image T v of vertex v = x / s is inside when 0 <= n <= 1 and
        # g . T v <= 0 for every facet g = h / e.  That is 0 <= M_0 . x <= m s
        # and (h^T M) . x <= 0: each facet is pulled back through M once.
        # Membership words the violation of a vertex that fails.
        columns = [entries[j :: d] for j in range(d)]
        pulled_back = [[int_dot(h, col) for col in columns] for h, _ in space.int_facets]
        for v, (x, s) in zip(space.vertices, space.int_vertices):
            n = int_dot(int_rows[0], x)
            if 0 <= n <= m * s and all(int_dot(p, x) <= 0 for p in pulled_back):
                continue
            image = matvec(transform, v)
            result = membership(t, StateVec(Rep.MINIMAL, image, t))
            if result.is_inside:  # pragma: no cover - both tests are exact
                raise AssertionError("a vertex image failed on integers only")
            violations.append((v, image, result.violation))
    else:
        method = "contraction-block"
        rows_pinned = all(is_zero_vec(r) for r in branch_residuals)
        for state in _ball_escapes(transform) if rows_pinned else ():
            image = matvec(transform, state)
            result = membership(t, StateVec(Rep.MINIMAL, image, t))
            if result.is_inside:  # pragma: no cover - the witnesses are exact
                raise AssertionError("a contraction-block witness stayed in the ball")
            violations.append((state, image, result.violation))
    return VerificationReport(
        branch=cs.acting_branch,
        branch_row_residuals=branch_residuals,
        fixed_vector_residuals=fixed_residuals,
        membership_violations=tuple(violations),
        method=method,
        exhaustive=True,
    )


# -- the full pipeline -----------------------------------------------------------------


def count_forced_eigenvectors(t: TheorySpec, branch: int) -> int:
    """Independent states every branch-local transformation must leave fixed.

    The fixed vectors ``F`` of the other branches contribute their rank; one
    more always comes from the acting branch itself (its unique certain state
    when the theory is conditionally restricted there, an exact stochastic
    fixed point when the branch statistics leave a whole face free).  It is
    independent of ``F``: every vector of ``F`` gives the acting branch
    probability 0, and a certain state of the acting branch gives it
    probability 1, so the count is ``rank F + 1``.
    """
    return rank(assemble_constraints(t, branch).fixed_vectors) + 1


def allowed_transform_set(t: TheorySpec, branch: int) -> AllowedTransformSet:
    """Run both stages and package the answer for one acting branch."""
    cs = assemble_constraints(t, branch)
    stage = solve_linear_stage(cs)
    space = t.state_space
    preserving: StatePreserving
    if isinstance(space, PolytopeStateSpace):
        preserving = impose_state_preservation(t, stage)
    else:
        transforms = ball_candidate_transforms(t)
        reports = tuple(_verify_against(cs, transform) for transform in transforms)
        if not all(r.passed for r in reports):  # pragma: no cover - all orthogonal
            raise AssertionError("a built-in candidate failed verification")
        preserving = CandidateVerified(transforms=transforms, reports=reports)
    return AllowedTransformSet(
        theory=t,
        branch=branch,
        linear_stage=stage,
        state_preserving=preserving,
        # rank F + 1 with rank F = d - dim ker F; see count_forced_eigenvectors.
        forced_fixed_count=t.dim - len(stage.kernel) + 1,
    )


# -- top-level theorem checks ------------------------------------------------------------


@dataclass(frozen=True)
class TheoremAssertion:
    name: str
    passed: bool
    detail: str

    def to_jsonable(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class TheoremReport:
    theory_name: str
    restriction_class: RestrictionClass
    per_branch_freedom: tuple[int, ...]
    branch_results: tuple[AllowedTransformSet, ...]
    assertions: tuple[TheoremAssertion, ...]
    summary: str

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_jsonable(self) -> dict:
        return {
            "theory": self.theory_name,
            "class": self.restriction_class.value,
            "per_branch_freedom": {
                str(b): f for b, f in enumerate(self.per_branch_freedom)
            },
            "branches": [r.to_jsonable() for r in self.branch_results],
            "assertions": [a.to_jsonable() for a in self.assertions],
            "summary": self.summary,
            "ok": self.ok,
        }


def verify_main_theorem(t: TheorySpec, theory_name: str = "theory") -> TheoremReport:
    """Check the freeze/freedom dichotomy on one theory, branch by branch.

    Fully independent theories must come out frozen (the identity is the
    only allowed transformation and the forced fixed states already span
    everything); fully conditionally restricted theories with any leftover
    degrees of freedom must keep a strictly larger allowed set.
    """
    report = classify_restriction(t)
    results = tuple(
        allowed_transform_set(t, b) for b in range(t.branch_outcomes)
    )
    assertions: list[TheoremAssertion] = []
    cls = report.restriction_class
    d = t.dim
    n = t.branch_outcomes
    if cls is RestrictionClass.FULLY_INDEPENDENT:
        for ats in results:
            assertions.append(
                TheoremAssertion(
                    name=f"branch {ats.branch} frozen",
                    passed=isinstance(ats.state_preserving, UniqueIdentity),
                    detail=f"allowed set is {ats.result_kind()}",
                )
            )
            assertions.append(
                TheoremAssertion(
                    name=f"branch {ats.branch} forced fixed count = d",
                    passed=ats.forced_fixed_count == d,
                    detail=f"{ats.forced_fixed_count} of {d}",
                )
            )
    elif cls is RestrictionClass.FULLY_CONDITIONALLY_RESTRICTED:
        for ats in results:
            assertions.append(
                TheoremAssertion(
                    name=f"branch {ats.branch} forced fixed count = N",
                    passed=ats.forced_fixed_count == n,
                    detail=f"{ats.forced_fixed_count} of N = {n}",
                )
            )
            if t.extra_freedoms > 0:
                if isinstance(ats.state_preserving, CandidateVerified):
                    nontrivial = any(
                        transform != identity(d)
                        for transform in ats.state_preserving.transforms
                    )
                    detail = (
                        f"{len(ats.state_preserving.transforms)} verified candidates"
                    )
                else:
                    dim = ats.family_dim()
                    nontrivial = dim is not None and dim > 0
                    detail = f"family dimension {dim}"
                assertions.append(
                    TheoremAssertion(
                        name=f"branch {ats.branch} keeps non-classical dynamics",
                        passed=nontrivial,
                        detail=detail,
                    )
                )
    else:
        for ats in results:
            assertions.append(
                TheoremAssertion(
                    name=f"branch {ats.branch} forced fixed count within [N, d]",
                    passed=n <= ats.forced_fixed_count <= d,
                    detail=f"{ats.forced_fixed_count} in [{n}, {d}]",
                )
            )
    frozen = all(
        isinstance(ats.state_preserving, UniqueIdentity) for ats in results
    )
    if not all(a.passed for a in assertions):
        summary = "THEOREM VIOLATION: see failed assertions"
    elif frozen:
        summary = "frozen: unique identity on every branch"
    elif cls is RestrictionClass.FULLY_CONDITIONALLY_RESTRICTED:
        summary = "non-classical dynamics present"
    else:
        summary = "partial freedom: allowed set larger than the identity"
    return TheoremReport(
        theory_name=theory_name,
        restriction_class=cls,
        per_branch_freedom=report.per_branch_freedom,
        branch_results=results,
        assertions=tuple(assertions),
        summary=summary,
    )


@dataclass(frozen=True)
class TradeoffReport:
    """More conditional restriction must buy at least as much dynamics."""

    restricted_name: str
    restricted_freedoms: tuple[int, ...]
    restricted_dims: tuple[int, ...]
    freer_name: str
    freer_freedoms: tuple[int, ...]
    freer_dims: tuple[int, ...]
    consistent: bool

    def to_jsonable(self) -> dict:
        return {
            "restricted": {
                "theory": self.restricted_name,
                "per_branch_freedom": list(self.restricted_freedoms),
                "allowed_set_dim": list(self.restricted_dims),
            },
            "freer": {
                "theory": self.freer_name,
                "per_branch_freedom": list(self.freer_freedoms),
                "allowed_set_dim": list(self.freer_dims),
            },
            "consistent": self.consistent,
        }


def restriction_dynamics_tradeoff(
    restricted: TheorySpec,
    freer: TheorySpec,
    restricted_name: str = "restricted",
    freer_name: str = "freer",
) -> TradeoffReport:
    """Compare two polytope theories branch by branch.

    ``restricted`` must have componentwise smaller conditional freedoms; the
    report is consistent when its allowed-set dimensions are componentwise
    at least as large, strictly larger wherever the freedom dropped.
    """
    fr = classify_restriction(restricted).per_branch_freedom
    ff = classify_restriction(freer).per_branch_freedom
    _require_more_restricted(fr, ff, restricted_name, freer_name)

    def dims(t: TheorySpec) -> tuple[int | None, ...]:
        return tuple(
            allowed_transform_set(t, b).family_dim() for b in range(len(fr))
        )

    return compare_tradeoff(
        restricted_name, fr, dims(restricted), freer_name, ff, dims(freer)
    )


def compare_tradeoff(
    restricted_name: str,
    restricted_freedoms: tuple[int, ...],
    restricted_dims: tuple[int | None, ...],
    freer_name: str,
    freer_freedoms: tuple[int, ...],
    freer_dims: tuple[int | None, ...],
) -> TradeoffReport:
    """The trade-off comparison over per-branch freedoms and allowed-set dimensions."""
    _require_more_restricted(
        restricted_freedoms, freer_freedoms, restricted_name, freer_name
    )
    if None in restricted_dims or None in freer_dims:
        raise ValueError("the trade-off comparison needs polytope state spaces")
    consistent = all(
        dr >= df and (free_r == free_f or dr > df)
        for free_r, free_f, dr, df in zip(
            restricted_freedoms, freer_freedoms, restricted_dims, freer_dims
        )
    )
    return TradeoffReport(
        restricted_name=restricted_name,
        restricted_freedoms=restricted_freedoms,
        restricted_dims=restricted_dims,
        freer_name=freer_name,
        freer_freedoms=freer_freedoms,
        freer_dims=freer_dims,
        consistent=consistent,
    )


def _require_more_restricted(
    fr: tuple[int, ...], ff: tuple[int, ...], restricted_name: str, freer_name: str
) -> None:
    if len(fr) != len(ff):
        raise ValueError("theories must share the branch outcome count")
    if any(a > b for a, b in zip(fr, ff)):
        raise ValueError(
            f"{restricted_name} is not componentwise more restricted than {freer_name}"
        )
