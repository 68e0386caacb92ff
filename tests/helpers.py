"""Shared test utilities: random exact states, mixtures and theories, the
polytopes inscribed in the qubit's sphere, and references for the fast
paths: the ``Fraction`` Gauss-Jordan elimination the integer one replaced,
the flat d*d-unknown form of the solver's equality stage, the axis-LP stage
two over the whole (vertex, facet) system that the tight cone replaced, the
rational-row simplex the integer-row one replaced, a recorder of every LP
solved, the unpruned one-LP-per-row dimension search, the implicit-equality
search with one fresh LP per undecided row that span closure replaced, the
subset-by-subset facet and vertex enumerations that double description
replaced, the axis-LP boundedness test that the homogenised cone's rays
replaced, the ``Fraction`` (vertex, facet) checks that the integer rows of
a polytope space replaced, the ``Fraction`` sort that their one integer
pass replaced, the matrix-by-matrix family members, and the ball's route
through the expectation-picture conversion matrices."""

from fractions import Fraction
from itertools import combinations, product
import random
from typing import Sequence

from gptdyn.exactla import (
    ONE,
    ZERO,
    LinearSolution,
    Mat,
    Vec,
    affine_hull_dim,
    dot,
    identity,
    is_zero_vec,
    matmul,
    matvec,
    nullspace,
    rank,
    scale_to_integers,
    shape,
    solve_linear,
    unit,
    vec_sub,
)
from gptdyn.polytopes import (
    MAX_ENUM_DIM,
    Halfspace,
    UnsupportedDimensionError,
    canonical_halfspace,
    _slacks,
    feasible_region_dim,
    implicit_equalities,
)
from gptdyn.simplex import LpResult, LpStatus, LpSystem, _check_system, lp_optimize
from gptdyn.solver import (
    ConstraintSystem,
    LinearStage,
    PolytopeFamily,
    UniqueIdentity,
    VerificationReport,
)
from gptdyn.theories import (
    MeasurementSpec,
    MembershipResult,
    PolytopeStateSpace,
    Rep,
    Role,
    StateVec,
    TheorySpec,
    expectation_to_minimal_matrix,
    minimal_to_expectation_matrix,
    polytope_from_halfspaces,
    polytope_from_vertices,
    spanning_states,
    to_expectation,
    to_minimal,
)


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


HALVES = (Fraction(0), Fraction(1, 2), Fraction(1))
SIXTHS = tuple(sorted({Fraction(p, q) for q in range(1, 7) for p in range(q + 1)}))


def random_v_theory(rng: random.Random, grid: Sequence[Fraction] = HALVES) -> TheorySpec:
    """A seeded polytope theory of dimension 4 with a 2- or 3-outcome branch.

    Each branch gets one or two certain vertices, and a few more vertices
    leave the branch uncertain; coordinates are on ``grid``, by default
    {0, 1/2, 1}.
    """
    outcomes = rng.choice((2, 3))
    fiducials = ("X", "Y")[: 4 - outcomes]
    measurements = (MeasurementSpec("Z", outcomes, Role.BRANCH),) + tuple(
        MeasurementSpec(label, 2, Role.FIDUCIAL) for label in fiducials
    )
    # Kept branch probabilities p(Z=0), ..., p(Z=N-2); the last is 1 - their sum.
    blocks = list(product(grid, repeat=outcomes - 1))
    certain = [
        tuple(Fraction(int(i == b)) for i in range(outcomes - 1)) for b in range(outcomes)
    ]
    uncertain = [p for p in blocks if p not in certain and sum(p) <= 1]
    while True:
        chosen = [c for c in certain for _ in range(rng.randint(1, 2))]
        chosen += [rng.choice(uncertain) for _ in range(rng.randint(0, 3))]
        points = {(Fraction(1), *z, *(rng.choice(grid) for _ in fiducials)) for z in chosen}
        if affine_hull_dim([p[1:] for p in points]) == 3:
            vertices = tuple(sorted(points))
            return TheorySpec(measurements, polytope_from_vertices(vertices))


def inscribed_sphere_theory(grid: Sequence[int]) -> TheorySpec:
    """The polytope of rational points on the qubit's sphere, with Z as the branch.

    Inverse stereographic projection takes each ``(u, v)`` of ``grid x grid``
    to the rational point ``(2u, 2v, u^2 + v^2 - 1) / (u^2 + v^2 + 1)`` of the
    unit sphere, and both poles are added.  A point ``(x, y, z)`` is the state
    ``(1, (1 + z)/2, (1 + x)/2, (1 + y)/2)``, so only the poles are certain.
    The grids ``{-1, 1}``, ``{-1, 0, 1}`` and ``{-2, ..., 2}`` give 6, 10 and
    26 vertices.
    """
    points = {(ZERO, ZERO, ONE), (ZERO, ZERO, -ONE)}
    for u, v in product(grid, repeat=2):
        r = u * u + v * v + 1
        points.add((Fraction(2 * u, r), Fraction(2 * v, r), Fraction(r - 2, r)))
    vertices = sorted((ONE, (1 + z) / 2, (1 + x) / 2, (1 + y) / 2) for x, y, z in points)
    measurements = (
        MeasurementSpec("Z", 2, Role.BRANCH),
        MeasurementSpec("X", 2, Role.FIDUCIAL),
        MeasurementSpec("Y", 2, Role.FIDUCIAL),
    )
    return TheorySpec(measurements, polytope_from_vertices(vertices))


def probability_rows(t: TheorySpec) -> Mat:
    """Cone rows ``g . x <= 0`` saying every outcome probability is >= 0."""
    rows = []
    offset = 1
    for m in t.measurements:
        for j in range(m.outcomes - 1):
            rows.append(tuple(-ONE if c == offset + j else ZERO for c in range(t.dim)))
        rows.append(
            tuple(
                -ONE if c == 0 else ONE if offset <= c < offset + m.outcomes - 1 else ZERO
                for c in range(t.dim)
            )
        )
        offset += m.outcomes - 1
    return tuple(rows)


def random_h_theory(rng: random.Random, grid: Sequence[Fraction] = SIXTHS) -> TheorySpec:
    """A theory loaded from the halfspaces of a random V-theory on ``grid``.

    The V-theory's facets come with every probability bound, most of them
    redundant, so the loaded space carries facets no vertex makes tight.
    """
    base = random_v_theory(rng, grid)
    rows = base.state_space.cone_facets + probability_rows(base)
    space = polytope_from_halfspaces([(g, ZERO) for g in rows])
    return TheorySpec(base.measurements, space)


# -- Reference elimination: the ``Fraction`` Gauss-Jordan that the integer
# echelon routine replaced, kept as it was so ranks and kernels can be compared.


def fraction_rref(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
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


def fraction_rank(a: Mat) -> int:
    _, pivots = fraction_rref(a)
    return len(pivots)


def fraction_nullspace(a: Mat) -> tuple[Vec, ...]:
    """Basis of ``{x : A x = 0}``; empty iff the columns are independent."""
    rows, cols = shape(a)
    if rows == 0 or cols == 0:
        return tuple(identity(cols)) if cols else ()
    reduced, pivots = fraction_rref(a)
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


def fraction_solve_linear(a: Mat, b: Vec) -> LinearSolution | None:
    """Exact Gaussian elimination on ``A x = b``.

    Returns the particular solution with all free variables set to zero
    together with the full nullspace basis, or ``None`` when the system is
    inconsistent.
    """
    rows, cols = shape(a)
    if rows != len(b):
        raise ValueError(f"system of {rows} rows with rhs of length {len(b)}")
    augmented = [list(row) + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = fraction_rref(augmented)
    if cols in pivots:
        return None
    particular = [ZERO] * cols
    for row, piv in zip(reduced, pivots):
        particular[piv] = row[cols]
    return LinearSolution(
        particular=tuple(particular),
        nullspace_basis=fraction_nullspace(a),
        rank=len(pivots),
    )


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
        tuple(v[r * d : (r + 1) * d] for r in range(d))
        for v in fraction_nullspace(a)
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


# -- Reference simplex: the tableau of plain ``Fraction`` rows that the
# integer-row tableau replaced, kept as it was so the pivot paths can be compared.


class FractionTableau:
    """Dense simplex tableau; rows carry the rhs in the last column."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis

    def pivot(self, row: int, col: int) -> None:
        piv = self.rows[row][col]
        inv = 1 / piv
        self.rows[row] = [v * inv for v in self.rows[row]]
        for r in range(len(self.rows)):
            if r != row and self.rows[r][col] != 0:
                factor = self.rows[r][col]
                pivot_row = self.rows[row]
                self.rows[r] = [v - factor * p for v, p in zip(self.rows[r], pivot_row)]
        self.basis[row] = col

    def minimize(self, cost: list[Fraction], allowed: set[int]) -> tuple[str, list[Fraction]]:
        """Run Bland-rule simplex on the given cost vector.

        ``cost`` has one entry per column plus the objective constant in the
        last slot; ``allowed`` restricts the columns eligible to enter the
        basis.  Returns the final status and the reduced cost row.
        """
        z = list(cost)
        for r, basic in enumerate(self.basis):
            if z[basic] != 0:
                factor = z[basic]
                z = [v - factor * p for v, p in zip(z, self.rows[r])]
        ncols = len(z) - 1
        while True:
            entering = next(
                (j for j in range(ncols) if j in allowed and z[j] < 0), None
            )
            if entering is None:
                return "optimal", z
            leaving = None
            best_ratio: Fraction | None = None
            for r, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff > 0:
                    ratio = row[-1] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = r
            if leaving is None:
                return "unbounded", z
            self.pivot(leaving, entering)
            for r, basic in enumerate(self.basis):
                if z[basic] != 0:
                    factor = z[basic]
                    z = [v - factor * p for v, p in zip(z, self.rows[r])]



def fraction_lp_optimize(
    objective: Vec,
    eq: tuple[Mat, Vec] | None = None,
    ineq: tuple[Mat, Vec] | None = None,
    sense: str = "max",
) -> LpResult:
    """Optimise ``objective . x`` subject to ``A_eq x = b_eq`` and ``A_in x <= b_in``.

    Variables are free (unbounded in sign); add rows to ``ineq`` to bound
    them.  ``sense`` is ``"max"`` or ``"min"``.  The result is exact: when
    Optimal, the witness satisfies every constraint exactly and attains the
    optimum exactly.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    nvars = len(objective)
    a_eq, b_eq = _check_system("equality", eq, nvars)
    a_in, b_in = _check_system("inequality", ineq, nvars)

    # Columns: x = u - w with u, w >= 0, then one slack per inequality row.
    nslack = len(a_in)
    base_cols = 2 * nvars + nslack
    raw_rows: list[tuple[list[Fraction], Fraction, int | None]] = []
    for row, rhs in zip(a_eq, b_eq):
        coeffs = [*row] + [-v for v in row] + [ZERO] * nslack
        raw_rows.append((coeffs, rhs, None))
    for idx, (row, rhs) in enumerate(zip(a_in, b_in)):
        coeffs = [*row] + [-v for v in row] + [ZERO] * nslack
        coeffs[2 * nvars + idx] = ONE
        raw_rows.append((coeffs, rhs, 2 * nvars + idx))

    # Normalise to nonnegative rhs; a flipped row loses its natural slack basis.
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    artificial_cols: list[int] = []
    ncols = base_cols
    pending: list[tuple[list[Fraction], Fraction, int | None]] = []
    for coeffs, rhs, slack in raw_rows:
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            slack = None
        pending.append((coeffs, rhs, slack))
        if slack is None:
            ncols += 1
    col = base_cols
    for coeffs, rhs, slack in pending:
        full = coeffs + [ZERO] * (ncols - base_cols) + [rhs]
        if slack is not None:
            basis.append(slack)
        else:
            full[col] = ONE
            basis.append(col)
            artificial_cols.append(col)
            col += 1
        rows.append(full)

    tableau = FractionTableau(rows, basis)
    all_cols = set(range(ncols))

    if artificial_cols:
        phase1 = [ZERO] * (ncols + 1)
        for c in artificial_cols:
            phase1[c] = ONE
        status, z = tableau.minimize(phase1, all_cols)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise AssertionError("phase-1 objective cannot be unbounded")
        if -z[-1] != 0:
            return LpResult(LpStatus.INFEASIBLE, None, None)
        # Drive any artificial still in the basis out, or drop its row.
        structural = set(range(base_cols))
        artificial = set(artificial_cols)
        r = 0
        while r < len(tableau.rows):
            if tableau.basis[r] in artificial:
                col = next(
                    (c for c in sorted(structural) if tableau.rows[r][c] != 0), None
                )
                if col is None:
                    del tableau.rows[r]
                    del tableau.basis[r]
                    continue
                tableau.pivot(r, col)
            r += 1
        allowed = structural
    else:
        allowed = set(range(base_cols))

    phase2 = [ZERO] * (ncols + 1)
    sign = -1 if sense == "max" else 1
    for j in range(nvars):
        phase2[j] = sign * objective[j]
        phase2[nvars + j] = -sign * objective[j]
    status, _ = tableau.minimize(phase2, allowed)
    if status == "unbounded":
        return LpResult(LpStatus.UNBOUNDED, None, None)

    levels = [ZERO] * ncols
    for r, basic in enumerate(tableau.basis):
        levels[basic] = tableau.rows[r][-1]
    witness = tuple(levels[j] - levels[nvars + j] for j in range(nvars))
    return LpResult(LpStatus.OPTIMAL, dot(objective, witness), witness)


def record_lps(monkeypatch) -> list[tuple[LpSystem, Vec, str, LpResult]]:
    """Record every LP solved from here on as ``(system, objective, sense, result)``.

    Every LP runs through ``LpSystem.optimize``: stage two's searches on
    their shared systems and each ``lp_optimize`` call on its own.
    """
    calls = []
    optimize = LpSystem.optimize

    def recording(self, objective, sense="max"):
        result = optimize(self, objective, sense)
        calls.append((self, objective, sense, result))
        return result

    monkeypatch.setattr(LpSystem, "optimize", recording)
    return calls


def assert_lps_match_fraction_reference(calls) -> None:
    """Each recorded result repr-equals the rational tableau's on the same LP."""
    for system, objective, sense, result in calls:
        want = fraction_lp_optimize(objective, eq=system.eq, ineq=system.ineq, sense=sense)
        assert repr(result) == repr(want), (objective, system.eq, system.ineq, sense)


def lp_implicit_equalities(
    a: Mat, b: Vec, points: Sequence[Vec] = ()
) -> tuple[list[int], list[Vec]]:
    """``polytopes.implicit_equalities`` with one fresh LP per row not yet strict.

    The search as it was before span closure: no row is marked an equality
    without an LP, and each LP is its own ``lp_optimize`` call.
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
    for i, (row, rhs) in enumerate(zip(a, b)):
        if strict[i]:
            continue
        result = lp_optimize(row, ineq=(a, b), sense="min")
        if result.status is not LpStatus.OPTIMAL:
            continue
        if result.optimum == rhs:
            equalities.append(i)
            continue
        members.append(result.witness)
        for j, slack in enumerate(_slacks(scaled[i + 1 :], result.witness), i + 1):
            strict[j] = strict[j] or slack > 0
    return equalities, members


def checked_implicit_equalities(calls, a: Mat, b: Vec, points: Sequence[Vec] = ()):
    """``implicit_equalities``, checked against :func:`lp_implicit_equalities`.

    ``calls`` is the list :func:`record_lps` fills.  Both searches must give
    the same equalities and members, and the search may end no more LPs in
    an equality than the rank of its equalities.  Returns the result and the
    number of equalities that took an LP.
    """
    start = len(calls)
    got = implicit_equalities(a, b, points)
    # An optimal LP ends in an equality or adds one member.
    optimal = sum(1 for *_, result in calls[start:] if result.status is LpStatus.OPTIMAL)
    by_lp = optimal - len(got[1])
    assert by_lp <= rank(tuple(a[i] for i in got[0]))
    assert got == lp_implicit_equalities(a, b, points)
    return got, by_lp


def axis_lp_state_preservation(
    t: TheorySpec, stage: LinearStage
) -> UniqueIdentity | PolytopeFamily:
    """Stage two on the whole (vertex, facet) system, as it was before the tight cone.

    ``2k`` axis LPs over every row decide ``P = {0}``; their optimal vertices
    join the origin as the witnesses and go to the dimension search over the
    same rows as known members.
    """
    k = stage.dim
    if k == 0:
        return UniqueIdentity()
    a, b = direction_halfspaces(t, stage.free_directions)
    witnesses: list[Vec] = [tuple(ZERO for _ in range(k))]
    forced_zero = True
    for axis_index in range(k):
        for sense in ("max", "min"):
            result = lp_optimize(unit(k, axis_index), ineq=(a, b), sense=sense)
            assert result.status is LpStatus.OPTIMAL
            if result.optimum != 0:
                forced_zero = False
            if result.witness not in witnesses:
                witnesses.append(result.witness)
    if forced_zero:
        return UniqueIdentity()
    return PolytopeFamily(
        dim=feasible_region_dim(a, b, k, witnesses),
        halfspace_matrix=a,
        halfspace_rhs=b,
        witnesses=tuple(witnesses),
    )


def unpruned_feasible_region_dim(a: Mat, b: Vec, nvars: int) -> int:
    """Affine dimension of ``{x : A x <= b}`` with one exact LP per row, no pruning."""
    if not a:
        return nvars
    equality_rows: list[Vec] = []
    for row, rhs in zip(a, b):
        result = fraction_lp_optimize(row, ineq=(a, b), sense="min")
        if result.status is LpStatus.OPTIMAL and result.optimum == rhs:
            equality_rows.append(row)
    if not equality_rows:
        return nvars
    return nvars - rank(tuple(equality_rows))


# -- Reference enumerations: every ``dim``-subset of the input, kept as it
# was so double description can be compared with it.


def brute_facet_enumeration(vertices: Sequence[Vec]) -> list[Halfspace]:
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


def brute_vertex_enumeration(halfspaces: Sequence[Halfspace]) -> list[Vec]:
    """All vertices of ``{x : a . x <= b}``, assumed bounded and full-dimensional.

    Dual counterpart of :func:`brute_facet_enumeration`: intersect every
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


def lp_is_bounded(halfspaces: Sequence[Halfspace]) -> bool:
    """Exact boundedness test: each coordinate admits a finite max and min."""
    if not halfspaces:
        return False
    dim = len(halfspaces[0][0])
    a = tuple(h[0] for h in halfspaces)
    b = tuple(h[1] for h in halfspaces)
    for i in range(dim):
        for sense in ("max", "min"):
            result = lp_optimize(unit(dim, i), ineq=(a, b), sense=sense)
            if result.status is LpStatus.UNBOUNDED:
                return False
    return True


# -- Reference (vertex, facet) checks: the ``Fraction`` dot products that the
# integer rows of a polytope space replaced, kept as they were so errors,
# membership results and verification reports can be compared.


def _fmt(values: Vec) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def fraction_validation_error(
    measurements: tuple[MeasurementSpec, ...], space: PolytopeStateSpace
) -> str | None:
    """The message theory validation gives a polytope space, or None if it is valid."""
    dim = 1 + sum(m.outcomes - 1 for m in measurements)
    for v in space.vertices:
        if len(v) != dim:
            return f"vertex {_fmt(v)} has {len(v)} entries, expected {dim}"
        if v[0] != 1:
            return f"vertex {_fmt(v)} is not normalised (n != 1)"
        offset = 1
        for m in measurements:
            kept = v[offset : offset + m.outcomes - 1]
            offset += m.outcomes - 1
            for j, p in enumerate(kept + (v[0] - sum(kept, ZERO),)):
                if p < 0 or p > 1:
                    return f"vertex {_fmt(v)}: p({m.label}={j}) = {p} is outside [0, 1]"
    for g in space.cone_facets:
        if len(g) != dim:
            return "facet dimension does not match the theory"
        for v in space.vertices:
            if dot(g, v) > 0:
                return f"vertex {_fmt(v)} violates the supplied facet {_fmt(g)}"
    return None


def sorted_set_rows(rows: Mat) -> tuple[Mat, tuple[tuple[tuple[int, ...], int], ...]]:
    """A polytope space's stored rows and integer rows, by the ``Fraction`` route.

    ``sorted(set(rows))`` on the rational tuples, then each kept row scaled
    to integers on its own: what ``theories._canonical_rows`` does in one
    integer pass.
    """
    canonical = tuple(sorted(set(rows)))
    return canonical, tuple((tuple(x), s) for x, s in map(scale_to_integers, canonical))


def fraction_membership(t: TheorySpec, s: StateVec) -> MembershipResult:
    """Polytope membership with one ``Fraction`` dot product per facet."""
    x = to_minimal(s).entries
    n = x[0]
    if n < 0:
        return MembershipResult(False, f"normalisation n = {n} is negative")
    if n > 1:
        return MembershipResult(False, f"normalisation n = {n} exceeds 1")
    for g in t.state_space.cone_facets:
        if dot(g, x) > 0:
            return MembershipResult(False, f"violates facet {_fmt(g)} . x <= 0")
    return MembershipResult(True)


def fraction_verify(cs: ConstraintSystem, transform: Mat) -> VerificationReport:
    """Verification of a map on a polytope theory: every vertex image by membership."""
    t = cs.theory
    ident = identity(t.dim)
    violations = []
    for v in t.state_space.vertices:
        image = matvec(transform, v)
        result = fraction_membership(t, StateVec(Rep.MINIMAL, image, t))
        if not result.is_inside:
            violations.append((v, image, result.violation))
    return VerificationReport(
        branch=cs.acting_branch,
        branch_row_residuals=tuple(
            vec_sub(transform[r], ident[r]) for r in range(cs.branch_row_count)
        ),
        fixed_vector_residuals=tuple(
            vec_sub(matvec(transform, v), v) for v in cs.fixed_vectors
        ),
        membership_violations=tuple(violations),
        method="vertex-images",
        exhaustive=True,
    )


# -- Reference family members: one whole-matrix add per direction, as family
# members were built before each parameter went straight into its row.


def matrix_family_member(stage: LinearStage, point: Vec) -> Mat:
    """``base + sum(point_k * direction_k)``, one scaled matrix at a time."""
    result = stage.base
    for lam, direction in zip(point, stage.free_directions):
        if lam != 0:
            result = tuple(
                tuple(x + lam * y for x, y in zip(row, step))
                for row, step in zip(result, direction)
            )
    return result


# -- Reference ball route: the candidates, poles, witnesses and membership
# test computed through the expectation-picture conversion matrices, as they
# were before they were read off the minimal coordinates.


def embed_phase_block(t: TheorySpec, block: Mat) -> Mat:
    """Lift a 2x2 map of the two non-branch expectation axes to minimal coordinates."""
    d = t.dim
    t_exp = [list(row) for row in identity(d)]
    for i in range(2):
        for j in range(2):
            t_exp[2 + i][2 + j] = block[i][j]
    to_min = expectation_to_minimal_matrix(t)
    to_exp = minimal_to_expectation_matrix(t)
    return matmul(to_min, matmul(tuple(tuple(r) for r in t_exp), to_exp))


def matrix_ball_escapes(t: TheorySpec, transform: Mat) -> list[Vec]:
    """Moving poles, or one pure state that ``M`` stretches, found in the expectation picture."""
    to_min = expectation_to_minimal_matrix(t)
    poles = [matvec(to_min, (ONE, z, ZERO, ZERO)) for z in (ONE, -ONE)]
    moving = [p for p in poles if matvec(transform, p) != p]
    if moving:
        return moving
    t_exp = matmul(minimal_to_expectation_matrix(t), matmul(transform, to_min))
    (m11, m12), (m21, m22) = t_exp[2][2:], t_exp[3][2:]
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
        w = (-g12, g11)
    else:
        w = (g22 + 1, -g12)
    a = w[0] * w[0] + w[1] * w[1]
    k = 2 / (a + 1)
    return [matvec(to_min, (ONE, (a - 1) / (a + 1), k * w[0], k * w[1]))]


def matrix_ball_membership(t: TheorySpec, s: StateVec) -> MembershipResult:
    """Ball membership on the expectation entries the conversion matrices give."""
    x = to_minimal(s).entries
    n = x[0]
    if n < 0:
        return MembershipResult(False, f"normalisation n = {n} is negative")
    if n > 1:
        return MembershipResult(False, f"normalisation n = {n} exceeds 1")
    e = to_expectation(StateVec(Rep.MINIMAL, x, t)).entries
    radius_sq = sum((v * v for v in e[1:]), ZERO)
    if radius_sq > n * n:
        return MembershipResult(
            False, f"squared expectation length {radius_sq} exceeds n^2 = {n * n}"
        )
    return MembershipResult(True)


def matrix_ball_verify(cs: ConstraintSystem, transform: Mat) -> VerificationReport:
    """Verification of a map on the ball through the conversion matrices."""
    t = cs.theory
    ident = identity(t.dim)
    branch_residuals = tuple(
        vec_sub(transform[r], ident[r]) for r in range(cs.branch_row_count)
    )
    violations = []
    if all(is_zero_vec(r) for r in branch_residuals):
        for state in matrix_ball_escapes(t, transform):
            image = matvec(transform, state)
            result = matrix_ball_membership(t, StateVec(Rep.MINIMAL, image, t))
            violations.append((state, image, result.violation))
    return VerificationReport(
        branch=cs.acting_branch,
        branch_row_residuals=branch_residuals,
        fixed_vector_residuals=tuple(
            vec_sub(matvec(transform, v), v) for v in cs.fixed_vectors
        ),
        membership_violations=tuple(violations),
        method="contraction-block",
        exhaustive=True,
    )
