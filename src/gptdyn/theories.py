"""Single-system probabilistic theories: measurements, states, membership.

A theory is a list of measurements (exactly one of them designated as the
branch measurement, listed first) plus a state space.  States live in one
of three interchangeable pictures:

* probability - one probability per measurement outcome, blocks in
  measurement order; each block sums to the shared normalisation ``n``;
* expectation - ``(n, <G_1>, <G_2>, ...)`` with ``<G> = p(G=0) - p(G=1)``;
  only defined when every measurement is binary;
* minimal - ``(n, leading branch probabilities, leading probabilities of
  each further measurement)``; all entries are independent once ``n`` is
  fixed, and this is the picture transformations act on.

The minimal picture has dimension ``d = N + M`` where ``N`` is the branch
outcome count and ``M`` is the number of leftover degrees of freedom
contributed by the other measurements.  Sub-normalised states
(``0 <= n <= 1``) are first-class members throughout: the state set is the
truncated cone over the normalised body, which is what makes the
fixed-state constraints of the solver linear rather than affine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm

from .exactla import (
    Mat,
    ONE,
    Vec,
    ZERO,
    dot,
    int_dot,
    matmul,
    matvec,
    rank,
    scale_to_integers,
    unit,
    vec,
)
from .polytopes import (
    Halfspace,
    canonical_halfspace,
    facet_enumeration,
    slice_polytope,
)


class TheoryValidationError(ValueError):
    """A theory description violates one of its structural invariants."""


class UnsupportedRepresentationError(ValueError):
    """A representation was requested that the theory does not define."""


class DegenerateTheoryError(ValueError):
    """The theory's states do not span its state space as the analysis requires."""


class Role(Enum):
    BRANCH = "branch"
    FIDUCIAL = "fiducial"


class Rep(Enum):
    PROBABILITY = "probability"
    EXPECTATION = "expectation"
    MINIMAL = "minimal"


@dataclass(frozen=True)
class MeasurementSpec:
    label: str
    outcomes: int
    role: Role


@dataclass(frozen=True)
class PolytopeStateSpace:
    """Normalised vertices plus the homogenised facets of the state cone.

    ``vertices`` are minimal-representation rows with ``n = 1``.
    ``cone_facets`` rows ``g`` encode ``g . x <= 0`` for every sub-normalised
    member ``x``; together with ``0 <= n <= 1`` they are the exact
    membership test.  Both are stored de-duplicated and sorted so equal
    state spaces compare equal no matter how they were constructed.

    ``int_vertices`` and ``int_facets`` hold the same rows in integers: each
    row as ``(numerators, scale)``, the row times the lcm of its
    denominators and that positive lcm
    (:func:`~gptdyn.exactla.scale_to_integers`), in the order of the
    rational rows.  Signs of dot products are the same on them, so the
    (vertex, facet) loops of validation, membership, the solver and
    verification run on them.  They are derived, so they take no part in
    ``==``, ``hash`` or ``repr``.

    Both forms come from one pass per row set, when the space is built:
    each row is scaled once, and the rows are de-duplicated and sorted on
    ``numerators * (L // scale)``, the row times the lcm ``L`` of all the
    row scales.  One common positive factor keeps the rational order, so
    no ``Fraction`` is compared.
    """

    vertices: Mat
    cone_facets: Mat
    int_vertices: tuple[tuple[tuple[int, ...], int], ...] = field(
        init=False, repr=False, compare=False
    )
    int_facets: tuple[tuple[tuple[int, ...], int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        vertices, int_vertices = _canonical_rows(self.vertices)
        cone_facets, int_facets = _canonical_rows(self.cone_facets)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "cone_facets", cone_facets)
        object.__setattr__(self, "int_vertices", int_vertices)
        object.__setattr__(self, "int_facets", int_facets)


def _canonical_rows(
    rows: Mat,
) -> tuple[Mat, tuple[tuple[tuple[int, ...], int], ...]]:
    """``rows`` de-duplicated and sorted, and their integer forms, in one pass."""
    scaled = [(row, *scale_to_integers(row)) for row in rows]
    common = lcm(*(scale for _, _, scale in scaled))
    unique = {}
    for row, numerators, scale in scaled:
        ints = tuple(numerators)
        key = ints if scale == common else tuple(x * (common // scale) for x in ints)
        if key not in unique:
            unique[key] = (row, (ints, scale))
    ordered = [unique[key] for key in sorted(unique)]
    return tuple(row for row, _ in ordered), tuple(ints for _, ints in ordered)


@dataclass(frozen=True)
class BallStateSpace:
    """The round state space: sum of squared expectations bounded by ``n^2``."""


StateSpace = PolytopeStateSpace | BallStateSpace


@dataclass(frozen=True)
class StateVec:
    rep: Rep
    entries: Vec
    theory: "TheorySpec"


@dataclass(frozen=True)
class Effect:
    vector: Vec
    rep: Rep
    measurement: str
    outcome: int


@dataclass(frozen=True)
class MembershipResult:
    is_inside: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.is_inside


@dataclass(frozen=True)
class TheorySpec:
    measurements: tuple[MeasurementSpec, ...]
    state_space: StateSpace

    def __post_init__(self) -> None:
        _validate_theory(self)

    # -- dimension bookkeeping ------------------------------------------------

    @property
    def branch(self) -> MeasurementSpec:
        return self.measurements[0]

    @property
    def branch_outcomes(self) -> int:
        """Number of branch-measurement outcomes (N)."""
        return self.branch.outcomes

    @property
    def extra_freedoms(self) -> int:
        """Degrees of freedom beyond the branch statistics (M)."""
        return sum(m.outcomes - 1 for m in self.measurements[1:])

    @property
    def dim(self) -> int:
        """Minimal-representation dimension d = N + M."""
        return self.branch_outcomes + self.extra_freedoms

    @property
    def prob_dim(self) -> int:
        return sum(m.outcomes for m in self.measurements)

    @property
    def is_binary(self) -> bool:
        return all(m.outcomes == 2 for m in self.measurements)

    def measurement(self, label: str) -> MeasurementSpec:
        for m in self.measurements:
            if m.label == label:
                return m
        raise ValueError(f"unknown measurement {label!r}")

    def block_offset(self, label: str) -> int:
        """Offset of a measurement's kept probabilities in the minimal picture."""
        offset = 1
        for m in self.measurements:
            if m.label == label:
                return offset
            offset += m.outcomes - 1
        raise ValueError(f"unknown measurement {label!r}")

    def full_probabilities(self, minimal_entries: Vec, label: str) -> Vec:
        """All outcome probabilities of one measurement, last one by subtraction."""
        m = self.measurement(label)
        offset = self.block_offset(label)
        kept = minimal_entries[offset : offset + m.outcomes - 1]
        return kept + (minimal_entries[0] - sum(kept, ZERO),)

    # -- state constructors ----------------------------------------------------

    def minimal_state(self, entries) -> StateVec:
        v = vec(entries)
        if len(v) != self.dim:
            raise ValueError(f"minimal state needs {self.dim} entries, got {len(v)}")
        return StateVec(Rep.MINIMAL, v, self)

    def probability_state(self, entries) -> StateVec:
        v = vec(entries)
        if len(v) != self.prob_dim:
            raise ValueError(
                f"probability state needs {self.prob_dim} entries, got {len(v)}"
            )
        return StateVec(Rep.PROBABILITY, v, self)

    def expectation_state(self, entries) -> StateVec:
        if not self.is_binary:
            raise UnsupportedRepresentationError(
                "the expectation picture requires binary measurements"
            )
        v = vec(entries)
        if len(v) != self.dim:
            raise ValueError(f"expectation state needs {self.dim} entries, got {len(v)}")
        return StateVec(Rep.EXPECTATION, v, self)

    # -- conversion matrices, built on first use ------------------------------

    @cached_property
    def _expectation_to_minimal(self) -> Mat:
        return matmul(prob_to_minimal_matrix(self), expectation_to_prob_matrix(self))

    @cached_property
    def _minimal_to_expectation(self) -> Mat:
        return matmul(prob_to_expectation_matrix(self), minimal_to_prob_matrix(self))

    @cached_property
    def states_span_space(self) -> bool:
        """Whether the valid states span the minimal space, as the solver needs."""
        return rank(spanning_states(self)) == self.dim


def _validate_theory(t: TheorySpec) -> None:
    if not t.measurements:
        raise TheoryValidationError("a theory needs at least one measurement")
    labels = [m.label for m in t.measurements]
    if len(set(labels)) != len(labels):
        raise TheoryValidationError(f"duplicate measurement labels in {labels}")
    branch_count = sum(1 for m in t.measurements if m.role is Role.BRANCH)
    if branch_count != 1:
        raise TheoryValidationError(
            f"exactly one measurement must have the branch role, found {branch_count}"
        )
    if t.measurements[0].role is not Role.BRANCH:
        raise TheoryValidationError(
            "the branch measurement must be listed first; the minimal "
            "representation keys its leading block to it"
        )
    for m in t.measurements:
        if m.outcomes < 2:
            raise TheoryValidationError(
                f"measurement {m.label!r} needs at least 2 outcomes"
            )

    space = t.state_space
    if isinstance(space, BallStateSpace):
        if t.branch_outcomes != 2 or len(t.measurements) != 3 or not t.is_binary:
            raise TheoryValidationError(
                "a ball state space requires a binary branch measurement "
                "plus exactly two further binary measurements"
            )
        return

    if not space.vertices:
        raise TheoryValidationError("a polytope state space needs vertices")
    if not space.cone_facets:
        raise TheoryValidationError("a polytope state space needs facets")
    # On the integer rows a vertex v = x / s has n = 1 iff x[0] = s, and each
    # probability p = q / s lies in [0, 1] iff 0 <= q <= s.
    dim = t.dim
    blocks = []
    offset = 1
    for m in t.measurements:
        blocks.append((m.label, offset, offset + m.outcomes - 1))
        offset += m.outcomes - 1
    for v, (x, s) in zip(space.vertices, space.int_vertices):
        if len(v) != dim:
            raise TheoryValidationError(
                f"vertex {_fmt(v)} has {len(v)} entries, expected {dim}"
            )
        if x[0] != s:
            raise TheoryValidationError(f"vertex {_fmt(v)} is not normalised (n != 1)")
        for label, start, stop in blocks:
            kept = x[start:stop]
            probabilities = (*kept, s - sum(kept))
            if min(probabilities) >= 0 and max(probabilities) <= s:
                continue
            j, q = next((j, q) for j, q in enumerate(probabilities) if q < 0 or q > s)
            raise TheoryValidationError(
                f"vertex {_fmt(v)}: p({label}={j}) = {Fraction(q, s)} is outside [0, 1]"
            )
    points = [x for x, _ in space.int_vertices]
    for g, (h, _) in zip(space.cone_facets, space.int_facets):
        if len(g) != dim:
            raise TheoryValidationError("facet dimension does not match the theory")
        if max(map(int_dot, repeat(h), points)) > 0:
            v = next(v for v, x in zip(space.vertices, points) if int_dot(h, x) > 0)
            raise TheoryValidationError(
                f"vertex {_fmt(v)} violates the supplied facet {_fmt(g)}"
            )


def _fmt(values: Vec) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# -- state-space constructors ---------------------------------------------------


def polytope_from_vertices(vertices: Mat) -> PolytopeStateSpace:
    """Derive the facets of the normalised slice by double description.

    Only possible for minimal dimension d <= 7 (slice dimension at most
    ``MAX_ENUM_DIM`` = 6); beyond that ``facet_enumeration`` raises
    ``UnsupportedDimensionError``.  Halfspace configs share the limit, since
    ``polytope_from_halfspaces`` enumerates vertices under the same cap.
    """
    if not vertices:
        raise TheoryValidationError("a polytope state space needs vertices")
    slice_facets = facet_enumeration([v[1:] for v in vertices])
    cone = tuple((-b,) + a for a, b in slice_facets)
    return PolytopeStateSpace(vertices=tuple(vertices), cone_facets=cone)


def polytope_from_halfspaces(halfspaces: list[Halfspace]) -> PolytopeStateSpace:
    """Build a polytope space from halfspaces ``a . x <= b`` over normalised states.

    ``a`` has one entry per minimal coordinate (the first multiplies ``n``)
    and the inequality is read on the ``n = 1`` slice, then homogenised to
    the sub-normalised cone.  One ``slice_polytope`` pass gives the slice's
    vertices and boundedness, so a slice dimension above ``MAX_ENUM_DIM``
    raises ``UnsupportedDimensionError`` before any LP.
    """
    if not halfspaces:
        raise TheoryValidationError("a polytope state space needs halfspaces")
    slice_vertices, bounded = slice_polytope([(a[1:], b - a[0]) for a, b in halfspaces])
    if not bounded:
        raise TheoryValidationError(
            "the supplied halfspaces do not bound a polytope of normalised states"
        )
    if not slice_vertices:
        raise TheoryValidationError("the supplied halfspaces admit no vertex")
    vertices = tuple((ONE,) + w for w in slice_vertices)
    cone = tuple(
        canonical_halfspace((a[0] - b,) + a[1:], ZERO)[0] for a, b in halfspaces
    )
    return PolytopeStateSpace(vertices=vertices, cone_facets=cone)


# -- representation conversion matrices ------------------------------------------


def prob_to_minimal_matrix(t: TheorySpec) -> Mat:
    """Drop each block's final probability and prepend the normalisation row."""
    rows = [_branch_block_sum_row(t)]
    col = 0
    for m in t.measurements:
        for j in range(m.outcomes - 1):
            rows.append(unit(t.prob_dim, col + j))
        col += m.outcomes
    return tuple(rows)


def _branch_block_sum_row(t: TheorySpec) -> Vec:
    return tuple(
        ONE if i < t.branch_outcomes else ZERO for i in range(t.prob_dim)
    )


def minimal_to_prob_matrix(t: TheorySpec) -> Mat:
    """Reconstruct every dropped probability as ``n`` minus its block's rest."""
    rows = []
    for m in t.measurements:
        offset = t.block_offset(m.label)
        for j in range(m.outcomes - 1):
            rows.append(unit(t.dim, offset + j))
        last = [ZERO] * t.dim
        last[0] = ONE
        for j in range(m.outcomes - 1):
            last[offset + j] = -ONE
        rows.append(tuple(last))
    return tuple(rows)


def prob_to_expectation_matrix(t: TheorySpec) -> Mat:
    """The probability-to-expectation matrix, one difference row per measurement.

    For two binary measurements this is exactly

        [[1/2, 1/2, 1/2, 1/2],
         [  1,  -1,   0,   0],
         [  0,   0,   1,  -1]]

    and more measurements extend it blockwise (the top row averages all the
    block sums, each further row differences one block).
    """
    _require_binary(t)
    count = len(t.measurements)
    rows = [tuple(Fraction(1, count) for _ in range(t.prob_dim))]
    for i in range(count):
        row = [ZERO] * t.prob_dim
        row[2 * i] = ONE
        row[2 * i + 1] = -ONE
        rows.append(tuple(row))
    return tuple(rows)


def expectation_to_prob_matrix(t: TheorySpec) -> Mat:
    """Blockwise inverse: ``p(G=0) = (n + <G>)/2`` and ``p(G=1) = (n - <G>)/2``."""
    _require_binary(t)
    half = Fraction(1, 2)
    rows = []
    for i in range(len(t.measurements)):
        for sign in (half, -half):
            row = [ZERO] * t.dim
            row[0] = half
            row[1 + i] = sign
            rows.append(tuple(row))
    return tuple(rows)


def expectation_to_minimal_matrix(t: TheorySpec) -> Mat:
    """Expectation to minimal picture; built once per theory and then shared."""
    return t._expectation_to_minimal


def minimal_to_expectation_matrix(t: TheorySpec) -> Mat:
    """Minimal to expectation picture; built once per theory and then shared."""
    return t._minimal_to_expectation


def _require_binary(t: TheorySpec) -> None:
    if not t.is_binary:
        raise UnsupportedRepresentationError(
            "the expectation picture requires binary measurements"
        )


def _check_equal_block_sums(t: TheorySpec, entries: Vec) -> None:
    sums = []
    col = 0
    for m in t.measurements:
        sums.append(sum(entries[col : col + m.outcomes], ZERO))
        col += m.outcomes
    if any(s != sums[0] for s in sums):
        raise TheoryValidationError(
            "blocks carry different normalisations: "
            + ", ".join(
                f"{m.label}={s}" for m, s in zip(t.measurements, sums)
            )
        )


# -- state conversions ------------------------------------------------------------


def to_expectation(s: StateVec) -> StateVec:
    t = s.theory
    _require_binary(t)
    if s.rep is Rep.EXPECTATION:
        return s
    if s.rep is Rep.PROBABILITY:
        _check_equal_block_sums(t, s.entries)
        return StateVec(Rep.EXPECTATION, matvec(prob_to_expectation_matrix(t), s.entries), t)
    return StateVec(Rep.EXPECTATION, matvec(minimal_to_expectation_matrix(t), s.entries), t)


def to_probability(s: StateVec) -> StateVec:
    t = s.theory
    if s.rep is Rep.PROBABILITY:
        return s
    if s.rep is Rep.EXPECTATION:
        return StateVec(Rep.PROBABILITY, matvec(expectation_to_prob_matrix(t), s.entries), t)
    return StateVec(Rep.PROBABILITY, matvec(minimal_to_prob_matrix(t), s.entries), t)


def to_minimal(s: StateVec) -> StateVec:
    t = s.theory
    if s.rep is Rep.MINIMAL:
        return s
    if s.rep is Rep.PROBABILITY:
        _check_equal_block_sums(t, s.entries)
        return StateVec(Rep.MINIMAL, matvec(prob_to_minimal_matrix(t), s.entries), t)
    return StateVec(Rep.MINIMAL, matvec(expectation_to_minimal_matrix(t), s.entries), t)


def from_minimal(s: StateVec) -> StateVec:
    """Inverse of :func:`to_minimal`: rebuild the probability picture."""
    if s.rep is not Rep.MINIMAL:
        raise ValueError(f"from_minimal expects a minimal state, got {s.rep.value}")
    return to_probability(s)


# -- membership -------------------------------------------------------------------


def membership(t: TheorySpec, s: StateVec) -> MembershipResult:
    """Exact state-space membership, sub-normalised states included."""
    x = to_minimal(s).entries
    if len(x) != t.dim:
        raise ValueError(f"state of length {len(x)} in a theory of dimension {t.dim}")
    n = x[0]
    if n < 0:
        return MembershipResult(False, f"normalisation n = {n} is negative")
    if n > 1:
        return MembershipResult(False, f"normalisation n = {n} exceeds 1")
    space = t.state_space
    if isinstance(space, BallStateSpace):
        # Minimal entries 1-3 are p = (n + <G>)/2 for Z, X and Y.
        radius_sq = sum(((2 * p - n) ** 2 for p in x[1:]), ZERO)
        if radius_sq > n * n:
            return MembershipResult(
                False,
                f"squared expectation length {radius_sq} exceeds n^2 = {n * n}",
            )
        return MembershipResult(True)
    scaled, _ = scale_to_integers(x)
    for g, (h, _) in zip(space.cone_facets, space.int_facets):
        if int_dot(h, scaled) > 0:
            return MembershipResult(False, f"violates facet {_fmt(g)} . x <= 0")
    return MembershipResult(True)


# -- effects ----------------------------------------------------------------------


def effect(t: TheorySpec, label: str, outcome: int, rep: Rep = Rep.MINIMAL) -> Effect:
    """Effect vector for one measurement outcome in the requested picture."""
    m = t.measurement(label)
    if not 0 <= outcome < m.outcomes:
        raise ValueError(f"measurement {label!r} has no outcome {outcome}")
    if rep is Rep.PROBABILITY:
        col = 0
        for other in t.measurements:
            if other.label == label:
                break
            col += other.outcomes
        return Effect(unit(t.prob_dim, col + outcome), rep, label, outcome)
    if rep is Rep.EXPECTATION:
        _require_binary(t)
        half = Fraction(1, 2)
        row = [ZERO] * t.dim
        row[0] = half
        index = next(i for i, mm in enumerate(t.measurements) if mm.label == label)
        row[1 + index] = half if outcome == 0 else -half
        return Effect(tuple(row), rep, label, outcome)
    offset = t.block_offset(label)
    if outcome < m.outcomes - 1:
        return Effect(unit(t.dim, offset + outcome), rep, label, outcome)
    row = [ZERO] * t.dim
    row[0] = ONE
    for j in range(m.outcomes - 1):
        row[offset + j] = -ONE
    return Effect(tuple(row), rep, label, outcome)


def outcome_probability(s: StateVec, e: Effect) -> Fraction:
    if s.rep is not e.rep:
        raise ValueError(
            f"effect in the {e.rep.value} picture applied to a {s.rep.value} state"
        )
    if len(s.entries) != len(e.vector):
        raise ValueError("effect and state dimensions differ")
    return dot(e.vector, s.entries)


# -- named theories -----------------------------------------------------------------


def make_boxworld(settings: int, outcomes: int) -> TheorySpec:
    """Box-world with ``settings`` measurements of ``outcomes`` outcomes each.

    The state space is every probabilistic mixture of the deterministic
    outcome assignments (``outcomes ** settings`` corners); its facets are
    exactly the outcome-probability nonnegativity constraints, which is why
    they can be written down directly in any dimension.
    """
    if settings < 2 or outcomes < 2:
        raise ValueError("box-world needs at least 2 settings of at least 2 outcomes")
    measurements = [MeasurementSpec("Z", outcomes, Role.BRANCH)]
    if settings == 2:
        measurements.append(MeasurementSpec("X", outcomes, Role.FIDUCIAL))
    else:
        measurements.extend(
            MeasurementSpec(f"X{i}", outcomes, Role.FIDUCIAL)
            for i in range(1, settings)
        )
    dim = 1 + settings * (outcomes - 1)
    vertices = []
    assignments = [[]]
    for _ in range(settings):
        assignments = [a + [o] for a in assignments for o in range(outcomes)]
    for assignment in assignments:
        entries = [ONE]
        for chosen in assignment:
            entries.extend(
                ONE if chosen == j else ZERO for j in range(outcomes - 1)
            )
        vertices.append(tuple(entries))
    facets = []
    offset = 1
    for _ in range(settings):
        for j in range(outcomes - 1):
            facets.append(tuple(-ONE if c == offset + j else ZERO for c in range(dim)))
        last = [ZERO] * dim
        last[0] = -ONE
        for j in range(outcomes - 1):
            last[offset + j] = ONE
        facets.append(tuple(last))
        offset += outcomes - 1
    return TheorySpec(
        measurements=tuple(measurements),
        state_space=PolytopeStateSpace(tuple(vertices), tuple(facets)),
    )


def make_gbit() -> TheorySpec:
    """The square state space: two binary measurements, no uncertainty."""
    return make_boxworld(2, 2)


def make_qubit() -> TheorySpec:
    """Binary Z, X, Y constrained by the round uncertainty trade-off."""
    return TheorySpec(
        measurements=(
            MeasurementSpec("Z", 2, Role.BRANCH),
            MeasurementSpec("X", 2, Role.FIDUCIAL),
            MeasurementSpec("Y", 2, Role.FIDUCIAL),
        ),
        state_space=BallStateSpace(),
    )


def make_classical(outcomes: int) -> TheorySpec:
    """A single branch measurement over a probability simplex."""
    if outcomes < 2:
        raise ValueError("a classical theory needs at least 2 outcomes")
    boxless = [MeasurementSpec("Z", outcomes, Role.BRANCH)]
    dim = outcomes
    vertices = []
    for chosen in range(outcomes):
        entries = [ONE]
        entries.extend(ONE if chosen == j else ZERO for j in range(outcomes - 1))
        vertices.append(tuple(entries))
    facets = []
    for j in range(outcomes - 1):
        facets.append(tuple(-ONE if c == 1 + j else ZERO for c in range(dim)))
    last = [ZERO] * dim
    last[0] = -ONE
    for j in range(outcomes - 1):
        last[1 + j] = ONE
    facets.append(tuple(last))
    return TheorySpec(
        measurements=tuple(boxless),
        state_space=PolytopeStateSpace(tuple(vertices), tuple(facets)),
    )


def make_octahedron() -> TheorySpec:
    """The square rotated 45 degrees: |<Z>| + |<X>| <= n.

    Not one of the standard named theories; it is the smallest example that
    is conditionally restricted at every branch while keeping one free
    parameter, which makes it the natural foil for the square when
    demonstrating that restricting states buys transformation freedom.
    """
    half = Fraction(1, 2)
    vertices = (
        vec([1, 1, half]),
        vec([1, 0, half]),
        vec([1, half, 1]),
        vec([1, half, 0]),
    )
    return TheorySpec(
        measurements=(
            MeasurementSpec("Z", 2, Role.BRANCH),
            MeasurementSpec("X", 2, Role.FIDUCIAL),
        ),
        state_space=polytope_from_vertices(vertices),
    )


BUILTIN_BUILDERS = {
    "gbit": make_gbit,
    "cube": lambda: make_boxworld(3, 2),
    "qubit": make_qubit,
    "classical2": lambda: make_classical(2),
    "octahedron": make_octahedron,
}


def builtin_theory(name: str) -> TheorySpec:
    try:
        builder = BUILTIN_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_BUILDERS))
        raise ValueError(f"unknown builtin theory {name!r}; known: {known}") from None
    return builder()


def spanning_states(t: TheorySpec) -> Mat:
    """A finite set of members whose linear span is the whole minimal space."""
    space = t.state_space
    if isinstance(space, PolytopeStateSpace):
        return space.vertices
    half = Fraction(1, 2)
    states = []
    for i in range(len(t.measurements)):
        for value in (ONE, ZERO):
            entries = [ONE] + [half] * (t.dim - 1)
            entries[1 + i] = value
            states.append(tuple(entries))
    return tuple(states)
