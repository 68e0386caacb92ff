"""The four workloads: seeded inputs, the operations of one pass, exact checks.

Each workload is a class with three steps:

* ``__init__(gd, rng, tmp)`` is the timed set-up: it builds every input
  (theories, config texts, transformation files) from the benchmark seed,
  using gptdyn only to construct the named theories it ships;
* ``reference()`` computes the expected answers that need a brute force of
  the benchmark's own (``oracle``); it runs once per run, untimed;
* ``ops(ctx)`` yields the operations of one pass.  An operation is one load,
  one solve of one branch, one verify or one CLI command.  ``ctx`` holds the
  outputs of the operations already run in this pass, so the verify
  operations of ``random_family`` can follow the family witnesses its solves
  returned.

Every operation carries a check that returns ``"exact"`` when the output is
the mathematically expected answer, ``"defect"`` when it reproduces one of
the two known gptdyn 0.1.0 defects pinned below, or a message describing
any other outcome (a failure).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

HALF = Fraction(1, 2)
GRID = (Fraction(0), HALF, Fraction(1))


@dataclass
class Op:
    kind: str  # load_v, load_h, solve, verify or cli
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]


def _strs(row):
    return [str(v) for v in row]


def _measurements(fiducials: int) -> list[dict]:
    """A binary branch ``Z`` followed by ``fiducials`` binary measurements."""
    ms = [{"label": "Z", "outcomes": 2, "role": "branch"}]
    ms += [{"label": f"X{i}", "outcomes": 2, "role": "fiducial"} for i in range(1, fiducials + 1)]
    return ms


def _config(measurements, space: dict) -> str:
    return json.dumps({"measurements": measurements, "state_space": space}, indent=2, sort_keys=True)


def _v_config(measurements, vertices) -> str:
    return _config(measurements, {"type": "polytope_v", "vertices": [_strs(v) for v in vertices]})


def _h_config(measurements, halfspaces) -> str:
    rows = [{"a": _strs(a), "b": str(b)} for a, b in halfspaces]
    return _config(measurements, {"type": "polytope_h", "halfspaces": rows})


def _spec_measurements(t) -> list[dict]:
    return [{"label": m.label, "outcomes": m.outcomes, "role": m.role.value} for m in t.measurements]


# Random inputs are fixed shapes drawn once from a constant generator
# (``_base_inputs``); the seed shuffles the order they are listed in.  Moving
# them by a seeded symmetry instead gives problems of the same size, but the
# simplex (in solves and in ``is_bounded``) takes another pivot path on each
# copy, which moved pass_s by about 10% between seeds.


def _random_points(rng, dim: int, count: int) -> list[tuple]:
    """Distinct grid points that affinely span ``dim`` dimensions."""
    cells = list(itertools.product(GRID, repeat=dim))
    while True:
        points = rng.sample(cells, count)
        if oracle.affine_dim(points) == dim:
            return sorted(points)


def _error(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _expect_space(t, vertices, cone_facets) -> str:
    if isinstance(t, BaseException):
        return _error(t)
    space = t.state_space
    if tuple(space.vertices) != tuple(vertices):
        return "vertex set differs from the reference"
    if tuple(space.cone_facets) != tuple(cone_facets):
        return "facet set differs from the reference"
    return "exact"


def _cone_from_slice(slice_facets) -> tuple:
    return tuple(sorted(set(oracle.cone_row(a, b) for a, b in slice_facets)))


def _solve_check(
    ats, kind: str, forced: int, family_dim: int | None = None, witness_ok=None
) -> str:
    """Compare a solve result with its exact expected shape."""
    if isinstance(ats, BaseException):
        return _error(ats)
    if ats.result_kind() != kind:
        return f"result {ats.result_kind()}, expected {kind}"
    if ats.forced_fixed_count != forced:
        return f"forced fixed count {ats.forced_fixed_count}, expected {forced}"
    if family_dim is not None and ats.family_dim() != family_dim:
        return f"family dimension {ats.family_dim()}, expected {family_dim}"
    if witness_ok is not None and not witness_ok(ats):
        return "a family witness fails the independent map check"
    return "exact"


def _witness_maps(gd, ats) -> list:
    family = ats.state_preserving
    return [gd.solver.family_member(ats.linear_stage, w) for w in family.witnesses]


def _fixed_vectors(vertices, branch: int) -> list:
    """Vertices certain to sit in the other branch of a binary ``Z``."""
    other = Fraction(0) if branch == 0 else Fraction(1)
    return [v for v in vertices if v[1] == other]


def _family_ok(gd, t, branch: int, cone_facets):
    def ok(ats) -> bool:
        vertices = t.state_space.vertices
        fixed = _fixed_vectors(vertices, branch)
        maps = _witness_maps(gd, ats)
        nonzero = any(any(x != 0 for x in w) for w in ats.state_preserving.witnesses)
        return nonzero and all(
            oracle.preserves(m, vertices, cone_facets, fixed, t.branch_outcomes) for m in maps
        )

    return ok


# -- boxworld_frozen -----------------------------------------------------------------


class BoxworldFrozen:
    """Frozen theories: the solver's linear stage and inequality assembly at their largest."""

    def __init__(self, gd, rng, tmp) -> None:
        self.gd = gd
        th = gd.theories
        cases = [(name, th.builtin_theory(name)) for name in ("gbit", "cube", "classical2", "octahedron")]
        cases += [(f"boxworld{so}", th.make_boxworld(*so)) for so in ((3, 3), (6, 2), (3, 4))]
        self.items = []
        for name, t in cases:
            branches = [0] if name == "boxworld(3, 4)" else range(t.branch_outcomes)
            self.items += [(name, t, b) for b in branches]
        rng.shuffle(self.items)
        self.octahedron_facets = None

    def reference(self) -> None:
        t = self.gd.theories.builtin_theory("octahedron")
        slice_points = [v[1:] for v in t.state_space.vertices]
        self.octahedron_facets = _cone_from_slice(oracle.slice_facets(slice_points))

    def _check(self, name, t, branch):
        if name == "octahedron":
            # |<Z>| + |<X>| <= n: acting on one branch leaves exactly <X> -> c<X>, |c| <= 1.
            ok = _family_ok(self.gd, t, branch, self.octahedron_facets)
            return lambda ats: _solve_check(ats, "family", t.branch_outcomes, 1, ok)
        # Fully independent theories freeze: only the identity, and d forced fixed states.
        return lambda ats: _solve_check(ats, "unique_identity", t.dim, 0)

    def ops(self, ctx):
        solver = self.gd.solver
        for name, t, b in self.items:
            yield Op(
                "solve",
                f"{name}/{b}",
                lambda t=t, b=b: solver.allowed_transform_set(t, b),
                self._check(name, t, b),
            )


# -- random_family ---------------------------------------------------------------------

# Vertices on the certain faces (p(Z=0) = 1, then 0) and strictly between them
# (p(Z=0) = 1/2).  Every shape with at least four points, so each theory spans
# its three-dimensional slice.
FAMILY_SHAPES = [s for s in itertools.product((1, 2), (1, 2), (1, 2, 3)) if sum(s) >= 4]


def _family_points(rng, shape) -> list[tuple]:
    cells = list(itertools.product(GRID, repeat=2))
    while True:
        points = []
        for z, count in zip((Fraction(1), Fraction(0), HALF), shape):
            points += [(z,) + c for c in rng.sample(cells, count)]
        if oracle.affine_dim(points) == 3:
            return points


class RandomFamily:
    """Seeded random theories that mostly keep a family: the exact LPs dominate."""

    def __init__(self, gd, rng, tmp) -> None:
        self.gd = gd
        self.theories = []
        measurements = _measurements(2)
        for i, (shape, points) in enumerate(FAMILY_BASE):
            vertices = tuple(sorted((Fraction(1),) + p for p in points))
            listed = rng.sample(vertices, len(vertices))
            self.theories.append((f"t{i}{shape}", vertices, _v_config(measurements, listed)))
        rng.shuffle(self.theories)
        self.expected = {}

    def reference(self) -> None:
        for label, vertices, _ in self.theories:
            self.expected[label] = _cone_from_slice(oracle.slice_facets([v[1:] for v in vertices]))

    def _check_solve(self, label, vertices, branch):
        cone = self.expected[label]

        def check(ats):
            if isinstance(ats, BaseException):
                return _error(ats)
            fixed = _fixed_vectors(vertices, branch)
            kernel = len(vertices[0]) - oracle.rank(fixed)
            if ats.linear_stage.dim != 2 * kernel:
                return f"linear stage dimension {ats.linear_stage.dim}, expected {2 * kernel}"
            forced = oracle.rank(fixed) + 1
            if ats.result_kind() == "unique_identity":
                return _solve_check(ats, "unique_identity", forced, 0)
            ok = _family_ok(self.gd, ats.theory, branch, cone)
            result = _solve_check(ats, "family", forced, None, ok)
            if result == "exact" and not 1 <= ats.family_dim() <= ats.linear_stage.dim:
                return f"family dimension {ats.family_dim()} out of range"
            return result

        return check

    def ops(self, ctx):
        gd = self.gd
        for label, vertices, text in self.theories:
            yield Op(
                "load_v",
                label,
                lambda text=text: gd.theory_io.load_theory(text),
                lambda t, v=vertices, label=label: _expect_space(t, v, self.expected[label]),
            )
            t = ctx[label]
            if isinstance(t, BaseException):
                continue
            for b in (0, 1):
                solve_label = f"{label}/{b}"
                yield Op(
                    "solve",
                    solve_label,
                    lambda t=t, b=b: gd.solver.allowed_transform_set(t, b),
                    self._check_solve(label, vertices, b),
                )
                ats = ctx[solve_label]
                if isinstance(ats, BaseException) or ats.result_kind() != "family":
                    continue
                for i, w in enumerate(ats.state_preserving.witnesses):
                    yield Op(
                        "verify",
                        f"{solve_label}/w{i}",
                        lambda t=t, b=b, w=w, ats=ats: gd.solver.verify_transformation(
                            t, gd.solver.family_member(ats.linear_stage, w), b
                        ),
                        _passes,
                    )


def _passes(report) -> str:
    """Verify must pass a witness the independent checker accepted (verdict only)."""
    if isinstance(report, BaseException):
        return _error(report)
    return "exact" if report.passed else "verdict fail, expected pass"


# -- polytope_load ---------------------------------------------------------------------


class PolytopeLoad:
    """V->H facet enumeration beside H->V vertex enumeration plus boundedness."""

    def __init__(self, gd, rng, tmp) -> None:
        th = gd.theories
        self.gd = gd
        # (kind, label, text, vertices or None, cone facets or halfspaces, pinned)
        self.items = []
        for so in ((2, 3), (4, 2), (2, 4)):
            t = th.make_boxworld(*so)
            space = t.state_space
            text = _v_config(_spec_measurements(t), space.vertices)
            # (2, 4) has minimal dimension 7, which gptdyn 0.1.0's loader rejects
            # although enumeration supports slice dimension 6.
            pinned = so == (2, 4)
            self.items.append(("load_v", f"v:boxworld{so}", text, space.vertices, space.cone_facets, pinned))
        for dim, base in RANDOM_V_BASE:
            vertices = tuple((Fraction(1),) + p for p in base)
            text = _v_config(_measurements(dim - 1), rng.sample(vertices, len(vertices)))
            self.items.append(("load_v", f"v:random{dim}", text, vertices, None, False))
        for so in ((3, 3), (5, 2), (6, 2)):
            t = th.make_boxworld(*so)
            space = t.state_space
            text = _h_config(_spec_measurements(t), [(g, Fraction(0)) for g in space.cone_facets])
            self.items.append(("load_h", f"h:boxworld{so}", text, space.vertices, space.cone_facets, False))
        for dim, halfspaces in CUTS_BASE:
            text = _h_config(_measurements(dim - 1), halfspaces)
            self.items.append(("load_h", f"h:cuts{dim}", text, None, halfspaces, False))
        rng.shuffle(self.items)
        self.expected = {}

    def reference(self) -> None:
        for kind, label, _, vertices, facets, _ in self.items:
            if kind == "load_v" and facets is None:
                facets = _cone_from_slice(oracle.slice_facets([v[1:] for v in vertices]))
            elif kind == "load_h" and vertices is None:
                slice_h = [(a[1:], b - a[0]) for a, b in facets]
                vertices = tuple((Fraction(1),) + y for y in oracle.slice_vertices(slice_h))
                facets = _cone_from_slice(slice_h)
            self.expected[label] = (vertices, facets)

    def ops(self, ctx):
        gd = self.gd
        for kind, label, text, _, _, pinned in self.items:
            vertices, facets = self.expected[label]

            def check(t, vertices=vertices, facets=facets, pinned=pinned):
                if pinned and isinstance(t, gd.polytopes.UnsupportedDimensionError):
                    return "defect"
                return _expect_space(t, vertices, facets)

            yield Op(kind, label, lambda text=text: gd.theory_io.load_theory(text), check)


def _cut_cube(rng, dim: int, cuts: int) -> list:
    """Halfspaces of the unit cube of normalised slice states plus cuts through its interior.

    Each cut has a normal in {-1, 0, 1}^dim and sits a random share of the
    way from the cube's centre to its farthest corner, so the centre stays
    strictly inside and at least one corner is cut off: the region stays a
    full-dimensional polytope inside the cube, and every vertex is a valid
    state.
    """
    zero = (Fraction(0),)
    halfspaces = []
    for i in range(dim):
        e = tuple(Fraction(int(j == i)) for j in range(dim))
        halfspaces.append((zero + tuple(-x for x in e), Fraction(0)))
        halfspaces.append((zero + e, Fraction(1)))
    for _ in range(cuts):
        normal = (0,) * dim
        while not any(normal):
            normal = tuple(Fraction(rng.choice((-1, 0, 1))) for _ in range(dim))
        share = rng.choice((Fraction(1, 3), HALF, Fraction(2, 3)))
        centre = sum(normal) * HALF
        top = sum(c for c in normal if c > 0)
        halfspaces.append((zero + normal, centre + share * (top - centre)))
    return halfspaces


def _base_inputs():
    """The base shapes, drawn once from a constant generator."""
    rng = random.Random(20120625)
    family = [(shape, _family_points(rng, shape)) for shape in FAMILY_SHAPES]
    v_sets = [(dim, _random_points(rng, dim, 12)) for dim in (4, 5)]
    # Three cut cubes give polytope_load an odd number of operations, so its
    # op_ms_p50 falls on one operation instead of between two.
    cuts = [(dim, _cut_cube(rng, dim, 3)) for dim in (3, 4, 5)]
    return family, v_sets, cuts


FAMILY_BASE, RANDOM_V_BASE, CUTS_BASE = _base_inputs()


# -- cli_builtins ----------------------------------------------------------------------


def _expectation_map(rows) -> list:
    """Minimal-picture matrix of a map given on (n, <Z>, <X>, ...), all binary.

    Minimal coordinates are x_0 = n and x_i = p(outcome 0) = (n + <G_i>) / 2.
    """
    d = len(rows)
    to_min = [[Fraction(1) if j == 0 else Fraction(0) for j in range(d)]]
    to_min += [[HALF if j in (0, i) else Fraction(0) for j in range(d)] for i in range(1, d)]
    to_exp = [[Fraction(1) if j == 0 else Fraction(0) for j in range(d)]]
    to_exp += [
        [Fraction(2) if j == i else Fraction(-1) if j == 0 else Fraction(0) for j in range(d)]
        for i in range(1, d)
    ]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]

    return mul(to_min, mul([[Fraction(x) for x in r] for r in rows], to_exp))


def _block_map(d: int, block) -> list:
    """Identity on (n, <Z>), ``block`` on the remaining expectations."""
    k = len(block)
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for i in range(k):
        rows[d - k + i][d - k :] = [Fraction(x) for x in block[i]]
    return _expectation_map(rows)


BUILTINS = ("gbit", "cube", "qubit", "classical2", "octahedron")
ANALYZE = {
    "gbit": ("fully_independent", {"0": 1, "1": 1}),
    "cube": ("fully_independent", {"0": 2, "1": 2}),
    "qubit": ("fully_conditionally_restricted", {"0": 0, "1": 0}),
    "classical2": ("fully_conditionally_restricted", {"0": 0, "1": 0}),
    "octahedron": ("fully_conditionally_restricted", {"0": 0, "1": 0}),
}
# (result, family_dim, forced_fixed_count): fully independent theories freeze
# with d forced fixed states; restricted ones keep N forced fixed states.
SOLVE = {
    "gbit": ("unique_identity", 0, 3),
    "cube": ("unique_identity", 0, 4),
    "qubit": ("candidates", None, 2),
    "classical2": ("unique_identity", 0, 2),
    "octahedron": ("family", 1, 2),
}


class CliBuiltins:
    """The user-facing commands, in process, on every builtin."""

    def __init__(self, gd, rng, tmp) -> None:
        self.gd = gd
        u = (Fraction(12, 13), Fraction(5, 13))
        grow = [[Fraction(1001, 1000) * a * b for b in u] for a in u]
        c, s = Fraction(3, 5), Fraction(4, 5)
        # The five rational orthogonal maps of the X/Y plane the qubit solve reports.
        candidates = [
            [[1, 0], [0, 1]],
            [[c, -s], [s, c]],
            [[c, s], [-s, c]],
            [[1, 0], [0, -1]],
            [[c, s], [s, -c]],
        ]
        # (label, builtin, branch, map, passes, pinned known defect)
        maps = [
            (f"qubit_candidate{i}", "qubit", 0, _block_map(4, b), True, False)
            for i, b in enumerate(candidates)
        ]
        shear = _expectation_map([[1, 0, 0], [0, 1, 0], [HALF, -HALF, 1]])
        maps += [
            ("qubit_shrink", "qubit", 1, _block_map(4, [[HALF, 0], [0, HALF]]), True, False),
            # (1001/1000) u u^T stretches the valid state with X/Y direction u
            # outside the ball; gptdyn 0.1.0's probe set misses it and passes.
            ("qubit_uuT", "qubit", 0, _block_map(4, grow), False, True),
            ("gbit_identity", "gbit", 1, _block_map(3, [[1]]), True, False),
            # <X> -> <X> + (n - <Z>)/2: fixes the upper branch, shears the lower one out.
            ("gbit_shear", "gbit", 1, shear, False, False),
            ("octahedron_half", "octahedron", 0, _block_map(3, [[HALF]]), True, False),
            ("octahedron_stretch", "octahedron", 0, _block_map(3, [[Fraction(3, 2)]]), False, False),
        ]
        commands = [(["demo", "--format", "json"], self._demo)]
        for name in BUILTINS:
            commands.append((["theorem", "--builtin", name, "--format", "json"], _theorem))
            commands.append((["analyze", "--builtin", name, "--format", "json"], _analyze(name)))
            commands.append((["mub", "--builtin", name, "--format", "json"], _mub(name)))
            for b in ("0", "1"):
                argv = ["solve", "--builtin", name, "--branch", b, "--format", "json"]
                commands.append((argv, _solve(name, b)))
        for label, name, b, m, passes, defect in maps:
            path = os.path.join(tmp, f"{label}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"rows": [_strs(row) for row in m]}, handle)
            argv = ["verify", "--builtin", name, "--branch", str(b), "--transform", path, "--format", "json"]
            commands.append((argv, _verify(passes, defect)))
        rng.shuffle(commands)
        self.commands = commands

    def reference(self) -> None:
        pass

    @staticmethod
    def _demo(code, payload):
        return code == 0 and payload["ok"] is True and payload["tradeoff"]["consistent"] is True

    def ops(self, ctx):
        gd = self.gd

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gd.cli.main(argv)
            return code, out.getvalue()

        for argv, judge in self.commands:
            label = " ".join(os.path.basename(a) for a in argv)

            def check(result, judge=judge):
                if isinstance(result, BaseException):
                    return _error(result)
                code, out = result
                try:
                    verdict = judge(code, json.loads(out) if out else None)
                except (ValueError, KeyError, TypeError) as exc:
                    verdict = exc
                if verdict is True:
                    return "exact"
                if verdict == "defect":
                    return "defect"
                return f"exit {code}, output {out[:200]!r}"

            yield Op("cli", label, lambda argv=argv: run(argv), check)


def _theorem(code, payload):
    return code == 0 and payload["ok"] is True


def _analyze(name):
    cls, freedom = ANALYZE[name]
    return lambda code, p: code == 0 and p["class"] == cls and p["per_branch_freedom"] == freedom


def _mub(name):
    if name == "classical2":
        # A single measurement has nothing to be unbiased against: usage error.
        return lambda code, p: code == 2 and p is None
    return lambda code, p: code == 0 and p["verdict"] == "mutually_unbiased"


def _solve(name, branch):
    result, dim, forced = SOLVE[name]
    expected = (int(branch), result, dim, forced)
    fields = ("branch", "result", "family_dim", "forced_fixed_count")
    return lambda code, p: code == 0 and tuple(p[f] for f in fields) == expected


def _verify(passes: bool, seed_defect: bool):
    def judge(code, p):
        if code != 0:
            return False
        if p["verdict"] == ("pass" if passes else "fail"):
            return True
        return "defect" if seed_defect else False

    return judge


WORKLOADS = {
    "boxworld_frozen": BoxworldFrozen,
    "random_family": RandomFamily,
    "polytope_load": PolytopeLoad,
    "cli_builtins": CliBuiltins,
}
