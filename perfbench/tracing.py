"""Per-layer spans around gptdyn's public functions, from outside the package.

``Tracer.install`` rebinds every name under which a gptdyn module holds one
of the traced functions (its own module global and each ``from .x import f``
copy) to a wrapper that records a span: name, duration and the duration
its child spans covered, so self time is the span minus its children.  The
elementwise helpers of ``exactla`` (``dot``, ``matvec``, ...) are left alone:
they run millions of times per pass and a span around each would measure
the tracer.  ``uninstall`` restores the original bindings.

Besides time, a few wrappers read counts off their arguments or results:
unknowns of the linear stage, equations and (vertex, facet) pairs of the
solver, LP rows, and subsets tried by the enumerations.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from math import comb

# Only the functions behind a reported metric: their own figures, or the
# child spans that ``load_theory.self_ms`` and the ``.share`` metrics leave
# out.  Anything else runs inside its caller's span and counts in its self
# time (``affine_hull_dim`` in ``facet_enumeration``'s, for example).
TRACED = {
    "exactla": ("rank", "nullspace", "solve_linear"),
    "simplex": ("lp_optimize",),
    "polytopes": (
        "facet_enumeration",
        "vertex_enumeration",
        "is_bounded",
        "feasible_region_dim",
    ),
    "theories": ("membership",),
    "restriction": ("conditional_state_set", "classify_restriction"),
    "solver": (
        "assemble_constraints",
        "solve_linear_stage",
        "impose_state_preservation",
        "allowed_transform_set",
        "verify_transformation",
    ),
    "mub": ("is_mutually_unbiased",),
    "theory_io": ("load_theory", "render_json"),
    "cli": ("main",),
}


class _Frame:
    __slots__ = ("name", "start", "children_ns", "first_lp_seen")

    def __init__(self, name: str, start: int) -> None:
        self.name = name
        self.start = start
        self.children_ns = 0
        self.first_lp_seen = False


class Tracer:
    """Span statistics for one pass at a time; ``take`` returns and resets them.

    Span times are kept per probe: ``stats[name][("self_ns", k)]`` is the
    self time of ``name`` measured after probe ``k`` of ``probes`` (the run's
    growing list of probe times), so the caller can scale each part by the
    machine speed around that probe.
    """

    def __init__(self, probes: list) -> None:
        self.probes = probes
        self.stack: list[_Frame] = []
        self.stats = self._fresh()
        self.installed: list[tuple[object, str, object]] = []

    @staticmethod
    def _fresh():
        return defaultdict(lambda: defaultdict(int))

    def take(self):
        stats, self.stats = self.stats, self._fresh()
        return stats

    # -- counts read at layer boundaries ------------------------------------------

    def _before(self, name: str, args, kwargs) -> None:
        s = self.stats
        if name == "simplex.lp_optimize":
            # lp_optimize(objective, eq=None, ineq=None, sense="max")
            eq = kwargs.get("eq", args[1] if len(args) > 1 else None)
            ineq = kwargs.get("ineq", args[2] if len(args) > 2 else None)
            rows = sum(len(system[0]) for system in (eq, ineq) if system)
            s[name]["rows_sum"] += rows
            s[name]["rows_max"] = max(s[name]["rows_max"], rows)
            parent = self.stack[-2] if len(self.stack) > 1 else None
            if (
                parent is not None
                and parent.name == "solver.impose_state_preservation"
                and not parent.first_lp_seen
            ):
                parent.first_lp_seen = True
                s[parent.name]["rows_kept"] += len(ineq[0])
        elif name == "solver.solve_linear_stage":
            s[name]["unknowns"] += args[0].theory.dim ** 2
        elif name == "solver.impose_state_preservation":
            space = args[0].state_space
            if args[1].dim and hasattr(space, "cone_facets"):
                s[name]["pairs"] += len(space.vertices) * len(space.cone_facets)
        elif name == "solver.assemble_constraints":
            if any(f.name == "solver.allowed_transform_set" for f in self.stack):
                s[name]["in_solve"] += 1

    def _after(self, name: str, args, result) -> None:
        s = self.stats
        if name == "solver.assemble_constraints":
            s[name]["equations"] += (
                result.branch_row_count + len(result.fixed_vectors)
            ) * result.theory.dim
        elif name in ("polytopes.facet_enumeration", "polytopes.vertex_enumeration"):
            items = args[0]
            dim = len(items[0]) if name.endswith("facet_enumeration") else len(items[0][0])
            s[name]["subsets"] += comb(len(items), dim)
            s[name]["found"] += len(result)

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self.stack
        probes = self.probes
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                self._before(name, args, kwargs)
                result = fn(*args, **kwargs)
                self._after(name, args, result)
                return result
            finally:
                stack.pop()
                duration = clock() - frame.start
                if stack:
                    stack[-1].children_ns += duration
                k = len(probes) - 1
                entry = self.stats[name]
                entry["calls"] += 1
                entry["total_ns", k] += duration
                entry["self_ns", k] += duration - frame.children_ns
                if name == "cli.main":
                    command = (args[0] if args else kwargs["argv"])[0]
                    self.stats[f"cli.main.{command}"]["total_ns", k] += duration

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a gptdyn module names it."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"gptdyn.{module_name}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self._wrap(f"{module_name}.{fn_name}", fn)
        modules = [m for k, m in sys.modules.items() if k == "gptdyn" or k.startswith("gptdyn.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.installed):
            setattr(module, attr, value)
        self.installed.clear()
