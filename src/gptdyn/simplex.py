"""Exact simplex solver for small rational linear programs.

A textbook two-phase tableau simplex, specialised for the desk-scale
problems this package generates (a handful of variables, at most a few
hundred constraints).  Free variables are split into differences of
nonnegative ones, every pivot uses Bland's smallest-index rule so the
method terminates without any anti-degeneracy perturbation, and because
arithmetic is exact the Optimal/Infeasible/Unbounded trichotomy is decided
exactly rather than up to a tolerance.

The tableau holds integer rows, the fraction-free pivoting of exact vertex
enumeration codes such as lrs.  Each row is a gcd-reduced positive multiple
of the rational row the textbook method would hold, with a positive
coefficient on its basic column.  Every sign and every ratio, and so every
pivot, is the textbook one, while a pivot costs integer products and one gcd
per row instead of rational arithmetic.  ``Fraction`` appears only at the
boundary: each input row is scaled to integers once, and the witness levels
and the optimum are read back as rationals.

An :class:`LpSystem` holds one constraint system through phase 1, so a run
of objectives over the same rows (stage two's implicit-equality search)
scales them and finds a feasible basis once; :func:`lp_optimize` is the
one-shot use of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactla import (
    Mat,
    ONE,
    Vec,
    ZERO,
    dot,
    int_combination,
    matvec,
    scale_to_integers,
    shape,
)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    optimum: Fraction | None
    witness: Vec | None


class _Tableau:
    """Dense simplex tableau of integer rows; the rhs is in the last column.

    Row ``r`` is a gcd-reduced positive multiple of the rational row whose
    basic column ``basis[r]`` has coefficient 1.  So ``rows[r][basis[r]]`` is
    > 0 and the basic variable's level is
    ``Fraction(rows[r][-1], rows[r][basis[r]])``.  Reduced-cost rows are kept
    the same way, as positive multiples of the rational ones.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis

    def pivot(self, row: int, col: int) -> None:
        pivot_row = self.rows[row]
        # Driving out an artificial may pivot on a negative entry; negating the
        # row (its rhs is 0) keeps the new basic coefficient positive.
        if pivot_row[col] < 0:
            pivot_row = [-v for v in pivot_row]
            self.rows[row] = pivot_row
        # pivot_row[col] > 0, so each combination is a positive multiple of
        # the rational elimination.
        for r, other in enumerate(self.rows):
            if r != row and other[col] != 0:
                self.rows[r] = int_combination(pivot_row[col], other, other[col], pivot_row)
        self.basis[row] = col

    def minimize(self, cost: list[int], allowed: int) -> tuple[str, list[int]]:
        """Run Bland-rule simplex on the given cost vector.

        ``cost`` has one entry per column plus the objective constant in the
        last slot, as a positive multiple of the rational costs; only the
        first ``allowed`` columns may enter the basis.  Returns the final
        status and the reduced cost row, again a positive multiple.
        """
        z = cost
        for r, basic in enumerate(self.basis):
            if z[basic] != 0:
                z = int_combination(self.rows[r][basic], z, z[basic], self.rows[r])
        while True:
            entering = next((j for j in range(allowed) if z[j] < 0), None)
            if entering is None:
                return "optimal", z
            # Ratio test by cross-multiplication; ties go to the smallest basic column.
            leaving = None
            best_rhs = best_coeff = 0
            for r, row in enumerate(self.rows):
                coeff = row[entering]
                if coeff > 0:
                    if leaving is not None:
                        lhs = row[-1] * best_coeff
                        rhs = best_rhs * coeff
                        if lhs > rhs or (lhs == rhs and self.basis[r] > self.basis[leaving]):
                            continue
                    leaving, best_rhs, best_coeff = r, row[-1], coeff
            if leaving is None:
                return "unbounded", z
            self.pivot(leaving, entering)
            # Every other basic column already has a zero reduced cost.
            pivot_row = self.rows[leaving]
            z = int_combination(pivot_row[entering], z, z[entering], pivot_row)


def _check_system(label: str, system: tuple[Mat, Vec] | None, nvars: int) -> tuple[Mat, Vec]:
    if system is None:
        return (), ()
    a, b = system
    rows, cols = shape(a)
    if rows != len(b):
        raise ValueError(f"{label} matrix has {rows} rows but rhs has {len(b)}")
    if rows and cols != nvars:
        raise ValueError(f"{label} matrix has {cols} columns for {nvars} variables")
    return a, b


class LpSystem:
    """The constraints ``A_eq x = b_eq`` and ``A_in x <= b_in`` of a run of LPs.

    The rows are scaled to integers and phase 1 runs once, here; each
    :meth:`optimize` starts phase 2 from a copy of the tableau phase 1 left,
    so it takes the pivots a fresh :func:`lp_optimize` call would.  Variables
    are free (unbounded in sign); add rows to ``ineq`` to bound them.
    """

    def __init__(
        self,
        nvars: int,
        eq: tuple[Mat, Vec] | None = None,
        ineq: tuple[Mat, Vec] | None = None,
    ) -> None:
        self.nvars = nvars
        self.eq = _check_system("equality", eq, nvars)
        self.ineq = _check_system("inequality", ineq, nvars)
        a_eq, b_eq = self.eq
        a_in, b_in = self.ineq

        # Columns: x = u - w with u, w >= 0, then one slack per inequality row,
        # then one artificial per row without a slack basis: equality rows and
        # rows whose rhs is negated to make it nonnegative.
        nslack = len(a_in)
        base_cols = 2 * nvars + nslack
        ncols = base_cols + len(a_eq) + sum(1 for rhs in b_in if rhs < 0)
        rows: list[list[int]] = []
        basis: list[int] = []
        artificial = base_cols
        raw_rows = [(row, rhs, None) for row, rhs in zip(a_eq, b_eq)]
        raw_rows += [(row, rhs, 2 * nvars + i) for i, (row, rhs) in enumerate(zip(a_in, b_in))]
        for row, rhs, slack in raw_rows:
            ints, scale = scale_to_integers([*row, rhs])
            sign = -1 if ints[-1] < 0 else 1
            coeffs = [sign * v for v in ints[:-1]]
            full = coeffs + [-v for v in coeffs] + [0] * (ncols - 2 * nvars) + [sign * ints[-1]]
            if slack is not None:
                full[slack] = sign * scale
            if slack is not None and sign > 0:
                basis.append(slack)
            else:
                full[artificial] = scale
                basis.append(artificial)
                artificial += 1
            rows.append(full)

        tableau = _Tableau(rows, basis)
        self._feasible = True
        if ncols > base_cols:
            phase1 = [0] * base_cols + [1] * (ncols - base_cols) + [0]
            status, z = tableau.minimize(phase1, ncols)
            if status != "optimal":  # pragma: no cover - phase 1 is always bounded
                raise AssertionError("phase-1 objective cannot be unbounded")
            self._feasible = z[-1] == 0
            # Drive any artificial still in the basis out, or drop its row.
            r = 0
            while self._feasible and r < len(tableau.rows):
                if tableau.basis[r] >= base_cols:
                    col = next(
                        (c for c in range(base_cols) if tableau.rows[r][c] != 0), None
                    )
                    if col is None:
                        del tableau.rows[r]
                        del tableau.basis[r]
                        continue
                    tableau.pivot(r, col)
                r += 1
        self._tableau = tableau
        self._base_cols = base_cols
        self._ncols = ncols

    def optimize(self, objective: Vec, sense: str = "max") -> LpResult:
        """Optimise ``objective . x`` over the system; ``sense`` is ``"max"`` or ``"min"``.

        The result is exact: when Optimal, the witness satisfies every
        constraint exactly and attains the optimum exactly.
        """
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
        nvars = self.nvars
        if len(objective) != nvars:
            raise ValueError(f"objective has {len(objective)} entries for {nvars} variables")
        if not self._feasible:
            return LpResult(LpStatus.INFEASIBLE, None, None)
        # A pivot replaces rows and never edits one in place, so copying the
        # two lists keeps phase 1's tableau intact for the next objective.
        tableau = _Tableau(list(self._tableau.rows), list(self._tableau.basis))
        sign = -1 if sense == "max" else 1
        obj, _ = scale_to_integers(objective)
        padding = [0] * (self._ncols - 2 * nvars + 1)
        phase2 = [sign * v for v in obj] + [-sign * v for v in obj] + padding
        status, _ = tableau.minimize(phase2, self._base_cols)
        if status == "unbounded":
            return LpResult(LpStatus.UNBOUNDED, None, None)

        levels = [ZERO] * (2 * nvars)
        for row, basic in zip(tableau.rows, tableau.basis):
            if basic < 2 * nvars:
                levels[basic] = Fraction(row[-1], row[basic])
        witness = tuple(levels[j] - levels[nvars + j] for j in range(nvars))
        return LpResult(LpStatus.OPTIMAL, dot(objective, witness), witness)


def lp_optimize(
    objective: Vec,
    eq: tuple[Mat, Vec] | None = None,
    ineq: tuple[Mat, Vec] | None = None,
    sense: str = "max",
) -> LpResult:
    """Optimise ``objective . x`` subject to ``A_eq x = b_eq`` and ``A_in x <= b_in``.

    One :class:`LpSystem` used once.  Variables are free (unbounded in sign);
    add rows to ``ineq`` to bound them.  ``sense`` is ``"max"`` or
    ``"min"``.  The result is exact: when Optimal, the witness satisfies
    every constraint exactly and attains the optimum exactly.
    """
    return LpSystem(len(objective), eq, ineq).optimize(objective, sense)


def stochastic_fixed_point(s: Mat) -> Vec:
    """Probability vector fixed by a column-stochastic matrix.

    Solves ``(S - I) v = 0`` with ``v >= 0`` and ``sum(v) = 1`` exactly,
    delegating the elimination to the simplex kernel as a feasibility
    program.  Such a vector always exists for column-stochastic ``S``; when
    the fixed set is larger than a point, any exact member is returned.
    """
    size, cols = shape(s)
    if size != cols:
        raise ValueError(f"stochastic matrix must be square, got {size}x{cols}")
    for j in range(size):
        column = [s[i][j] for i in range(size)]
        if any(v < 0 for v in column):
            raise ValueError(f"column {j} has a negative entry")
        if sum(column, ZERO) != 1:
            raise ValueError(f"column {j} does not sum to 1")

    eq_rows = [
        tuple(s[i][j] - (ONE if i == j else ZERO) for j in range(size))
        for i in range(size)
    ]
    eq_rows.append((ONE,) * size)
    eq_rhs = (ZERO,) * size + (ONE,)
    nonneg = tuple(
        tuple(-ONE if j == i else ZERO for j in range(size)) for i in range(size)
    )
    result = lp_optimize(
        objective=(ZERO,) * size,
        eq=(tuple(eq_rows), eq_rhs),
        ineq=(nonneg, (ZERO,) * size),
        sense="min",
    )
    if result.status is not LpStatus.OPTIMAL:  # pragma: no cover - always feasible
        raise AssertionError("a column-stochastic matrix always has a fixed point")
    v = result.witness
    assert v is not None
    if matvec(s, v) != v:  # pragma: no cover - guards the solver itself
        raise AssertionError("fixed-point residual is nonzero")
    return v
