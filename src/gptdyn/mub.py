"""Mutual unbiasedness of measurement sets, decided by permuted statistics.

A set of measurements is mutually unbiased when relabelling the outcomes of
any one of them, while keeping every other statistic fixed, always lands on
a valid state again.  Permuting statistics is an affine map and the state
set is convex, so checking every vertex of a polytope theory decides the
property for all states; for the round state space an outcome swap is a
reflection of one expectation axis and preserves membership outright.
The permuted image is a bookkeeping construction, not a physical
transformation: it only has to exist as a valid state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .exactla import Vec, ZERO
from .theories import (
    BallStateSpace,
    Rep,
    StateVec,
    TheorySpec,
    membership,
)
from .theory_io import vec_strs


@dataclass(frozen=True)
class OutcomePermutation:
    """Relabelling of one measurement's outcomes: outcome ``j`` becomes ``mapping[j]``."""

    measurement: str
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"{self.mapping} is not a bijection on outcome labels")

    def inverse(self) -> "OutcomePermutation":
        inverse = [0] * len(self.mapping)
        for source, target in enumerate(self.mapping):
            inverse[target] = source
        return OutcomePermutation(self.measurement, tuple(inverse))


@dataclass(frozen=True)
class MubReport:
    labels: tuple[str, ...]
    mutually_unbiased: bool
    counterexample: tuple[Vec, OutcomePermutation] | None = None

    def to_jsonable(self) -> dict:
        if self.counterexample is None:
            payload = None
        else:
            state, perm = self.counterexample
            payload = {
                "state": vec_strs(state),
                "measurement": perm.measurement,
                "permutation": list(perm.mapping),
            }
        return {
            "verdict": "mutually_unbiased" if self.mutually_unbiased else "not_unbiased",
            "counterexample": payload,
        }


def permute_measurement_stats(s: StateVec, perm: OutcomePermutation) -> StateVec:
    """Permute one measurement's outcome probabilities, everything else unchanged.

    The result need not be a member of the state space; membership is
    exactly the question the callers ask about it.
    """
    if s.rep is not Rep.MINIMAL:
        raise ValueError("permutation acts on minimal-representation states")
    t = s.theory
    m = t.measurement(perm.measurement)
    if len(perm.mapping) != m.outcomes:
        raise ValueError(
            f"permutation over {len(perm.mapping)} labels applied to "
            f"{m.outcomes}-outcome measurement {m.label!r}"
        )
    block = t.full_probabilities(s.entries, m.label)
    permuted = [ZERO] * m.outcomes
    for j, p in enumerate(block):
        permuted[perm.mapping[j]] = p
    entries = list(s.entries)
    offset = t.block_offset(m.label)
    entries[offset : offset + m.outcomes - 1] = permuted[: m.outcomes - 1]
    return StateVec(Rep.MINIMAL, tuple(entries), t)


def is_mutually_unbiased(t: TheorySpec, labels: list[str]) -> MubReport:
    """Check every vertex against every outcome relabelling of the given set."""
    distinct = list(dict.fromkeys(labels))
    for label in distinct:
        t.measurement(label)
    if len(distinct) < 2:
        raise ValueError("mutual unbiasedness needs at least two measurements")
    if isinstance(t.state_space, BallStateSpace):
        # Outcome swaps flip one expectation sign; the ball is invariant.
        return MubReport(tuple(distinct), True)
    for vertex in t.state_space.vertices:
        state = StateVec(Rep.MINIMAL, vertex, t)
        for label in distinct:
            k = t.measurement(label).outcomes
            for mapping in permutations(range(k)):
                if mapping == tuple(range(k)):
                    continue
                perm = OutcomePermutation(label, mapping)
                image = permute_measurement_stats(state, perm)
                if not membership(t, image).is_inside:
                    return MubReport(
                        tuple(distinct), False, counterexample=(vertex, perm)
                    )
    return MubReport(tuple(distinct), True)


def qubit_axis_unbiased(axis_a: Vec, axis_b: Vec) -> bool:
    """Two rational Bloch axes define unbiased binary measurements iff orthogonal."""
    if len(axis_a) != len(axis_b):
        raise ValueError("axes must share a dimension")
    if all(v == 0 for v in axis_a) or all(v == 0 for v in axis_b):
        raise ValueError("axes must be nonzero")
    return sum((a * b for a, b in zip(axis_a, axis_b)), ZERO) == 0

