"""Conditional state sets and the restriction classification of a theory.

Fixing the branch measurement to one outcome carves out the conditional
state set of that branch: all sub-normalised states certain to be found
there.  Its leftover freedom (the affine dimension of the normalised
slice) is what separates theories that freeze under branch locality from
those that keep non-classical dynamics, so the classifier below is the
heart of the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactla import Mat, ONE, Vec, ZERO, affine_hull_dim
from .theories import (
    BallStateSpace,
    DegenerateTheoryError,
    Rep,
    StateVec,
    TheorySpec,
    effect,
    outcome_probability,
)
from .theory_io import vec_strs


class RestrictionClass(Enum):
    FULLY_CONDITIONALLY_RESTRICTED = "fully_conditionally_restricted"
    FULLY_INDEPENDENT = "fully_independent"
    PARTIAL = "partial"


@dataclass(frozen=True)
class ConditionalSet:
    """Generators of the states certain to sit in one branch.

    ``generators`` are the normalised extreme members; together with
    down-scaling they span the whole sub-normalised conditional set, so
    they double as the fixed-vector constraints of the solver.  ``freedom``
    is the affine dimension of the normalised slice.
    """

    branch: int
    generators: Mat
    freedom: int


@dataclass(frozen=True)
class RestrictionReport:
    restriction_class: RestrictionClass
    per_branch_freedom: tuple[int, ...]
    branch_outcomes: int
    extra_freedoms: int
    dim: int

    def to_jsonable(self) -> dict:
        return {
            "class": self.restriction_class.value,
            "per_branch_freedom": {
                str(b): f for b, f in enumerate(self.per_branch_freedom)
            },
            "N": self.branch_outcomes,
            "M": self.extra_freedoms,
            "d": self.dim,
        }


@dataclass(frozen=True)
class UncertaintyReport:
    holds: bool
    witness: Vec | None = None
    measurement: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "fails",
            "witness": None if self.witness is None else vec_strs(self.witness),
            "measurement": self.measurement,
        }


def conditional_generators(t: TheorySpec, branch: int) -> Mat:
    """Normalised extreme states with ``p(Z = branch) = n``.

    With down-scaling they span the whole sub-normalised conditional set;
    they are the fixed vectors the solver takes from each other branch.
    """
    if not 0 <= branch < t.branch_outcomes:
        raise ValueError(
            f"branch {branch} out of range for {t.branch_outcomes} outcomes"
        )
    space = t.state_space
    if isinstance(space, BallStateSpace):
        # Certainty pins every other expectation to zero: a single ray.
        half = Fraction(1, 2)
        return ((ONE, ONE if branch == 0 else ZERO, half, half),)
    # A vertex x / s is normalised (x[0] = s) and keeps p(Z = b) = x[1 + b] / s
    # for b < N - 1; the last branch is certain when all of those are 0.
    outcomes = t.branch_outcomes
    generators = tuple(
        v
        for v, (x, s) in zip(space.vertices, space.int_vertices)
        if (x[1 + branch] == s if branch < outcomes - 1 else not any(x[1:outcomes]))
    )
    if not generators:
        raise DegenerateTheoryError(
            f"no state is certain to be found in branch {branch}; "
            "the fiducial set is inconsistent with the state space"
        )
    return generators


def conditional_state_set(t: TheorySpec, branch: int) -> ConditionalSet:
    """States with ``p(Z = branch) = n``, spanned by their normalised extremes."""
    generators = conditional_generators(t, branch)
    return ConditionalSet(
        branch=branch,
        generators=generators,
        freedom=affine_hull_dim(generators),
    )


def classify_restriction(t: TheorySpec) -> RestrictionReport:
    """Freedom left per certain branch, and the class it puts the theory in."""
    freedoms = tuple(
        conditional_state_set(t, b).freedom for b in range(t.branch_outcomes)
    )
    if all(f == 0 for f in freedoms):
        cls = RestrictionClass.FULLY_CONDITIONALLY_RESTRICTED
    elif all(f == t.extra_freedoms for f in freedoms):
        cls = RestrictionClass.FULLY_INDEPENDENT
    else:
        cls = RestrictionClass.PARTIAL
    return RestrictionReport(
        restriction_class=cls,
        per_branch_freedom=freedoms,
        branch_outcomes=t.branch_outcomes,
        extra_freedoms=t.extra_freedoms,
        dim=t.dim,
    )


def check_quantum_like_uncertainty(
    t: TheorySpec, mub_labels: list[str]
) -> UncertaintyReport:
    """Are all the given measurements uniformly random whenever one branch is certain?

    Checks every normalised generator of every conditional set against every
    non-branch measurement in ``mub_labels``; the first state with a
    non-uniform outcome is returned as the witness.  Generators are scanned
    largest-first, so when a branch has several violating corners the
    all-first-outcome one is the witness reported.
    """
    labels = list(mub_labels)
    known = {m.label for m in t.measurements}
    for label in labels:
        if label not in known:
            raise ValueError(f"unknown measurement {label!r}")
    if t.branch.label not in labels:
        raise ValueError(
            f"the branch measurement {t.branch.label!r} must be part of the set"
        )
    others = [label for label in labels if label != t.branch.label]
    for branch in range(t.branch_outcomes):
        for generator in sorted(
            conditional_generators(t, branch), reverse=True
        ):
            state = StateVec(rep=Rep.MINIMAL, entries=generator, theory=t)
            n = generator[0]
            for label in others:
                k = t.measurement(label).outcomes
                for j in range(k):
                    p = outcome_probability(state, effect(t, label, j))
                    if p != n / k:
                        return UncertaintyReport(
                            holds=False, witness=generator, measurement=label
                        )
    return UncertaintyReport(holds=True)
