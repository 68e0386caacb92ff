"""The one integer pass that stores a polytope space's rows, against the ``Fraction`` route.

A ``PolytopeStateSpace`` de-duplicates and sorts its vertices and facets on
integer keys over one common scale; ``helpers.sorted_set_rows`` is the route
it replaced, ``sorted(set(rows))`` on the rational tuples and then one
``scale_to_integers`` per row.  Stored rows, integer rows and loaded
theories must be repr-equal on both routes, and the enumerations must still
return their results in the order of the rational tuples.
"""

from fractions import Fraction
import importlib
from pathlib import Path
import random

import gptdyn
from gptdyn import theories
from gptdyn.polytopes import facet_enumeration, slice_polytope, vertex_enumeration
from gptdyn.theories import (
    BUILTIN_BUILDERS,
    PolytopeStateSpace,
    builtin_theory,
    make_boxworld,
)
from gptdyn.theory_io import load_theory

from helpers import sorted_set_rows

BOXWORLDS = [(s, 2) for s in range(2, 7)] + [(s, o) for s in (2, 3) for o in (3, 4)]


def _random_rows(rng: random.Random) -> list:
    """Rows with mixed denominators and signs, repeats and ragged lengths."""
    width = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 12)):
        length = width if rng.random() < 0.8 else rng.randint(0, width + 1)
        rows.append(
            tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(length))
        )
    for row in rng.sample(rows, min(len(rows), rng.randint(0, 3))):
        # The same rational written another way, and the same row object again.
        factor = rng.randint(2, 4)
        rows.append(tuple(Fraction(x.numerator * factor, x.denominator * factor) for x in row))
        rows.append(row)
    rng.shuffle(rows)
    return rows


def _assert_routes_agree(space: PolytopeStateSpace, vertices, facets) -> None:
    for got, rows in (
        ((space.vertices, space.int_vertices), vertices),
        ((space.cone_facets, space.int_facets), facets),
    ):
        assert repr(got) == repr(sorted_set_rows(rows))


def test_canonical_pass_matches_fraction_route_on_random_rows():
    rng = random.Random(57)
    for _ in range(300):
        vertices, facets = _random_rows(rng), _random_rows(rng)
        _assert_routes_agree(PolytopeStateSpace(tuple(vertices), tuple(facets)), vertices, facets)


def test_canonical_pass_edge_cases():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        [],
        [()],
        [(), (half,), (half, 0), (Fraction(0),)],
        # Ragged rows that are prefixes of each other, and negatives.
        [(half, third), (half,), (half, third, -half), (-half, third), (Fraction(-1, 2),)],
        # Large scales: the common lcm is the product of the denominators.
        [(Fraction(1, 101), Fraction(1, 103)), (Fraction(1, 103), Fraction(1, 101))],
    ]
    for rows in cases:
        _assert_routes_agree(PolytopeStateSpace(tuple(rows), tuple(rows)), rows, rows)


def _fraction_route(monkeypatch, build):
    with monkeypatch.context() as patched:
        patched.setattr(theories, "_canonical_rows", sorted_set_rows)
        return build()


def _assert_same_theory(t, reference) -> None:
    assert repr(t) == repr(reference)
    space, old = t.state_space, reference.state_space
    if isinstance(space, PolytopeStateSpace):
        assert repr((space.int_vertices, space.int_facets)) == repr(
            (old.int_vertices, old.int_facets)
        )


def _benchmark_texts(monkeypatch) -> list[str]:
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(11)
    load = workloads.PolytopeLoad(gptdyn, rng, None)
    family = workloads.RandomFamily(gptdyn, rng, None)
    return [item[2] for item in load.items] + [text for _, _, text in family.theories]


def test_loads_match_fraction_route(monkeypatch):
    texts = _benchmark_texts(monkeypatch)
    assert len(texts) == 22
    for text in texts:
        reference = _fraction_route(monkeypatch, lambda: load_theory(text))
        _assert_same_theory(load_theory(text), reference)


def test_builtins_and_boxworlds_match_fraction_route(monkeypatch):
    builds = [lambda name=name: builtin_theory(name) for name in BUILTIN_BUILDERS]
    builds += [lambda so=so: make_boxworld(*so) for so in BOXWORLDS]
    for build in builds:
        _assert_same_theory(build(), _fraction_route(monkeypatch, build))


def test_enumerations_return_rational_order(monkeypatch):
    # The slices of every benchmark load: V->H on the vertices, H->V on the facets.
    for text in _benchmark_texts(monkeypatch):
        space = load_theory(text).state_space
        facets = facet_enumeration([v[1:] for v in space.vertices])
        assert facets == sorted(facets)
        assert {type(x) for a, b in facets for x in (*a, b)} == {Fraction}
        halfspaces = [(g[1:], -g[0]) for g in space.cone_facets]
        vertices, bounded = slice_polytope(halfspaces)
        assert bounded
        assert vertices == sorted(vertices) == vertex_enumeration(halfspaces)
        assert {type(x) for v in vertices for x in v} == {Fraction}

