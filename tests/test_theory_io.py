"""Config and transformation file parsing."""

import json
from fractions import Fraction

import pytest

from gptdyn.exactla import identity, vec
from gptdyn.polytopes import UnsupportedDimensionError
from gptdyn.theories import (
    BallStateSpace,
    TheoryValidationError,
    make_boxworld,
    make_gbit,
    membership,
)
from gptdyn.theory_io import (
    ConfigParseError,
    dump_theory,
    dump_transformation,
    load_theory,
    load_transformation,
    parse_rational,
    rational_str,
    render_json,
)

from helpers import record_lps

GBIT_CONFIG = """
{
  "measurements": [
    {"label": "Z", "outcomes": 2, "role": "branch"},
    {"label": "X", "outcomes": 2, "role": "fiducial"}
  ],
  "state_space": {
    "type": "polytope_v",
    "vertices": [
      ["1", "1", "1"],
      ["1", "1", "0"],
      ["1", "0", "1"],
      ["1", "0", "0"]
    ]
  }
}
"""

DIAMOND_H_CONFIG = """
{
  "measurements": [
    {"label": "Z", "outcomes": 2, "role": "branch"},
    {"label": "X", "outcomes": 2, "role": "fiducial"}
  ],
  "state_space": {
    "type": "polytope_h",
    "halfspaces": [
      {"a": ["-3", "2", "2"], "b": "0"},
      {"a": ["-1", "2", "-2"], "b": "0"},
      {"a": ["-1", "-2", "2"], "b": "0"},
      {"a": ["1", "-2", "-2"], "b": "0"}
    ]
  }
}
"""


def test_parse_rational_values():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    # JSON integers and a leading sign are accepted; the value is reduced.
    for text, value in (("+3/4", "3/4"), ("007", "7"), ("-0/5", "0"), ("-6/4", "-3/2")):
        assert repr(parse_rational(text)) == repr(Fraction(value))
    assert repr(parse_rational(-12)) == repr(Fraction(-12))
    with pytest.raises(ConfigParseError, match=r"zero denominator in '\+1/0'"):
        parse_rational("+1/0")
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert rational_str(Fraction(2)) == "2"


def test_parse_rational_rejects_floats_and_junk():
    # "\u0663/\u0664" is 3/4 in Arabic-Indic digits, which a bare \d would take.
    bad_inputs = ("0.5", "1e3", "1/0", "", "a/b", "3/4\n", " 1", "\u0663/\u0664")
    bad_inputs += ("1_0", "1/+2", "+-1", "6/")
    for bad in (*bad_inputs, 0.5, True, None):
        with pytest.raises(ConfigParseError):
            parse_rational(bad)


def test_vertex_with_trailing_newline_rejected():
    # A regex ``$`` also matches before a final newline; the whole string must match.
    with pytest.raises(ConfigParseError):
        load_theory(GBIT_CONFIG.replace('["1", "1", "0"]', '["1", "1", "0\\n"]'))


def test_load_gbit_config():
    t = load_theory(GBIT_CONFIG)
    assert (t.branch_outcomes, t.extra_freedoms, t.dim) == (2, 1, 3)
    assert len(t.state_space.vertices) == 4
    assert t == make_gbit()


def test_load_halfspace_config_recovers_diamond():
    # The four homogenised facets of |<Z>| + |<X>| <= n in minimal coordinates.
    t = load_theory(DIAMOND_H_CONFIG)
    assert sorted(t.state_space.vertices) == sorted(
        (
            vec([1, 1, "1/2"]),
            vec([1, 0, "1/2"]),
            vec([1, "1/2", 1]),
            vec([1, "1/2", 0]),
        )
    )
    assert membership(t, t.minimal_state([1, 1, 1])).is_inside is False


def test_load_ball_config():
    t = load_theory(
        """
        {
          "measurements": [
            {"label": "Z", "outcomes": 2, "role": "branch"},
            {"label": "X", "outcomes": 2, "role": "fiducial"},
            {"label": "Y", "outcomes": 2, "role": "fiducial"}
          ],
          "state_space": {"type": "ball"}
        }
        """
    )
    assert isinstance(t.state_space, BallStateSpace)


def test_malformed_json_reports_line():
    with pytest.raises(ConfigParseError, match="line 3"):
        load_theory('{\n "measurements": [\n oops\n]}')


def test_duplicate_branch_is_validation_error():
    bad = GBIT_CONFIG.replace('"role": "fiducial"', '"role": "branch"')
    with pytest.raises(TheoryValidationError, match="branch"):
        load_theory(bad)


def test_vertex_outside_range_names_vertex():
    bad = GBIT_CONFIG.replace('["1", "1", "1"]', '["1", "1", "3/2"]')
    with pytest.raises(TheoryValidationError, match="3/2"):
        load_theory(bad)


def test_unknown_keys_rejected():
    bad = GBIT_CONFIG.replace('"measurements"', '"measurments"', 1)
    with pytest.raises(ConfigParseError):
        load_theory(bad)
    with pytest.raises(ConfigParseError, match="unknown state_space type"):
        load_theory(
            '{"measurements": [{"label": "Z", "outcomes": 2, "role": "branch"}],'
            ' "state_space": {"type": "sphere"}}'
        )


@pytest.mark.parametrize("settings, outcomes", [(2, 4), (3, 3), (5, 2), (6, 2)])
def test_boxworld_vertex_configs_load(settings, outcomes):
    # Minimal dimensions 7, 7, 6 and 7, with 16 to 64 vertices: the facets
    # derived from the vertices must be the ones the builder writes down.
    t = make_boxworld(settings, outcomes)
    assert load_theory(dump_theory(t)) == t


def boxworld_halfspace_config(settings, outcomes):
    """The box-world's facets as a ``polytope_h`` config."""
    t = make_boxworld(settings, outcomes)
    payload = json.loads(dump_theory(t))
    payload["state_space"] = {
        "type": "polytope_h",
        "halfspaces": [
            {"a": [rational_str(x) for x in g], "b": "0"}
            for g in t.state_space.cone_facets
        ],
    }
    return render_json(payload)


def test_high_dimensional_configs_exceed_enumeration_limit():
    # 7 binary measurements: d = 8, slice dimension 7 is past MAX_ENUM_DIM.
    measurements = [{"label": "Z", "outcomes": 2, "role": "branch"}] + [
        {"label": f"X{i}", "outcomes": 2, "role": "fiducial"} for i in range(1, 7)
    ]
    corners = []
    for bits in range(2**7):
        corners.append(["1"] + [str((bits >> i) & 1) for i in range(7)])
    config = render_json(
        {
            "measurements": measurements,
            "state_space": {"type": "polytope_v", "vertices": corners},
        }
    )
    # Box-world (3,4) has slice dimension 9 in either representation.
    configs = [
        config,
        dump_theory(make_boxworld(3, 4)),
        boxworld_halfspace_config(3, 4),
    ]
    for text in configs:
        with pytest.raises(UnsupportedDimensionError) as caught:
            load_theory(text)
        assert "halfspace" not in str(caught.value)


def test_unbounded_halfspaces_rejected():
    # Rows a . (n, z, x) <= b on the slice n = 1, with z = p(Z=0), x = p(X=0).
    cases = [
        # A pointed unbounded region: the quadrant z, x >= 0.
        ([(["0", "-1", "0"], "0"), (["0", "0", "-1"], "0")], "bound"),
        # A nonempty region containing a line: the half-plane z >= 0.
        ([(["0", "-1", "0"], "0")], "bound"),
        # Empty, with the nonzero recession cone {x = 0, z >= 0}.
        (
            [(["0", "-1", "0"], "0"), (["0", "0", "-1"], "0"), (["0", "0", "1"], "-1")],
            "no vertex",
        ),
        # Empty, and no row constrains x, so the homogenised cone is not pointed.
        ([(["0", "-1", "0"], "-1"), (["0", "1", "0"], "0")], "no vertex"),
    ]
    payload = json.loads(GBIT_CONFIG)
    for rows, message in cases:
        payload["state_space"] = {
            "type": "polytope_h",
            "halfspaces": [{"a": a, "b": b} for a, b in rows],
        }
        with pytest.raises(TheoryValidationError, match=message):
            load_theory(render_json(payload))


def test_ragged_halfspaces_rejected():
    # Normals of different lengths are a user error, not a crash in the simplex.
    payload = json.loads(GBIT_CONFIG)
    payload["state_space"] = {
        "type": "polytope_h",
        "halfspaces": [{"a": ["0", "-1", "0"], "b": "0"}, {"a": ["0", "1"], "b": "1"}],
    }
    with pytest.raises(ValueError, match="common dimension"):
        load_theory(render_json(payload))


def _resized(row: list, length: int) -> list:
    return (row + ["0"] * length)[:length]


@pytest.mark.parametrize("length", [2, 8, 9])
def test_wrong_length_rows_name_their_index(length):
    # The square has minimal dimension 3.  Rows of any other length used to
    # fail inside the conversion ("supports dimension <= 6, got 7") or on a
    # converted vertex the config never wrote ("vertex (1, 0) has 2 entries").
    payload = json.loads(GBIT_CONFIG)
    vertices = payload["state_space"]["vertices"]
    halfspaces = json.loads(DIAMOND_H_CONFIG)["state_space"]["halfspaces"]
    expected = f"has {length} entries, expected 3"
    for rows, key, wrong in (
        ([_resized(v, length) for v in vertices], "vertices", "vertices[0]"),
        (
            [{**h, "a": _resized(h["a"], length)} for h in halfspaces],
            "halfspaces",
            "halfspaces[0].a",
        ),
        (vertices[:2] + [_resized(vertices[2], length)] + vertices[3:], "vertices", "vertices[2]"),
        (
            halfspaces[:1] + [{**halfspaces[1], "a": _resized(halfspaces[1]["a"], length)}],
            "halfspaces",
            "halfspaces[1].a",
        ),
    ):
        payload["state_space"] = {"type": f"polytope_{key[0]}", key: rows}
        with pytest.raises(TheoryValidationError) as caught:
            load_theory(render_json(payload))
        assert str(caught.value).startswith(f"{wrong} {expected}")
        assert "common dimension" in str(caught.value)


def test_halfspace_configs_load_without_lps(monkeypatch):
    # Vertices and boundedness come from one double-description pass; a
    # config past MAX_ENUM_DIM fails before any LP.
    calls = record_lps(monkeypatch)
    for settings, outcomes in ((3, 3), (5, 2), (6, 2)):
        t = load_theory(boxworld_halfspace_config(settings, outcomes))
        assert t.state_space == make_boxworld(settings, outcomes).state_space
    assert calls == []
    with pytest.raises(UnsupportedDimensionError):
        load_theory(boxworld_halfspace_config(3, 4))
    assert calls == []


def test_theory_dump_roundtrip():
    t = make_gbit()
    assert load_theory(dump_theory(t)) == t


def test_transformation_roundtrip():
    text = dump_transformation(identity(3))
    assert load_transformation(text) == identity(3)
    with pytest.raises(ConfigParseError):
        load_transformation('{"rows": [["1", "0"], ["0"]]}')
    with pytest.raises(ConfigParseError):
        load_transformation('{"rows": [["1", "0.5"], ["0", "1"]]}')
    with pytest.raises(ConfigParseError):
        load_transformation("[1, 2]")


def test_render_json_is_canonical():
    payload = {"b": [Fraction(1, 2).__str__()], "a": 1}
    rendered = render_json(payload)
    import json

    assert render_json(json.loads(rendered)) == rendered
