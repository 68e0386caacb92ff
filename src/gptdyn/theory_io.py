"""Reading and writing theories, transformations, and report payloads.

All rational values cross the wire as exact strings like ``"3/4"`` or
``"2"`` (ASCII digits, an optional leading ``+`` or ``-``); configs may also
give JSON integers.  Floats are rejected outright so a config can never
silently lose precision.  Theory configs are UTF-8 JSON documents of the
form::

    {
      "measurements": [
        {"label": "Z", "outcomes": 2, "role": "branch"},
        {"label": "X", "outcomes": 2, "role": "fiducial"}
      ],
      "state_space": {"type": "polytope_v", "vertices": [["1", "1", "1"], ...]}
    }

where ``state_space.type`` is one of ``polytope_v`` (minimal-representation
vertices), ``polytope_h`` (halfspaces ``{"a": [...], "b": "p/q"}`` read on
normalised states), or ``ball``.  Every vertex and every ``a`` has one
entry per minimal coordinate, ``1 + sum(outcomes - 1)``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .exactla import Mat, Vec
from .theories import (
    BallStateSpace,
    MeasurementSpec,
    Role,
    TheorySpec,
    TheoryValidationError,
    polytope_from_halfspaces,
    polytope_from_vertices,
)

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class ConfigParseError(ValueError):
    """Malformed configuration text; carries a line number when known."""


def parse_rational(text: object) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ConfigParseError(
            f"expected an exact rational like '3/4' or '2', got {text!r}"
        )
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ZeroDivisionError:
        raise ConfigParseError(f"zero denominator in {text!r}") from None


def rational_str(value: Fraction) -> str:
    return str(value)


def _parse_vector(raw: object, context: str, length: int | None = None) -> Vec:
    if not isinstance(raw, list) or not raw:
        raise ConfigParseError(f"{context} must be a non-empty array of rationals")
    if length is not None and len(raw) != length:
        raise TheoryValidationError(
            f"{context} has {len(raw)} entries, expected {length}: rows share the "
            "common dimension 1 + sum(outcomes - 1) of the measurements"
        )
    return tuple(parse_rational(v) for v in raw)


def _require_keys(obj: dict, allowed: set[str], required: set[str], context: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigParseError(f"{context} has unknown keys: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ConfigParseError(f"{context} is missing keys: {sorted(missing)}")


def load_theory(text: str) -> TheorySpec:
    """Parse and validate a theory config; raises ConfigParseError with a
    line number for malformed JSON and TheoryValidationError for violated
    invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigParseError("config root must be a JSON object")
    _require_keys(doc, {"measurements", "state_space"}, {"measurements", "state_space"}, "config")

    raw_measurements = doc["measurements"]
    if not isinstance(raw_measurements, list) or not raw_measurements:
        raise ConfigParseError("'measurements' must be a non-empty array")
    measurements = []
    for i, raw in enumerate(raw_measurements):
        context = f"measurements[{i}]"
        if not isinstance(raw, dict):
            raise ConfigParseError(f"{context} must be an object")
        _require_keys(raw, {"label", "outcomes", "role"}, {"label", "outcomes", "role"}, context)
        label = raw["label"]
        outcomes = raw["outcomes"]
        role = raw["role"]
        if not isinstance(label, str) or not label:
            raise ConfigParseError(f"{context}: 'label' must be a non-empty string")
        if not isinstance(outcomes, int) or isinstance(outcomes, bool) or outcomes < 2:
            raise ConfigParseError(f"{context}: 'outcomes' must be an integer >= 2")
        if role not in ("branch", "fiducial"):
            raise ConfigParseError(f"{context}: 'role' must be 'branch' or 'fiducial'")
        measurements.append(MeasurementSpec(label, outcomes, Role(role)))

    # Every vertex and normal has one entry per minimal coordinate.
    dim = 1 + sum(m.outcomes - 1 for m in measurements)
    raw_space = doc["state_space"]
    if not isinstance(raw_space, dict) or "type" not in raw_space:
        raise ConfigParseError("'state_space' must be an object with a 'type'")
    kind = raw_space["type"]
    if kind == "polytope_v":
        _require_keys(raw_space, {"type", "vertices"}, {"type", "vertices"}, "state_space")
        raw_vertices = raw_space["vertices"]
        if not isinstance(raw_vertices, list) or not raw_vertices:
            raise ConfigParseError("'vertices' must be a non-empty array")
        vertices = tuple(
            _parse_vector(v, f"vertices[{i}]", dim) for i, v in enumerate(raw_vertices)
        )
        space = polytope_from_vertices(vertices)
    elif kind == "polytope_h":
        _require_keys(raw_space, {"type", "halfspaces"}, {"type", "halfspaces"}, "state_space")
        raw_halfspaces = raw_space["halfspaces"]
        if not isinstance(raw_halfspaces, list) or not raw_halfspaces:
            raise ConfigParseError("'halfspaces' must be a non-empty array")
        halfspaces = []
        for i, raw in enumerate(raw_halfspaces):
            context = f"halfspaces[{i}]"
            if not isinstance(raw, dict):
                raise ConfigParseError(f"{context} must be an object")
            _require_keys(raw, {"a", "b"}, {"a", "b"}, context)
            halfspaces.append(
                (_parse_vector(raw["a"], f"{context}.a", dim), parse_rational(raw["b"]))
            )
        space = polytope_from_halfspaces(halfspaces)
    elif kind == "ball":
        _require_keys(raw_space, {"type"}, {"type"}, "state_space")
        space = BallStateSpace()
    else:
        raise ConfigParseError(
            f"unknown state_space type {kind!r}; expected polytope_v, polytope_h or ball"
        )
    return TheorySpec(measurements=tuple(measurements), state_space=space)


def load_theory_file(path: str) -> TheorySpec:
    with open(path, encoding="utf-8") as handle:
        return load_theory(handle.read())


def dump_theory(t: TheorySpec) -> str:
    """Config text that :func:`load_theory` parses back to an equal theory."""
    payload: dict = {
        "measurements": [
            {"label": m.label, "outcomes": m.outcomes, "role": m.role.value}
            for m in t.measurements
        ]
    }
    space = t.state_space
    if isinstance(space, BallStateSpace):
        payload["state_space"] = {"type": "ball"}
    else:
        payload["state_space"] = {
            "type": "polytope_v",
            "vertices": [[rational_str(v) for v in row] for row in space.vertices],
        }
    return render_json(payload)


def load_transformation(text: str) -> Mat:
    """Parse ``{"rows": [["p/q", ...], ...]}`` into an exact square matrix."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ConfigParseError("transformation file must be an object with 'rows'")
    raw_rows = doc["rows"]
    if not isinstance(raw_rows, list) or not raw_rows:
        raise ConfigParseError("'rows' must be a non-empty array")
    rows = tuple(_parse_vector(r, f"rows[{i}]") for i, r in enumerate(raw_rows))
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise ConfigParseError("'rows' must form a square matrix")
    return rows


def load_transformation_file(path: str) -> Mat:
    with open(path, encoding="utf-8") as handle:
        return load_transformation(handle.read())


def dump_transformation(transform: Mat) -> str:
    return render_json(
        {"rows": [[rational_str(v) for v in row] for row in transform]}
    )


def render_json(payload) -> str:
    """Canonical JSON encoding: re-rendering a parsed report is byte-identical."""
    return json.dumps(payload, indent=2, sort_keys=True)


def vec_strs(values) -> list[str]:
    return [rational_str(v) for v in values]
