"""Command-line interface behaviour: commands, formats, exit codes."""

import json
from fractions import Fraction

import pytest

from gptdyn.cli import main
from gptdyn.exactla import ZERO, identity, matmul
from gptdyn.theories import (
    expectation_to_minimal_matrix,
    make_boxworld,
    make_gbit,
    make_qubit,
    minimal_to_expectation_matrix,
)
from gptdyn.theory_io import dump_theory, dump_transformation, render_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_gbit_low_is_unique_identity(capsys):
    code, out, _ = run(capsys, "solve", "--builtin", "gbit", "--branch", "low")
    assert code == 0
    assert "unique_identity" in out
    assert "forced fixed count: 3" in out


def test_solve_json_schema(capsys):
    code, out, _ = run(
        capsys, "solve", "--builtin", "octahedron", "--branch", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "branch": 0,
        "linear_stage_dim": 2,
        "result": "family",
        "family_dim": 1,
        "forced_fixed_count": 2,
    }


def test_theorem_qubit(capsys):
    code, out, _ = run(capsys, "theorem", "--builtin", "qubit")
    assert code == 0
    assert "non-classical dynamics present" in out


def test_analyze_cube_table(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "cube")
    assert code == 0
    assert "class: fully_independent" in out
    assert "N=2 M=2 d=4" in out
    # Both branches keep freedom 2.
    assert out.count("2") >= 2


def test_verify_identity_transform(capsys, tmp_path):
    transform = tmp_path / "id.json"
    transform.write_text(dump_transformation(identity(3)), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "verify",
        "--builtin",
        "gbit",
        "--branch",
        "low",
        "--transform",
        str(transform),
    )
    assert code == 0
    assert "verdict: pass" in out


def test_verify_failing_transform_reports_violation(capsys, tmp_path):
    transform = tmp_path / "shear.json"
    transform.write_text(
        render_json(
            {"rows": [["1", "0", "0"], ["0", "1", "0"], ["1/2", "-1/2", "1"]]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "verify",
        "--builtin",
        "gbit",
        "--branch",
        "low",
        "--transform",
        str(transform),
    )
    assert code == 0
    assert "verdict: fail" in out
    assert "violation" in out


def test_verify_qubit_stretch_fails_with_witness(capsys, tmp_path):
    # (1001/1000) u u^T with u = (12/13, 5/13) on the X/Y block of the qubit.
    t = make_qubit()
    u = (Fraction(12, 13), Fraction(5, 13))
    t_exp = identity(4)[:2] + tuple(
        (ZERO, ZERO) + tuple(Fraction(1001, 1000) * a * b for b in u) for a in u
    )
    stretch = matmul(
        expectation_to_minimal_matrix(t),
        matmul(t_exp, minimal_to_expectation_matrix(t)),
    )
    transform = tmp_path / "stretch.json"
    transform.write_text(dump_transformation(stretch), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "verify",
        "--builtin",
        "qubit",
        "--branch",
        "0",
        "--transform",
        str(transform),
    )
    assert code == 0
    assert "verdict: fail" in out
    assert "method: contraction-block (exhaustive: True)" in out
    assert "violation: state (" in out


def test_mub_defaults_to_all_measurements(capsys):
    code, out, _ = run(capsys, "mub", "--builtin", "qubit")
    assert code == 0
    assert "mutually unbiased" in out


def test_mub_json_schema(capsys):
    code, out, _ = run(capsys, "mub", "--builtin", "gbit", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "mutually_unbiased",
        "counterexample": None,
    }


def test_demo_passes(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "demo: all checks passed" in out


def test_json_output_roundtrips_bytes(capsys):
    for argv in (
        ["analyze", "--builtin", "gbit", "--format", "json"],
        ["solve", "--builtin", "cube", "--branch", "up", "--format", "json"],
        ["theorem", "--builtin", "octahedron", "--format", "json"],
        ["demo", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert render_json(json.loads(out)) + "\n" == out


def test_no_decimal_fractions_in_output(capsys):
    for argv in (
        ["analyze", "--builtin", "octahedron"],
        ["demo", "--format", "json"],
    ):
        _, out, _ = run(capsys, *argv)
        assert "0.333" not in out
        assert "0.5" not in out


def test_unknown_builtin_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--builtin", "pentagon", "--branch", "0"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(
        capsys, "analyze", "--theory", "/nonexistent/theory.json"
    )
    assert code == 2
    assert "error:" in err


def test_theory_past_enumeration_limit_exits_2(capsys, tmp_path):
    config = tmp_path / "boxworld34.json"
    config.write_text(dump_theory(make_boxworld(3, 4)), encoding="utf-8")
    code, out, err = run(capsys, "solve", "--theory", str(config), "--branch", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_malformed_config_exits_2_with_line(capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text('{\n "measurements": [\n', encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--theory", str(config))
    assert code == 2
    assert "line" in err


def test_rational_with_trailing_newline_exits_2(capsys, tmp_path):
    config = tmp_path / "newline.json"
    text = dump_theory(make_gbit()).replace('"0"', '"0\\n"', 1)
    assert '"0\\n"' in text
    config.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--theory", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_branch_label_exits_2(capsys):
    # int() alone would read "0_1" as 1, " 1" as 1, the Arabic-Indic "١" as 1,
    # and "-0" and "00" as 0.
    for label in ("sideways", "0_1", " 1", "\u0661", "-0", "00"):
        code, _, err = run(capsys, "solve", "--builtin", "gbit", "--branch", label)
        assert code == 2
        assert "is not an outcome" in err
    code, _, err = run(capsys, "solve", "--builtin", "gbit", "--branch", "-1")
    assert code == 2
    assert "out of range" in err


def test_mub_names_an_unknown_label_first(capsys):
    code, _, err = run(capsys, "mub", "--builtin", "gbit", "--labels", "Q")
    assert code == 2
    assert "unknown measurement 'Q'" in err


def test_theory_file_matches_builtin(capsys, tmp_path):
    config = tmp_path / "gbit.json"
    config.write_text(dump_theory(make_gbit()), encoding="utf-8")
    code_file, out_file, _ = run(
        capsys, "analyze", "--theory", str(config), "--format", "json"
    )
    code_builtin, out_builtin, _ = run(
        capsys, "analyze", "--builtin", "gbit", "--format", "json"
    )
    assert code_file == code_builtin == 0
    assert out_file == out_builtin


def test_branch_aliases(capsys):
    _, out_up, _ = run(
        capsys, "solve", "--builtin", "gbit", "--branch", "up", "--format", "json"
    )
    _, out_zero, _ = run(
        capsys, "solve", "--builtin", "gbit", "--branch", "0", "--format", "json"
    )
    assert out_up == out_zero
