"""Command-line front end.

    gptdyn <command> [--builtin NAME | --theory FILE] [--branch LABEL]
                     [--transform FILE] [--format text|json]

Commands: analyze (restriction report), solve (allowed transformations for
one acting branch), verify (check a transformation file), mub (mutual
unbiasedness), theorem (freeze/freedom check), demo (the whole built-in
suite).  Exit codes: 0 success, 1 a theorem-mode assertion failed, 2 bad
usage or invalid input.
"""

from __future__ import annotations

import argparse
import sys

from .mub import is_mutually_unbiased
from .restriction import check_quantum_like_uncertainty, classify_restriction
from .solver import (
    allowed_transform_set,
    compare_tradeoff,
    verify_main_theorem,
    verify_transformation,
)
from .theories import BUILTIN_BUILDERS, TheorySpec, builtin_theory
from .theory_io import (
    load_theory_file,
    load_transformation_file,
    render_json,
)

_USER_ERRORS = (ValueError, OSError)

_BRANCH_ALIASES = {"up": 0, "low": 1}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptdyn",
        description="Exact branch-locality analysis of single-system probabilistic theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_theory: bool = True) -> None:
        if needs_theory:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument(
                "--builtin",
                choices=sorted(BUILTIN_BUILDERS),
                help="named built-in theory",
            )
            source.add_argument("--theory", help="path to a theory config JSON file")
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )

    analyze = sub.add_parser("analyze", help="restriction classification")
    add_common(analyze)

    solve = sub.add_parser("solve", help="allowed transformations for one branch")
    add_common(solve)
    solve.add_argument("--branch", required=True, help="acting branch label")

    verify = sub.add_parser("verify", help="verify a transformation file")
    add_common(verify)
    verify.add_argument("--branch", required=True, help="acting branch label")
    verify.add_argument("--transform", required=True, help="transformation JSON file")

    mub = sub.add_parser("mub", help="mutual unbiasedness of a measurement set")
    add_common(mub)
    mub.add_argument(
        "--labels",
        help="comma-separated measurement labels (default: all measurements)",
    )

    theorem = sub.add_parser("theorem", help="check the freeze/freedom dichotomy")
    add_common(theorem)

    demo = sub.add_parser("demo", help="run the full built-in suite")
    add_common(demo, needs_theory=False)
    return parser


def _load(args) -> tuple[TheorySpec, str]:
    if args.builtin:
        return builtin_theory(args.builtin), args.builtin
    return load_theory_file(args.theory), args.theory


def _parse_branch(t: TheorySpec, label: str) -> int:
    if t.branch_outcomes == 2 and label in _BRANCH_ALIASES:
        return _BRANCH_ALIASES[label]
    # ASCII digits in canonical form only: int() would also take "0_1", " 1",
    # other scripts' digits, "00" and "-0".
    if not (
        label.isascii() and label.removeprefix("-").isdigit() and str(int(label)) == label
    ):
        raise ValueError(
            f"branch label {label!r} is not an outcome of {t.branch.label!r} "
            f"(use 0..{t.branch_outcomes - 1}"
            + (" or up/low)" if t.branch_outcomes == 2 else ")")
        )
    branch = int(label)
    if not 0 <= branch < t.branch_outcomes:
        raise ValueError(
            f"branch {branch} out of range 0..{t.branch_outcomes - 1}"
        )
    return branch


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _emit(payload, text: str, fmt: str) -> None:
    print(render_json(payload) if fmt == "json" else text)


# -- command bodies -------------------------------------------------------------


def _cmd_analyze(args) -> int:
    t, name = _load(args)
    report = classify_restriction(t)
    rows = [("branch", "freedom")]
    rows += [(str(b), str(f)) for b, f in enumerate(report.per_branch_freedom)]
    text = "\n".join(
        [
            f"theory: {name}",
            f"class: {report.restriction_class.value}",
            f"N={report.branch_outcomes} M={report.extra_freedoms} d={report.dim}",
            _table(rows),
        ]
    )
    _emit(report.to_jsonable(), text, args.format)
    return 0


def _cmd_solve(args) -> int:
    t, name = _load(args)
    branch = _parse_branch(t, args.branch)
    ats = allowed_transform_set(t, branch)
    lines = [
        f"theory: {name}",
        f"acting branch: {branch}",
        f"linear stage dimension: {ats.linear_stage.dim}",
        f"result: {ats.result_kind()}",
    ]
    dim = ats.family_dim()
    if dim is not None:
        lines.append(f"family dimension: {dim}")
    lines.append(f"forced fixed count: {ats.forced_fixed_count}")
    _emit(ats.to_jsonable(), "\n".join(lines), args.format)
    return 0


def _cmd_verify(args) -> int:
    t, name = _load(args)
    branch = _parse_branch(t, args.branch)
    transform = load_transformation_file(args.transform)
    report = verify_transformation(t, transform, branch)
    lines = [
        f"theory: {name}",
        f"acting branch: {branch}",
        f"verdict: {'pass' if report.passed else 'fail'}",
        f"residuals zero: {report.residuals_zero}",
        f"method: {report.method} (exhaustive: {report.exhaustive})",
    ]
    for probe, image, why in report.membership_violations:
        lines.append(
            "violation: state ("
            + ", ".join(str(v) for v in probe)
            + ") maps to ("
            + ", ".join(str(v) for v in image)
            + f"): {why}"
        )
    _emit(report.to_jsonable(), "\n".join(lines), args.format)
    return 0


def _cmd_mub(args) -> int:
    t, name = _load(args)
    if args.labels:
        labels = [label.strip() for label in args.labels.split(",") if label.strip()]
    else:
        labels = [m.label for m in t.measurements]
    report = is_mutually_unbiased(t, labels)
    lines = [
        f"theory: {name}",
        f"measurements: {', '.join(report.labels)}",
        f"verdict: {'mutually unbiased' if report.mutually_unbiased else 'not unbiased'}",
    ]
    if report.counterexample is not None:
        state, perm = report.counterexample
        lines.append(
            "counterexample: state ("
            + ", ".join(str(v) for v in state)
            + f") with {perm.measurement} outcomes relabelled {list(perm.mapping)}"
        )
    _emit(report.to_jsonable(), "\n".join(lines), args.format)
    return 0


def _theorem_text(report) -> str:
    rows = [("branch", "linear dim", "result", "family dim", "forced fixed")]
    for ats in report.branch_results:
        dim = ats.family_dim()
        rows.append(
            (
                str(ats.branch),
                str(ats.linear_stage.dim),
                ats.result_kind(),
                "-" if dim is None else str(dim),
                str(ats.forced_fixed_count),
            )
        )
    lines = [
        f"theory: {report.theory_name}",
        f"class: {report.restriction_class.value}",
        "per-branch freedom: "
        + ", ".join(str(f) for f in report.per_branch_freedom),
        _table(rows),
    ]
    for assertion in report.assertions:
        mark = "ok" if assertion.passed else "FAIL"
        lines.append(f"[{mark}] {assertion.name}: {assertion.detail}")
    lines.append(f"summary: {report.summary}")
    return "\n".join(lines)


def _cmd_theorem(args) -> int:
    t, name = _load(args)
    report = verify_main_theorem(t, name)
    _emit(report.to_jsonable(), _theorem_text(report), args.format)
    return 0 if report.ok else 1


def _cmd_demo(args) -> int:
    sections = []
    payload = {"theories": [], "tradeoff": None, "uncertainty": []}
    all_ok = True
    reports = {}
    for name in ("gbit", "cube", "qubit", "classical2", "octahedron"):
        t = builtin_theory(name)
        report = reports[name] = verify_main_theorem(t, name)
        all_ok = all_ok and report.ok
        sections.append(_theorem_text(report))
        payload["theories"].append(report.to_jsonable())

    checks = [
        ("qubit", ["Z", "X", "Y"], True),
        ("gbit", ["Z", "X"], False),
    ]
    unc_lines = []
    for name, labels, expected in checks:
        result = check_quantum_like_uncertainty(builtin_theory(name), labels)
        all_ok = all_ok and (result.holds == expected)
        verdict = "holds" if result.holds else "fails"
        unc_lines.append(
            f"uncertainty for {name} {{{', '.join(labels)}}}: {verdict}"
            + ("" if result.holds == expected else "  [UNEXPECTED]")
        )
        payload["uncertainty"].append(
            {"theory": name, "labels": labels} | result.to_jsonable()
        )
    sections.append("\n".join(unc_lines))

    # The octahedron keeps a one-parameter family exactly where the square
    # freezes: restricting states buys transformation freedom.  The theorem
    # reports above already hold both theories' per-branch dimensions.
    restricted, freer = reports["octahedron"], reports["gbit"]
    tradeoff = compare_tradeoff(
        "octahedron",
        restricted.per_branch_freedom,
        tuple(ats.family_dim() for ats in restricted.branch_results),
        "square",
        freer.per_branch_freedom,
        tuple(ats.family_dim() for ats in freer.branch_results),
    )
    all_ok = all_ok and tradeoff.consistent
    payload["tradeoff"] = tradeoff.to_jsonable()
    sections.append(
        "trade-off: allowed-set dimension "
        f"{tradeoff.freer_dims} (square) vs {tradeoff.restricted_dims} (octahedron): "
        + ("consistent" if tradeoff.consistent else "VIOLATED")
    )
    payload["ok"] = all_ok
    sections.append("demo: all checks passed" if all_ok else "demo: FAILURES above")
    _emit(payload, "\n\n".join(sections), args.format)
    return 0 if all_ok else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "mub": _cmd_mub,
    "theorem": _cmd_theorem,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return _COMMANDS[args.command](args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
