"""Command line interface.

    mmideals <command> --input data.json [options]

Commands:
    canonical             relative canonical divisor (exceptional part)
    mmi                   divisor of the mixed multiplier ideal at --lambda
    region                wall inequalities of the constancy region at --lambda
    enumerate             walk all constancy regions meeting --box
    walls                 same walk, rendered as an SVG wall diagram
    jumping-numbers       chain for --ideal, or along --direction, up to --upto
    min-jumping-divisor   minimal jumping divisor at --lambda
    verify                run the jump-identity / numeric / dichotomy checks

Exit codes: 0 success, 2 invalid input, 3 unsupported geometry, 4 broken
internal invariant.  JSON output is byte-identical for identical input.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

from . import io as reportio
from .errors import MMIError, PreconditionViolated
from .graph import relative_canonical
from .jumping import verify_contribution_dichotomy, verify_jump_identity, verify_numeric_conditions
from .regions import RegionEngine
from .svg import render_walls

__all__ = ["main"]


def _split_list(raw: str, what: str) -> list[str]:
    parts = [p.strip() for p in raw.split(",")]
    if any(not p for p in parts):
        raise PreconditionViolated(f"{what}: empty entry in {raw!r}")
    return parts


_LAMBDA = {"--lambda": "point, e.g. 1/6,1"}
_BOX = {"--box": "box corner, e.g. 1,3"}
_CHAIN = {
    "--ideal": "ideal name for jumping-number chains",
    "--direction": "ray direction, e.g. 1,1",
    "--upto": "upper bound for jumping-number chains",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmideals", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # command -> (help, the flags it takes besides --input/--format/--output)
    commands = {
        "canonical": ("relative canonical divisor of the input graph", {}),
        "mmi": ("mixed multiplier ideal divisor at a point", _LAMBDA),
        "region": ("constancy region inequalities at a point", _LAMBDA),
        "enumerate": ("enumerate constancy regions inside a box", _BOX),
        "walls": ("wall diagram of the constancy regions inside a box", _BOX),
        "jumping-numbers": ("jumping numbers of one ideal or along a ray", _CHAIN),
        "min-jumping-divisor": ("minimal jumping divisor at a jumping point", _LAMBDA),
        "verify": ("verify jump identities at a jumping point", _LAMBDA),
    }
    for name, (help_text, flags) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input JSON file")
        for flag, flag_help in flags.items():
            p.add_argument(flag, help=flag_help)
        p.add_argument(
            "--format",
            choices=("json", "svg", "text"),
            default=None,
            help="output format (default: svg for walls, json otherwise)",
        )
        p.add_argument("--output", help="write to this file instead of stdout")
    return parser


def _require(args, attr: str, flag: str):
    value = getattr(args, attr)
    if value is None:
        raise PreconditionViolated(f"{args.command} needs {flag}")
    return value


def _engine(args) -> RegionEngine:
    _, ideals = reportio.load_input(args.input)
    return RegionEngine(ideals)


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _text_inequality(ineq) -> str:
    lhs = " + ".join(f"{a} z{i + 1}" for i, a in enumerate(ineq.coeffs) if a)
    return f"{ineq.component}: {lhs or '0'} < {ineq.constant}"


def _cmd_canonical(args, fmt: str):
    graph, _ = reportio.load_input(args.input)
    k = relative_canonical(graph)
    exc = [reportio.rational_json(c) for c in k.exceptional_part()]
    if fmt == "text":
        return "K = " + _fmt_tuple(k.exceptional_part()) + "\n"
    return reportio.dump_json(exc)


def _cmd_mmi(args, fmt: str):
    engine = _engine(args)
    lam = _split_list(_require(args, "lambda", "--lambda"), "--lambda")
    point = engine.point(lam)
    divisor = engine.mmi(point)
    payload = {
        "command": "mmi",
        "lambda": reportio.point_json(point),
        "divisor": reportio.divisor_json(divisor),
        "components": list(engine.graph.ids),
    }
    if any(point):
        left = engine.at(point).left
        payload["left_limit"] = reportio.divisor_json(left)
        payload["jumping"] = left != divisor
    if fmt == "text":
        lines = [f"lambda = {_fmt_tuple(point)}", f"divisor = {_fmt_tuple(divisor.coeffs)}"]
        if "left_limit" in payload:
            lines.append(f"left limit = {_fmt_tuple(left.coeffs)}")
            lines.append(f"jumping point: {'yes' if payload['jumping'] else 'no'}")
        return "\n".join(lines) + "\n"
    return reportio.dump_json(payload)


def _cmd_region(args, fmt: str):
    engine = _engine(args)
    lam = _split_list(_require(args, "lambda", "--lambda"), "--lambda")
    region = engine.region_of(lam)
    payload = {
        "command": "region",
        "lambda": reportio.point_json(region.lam),
        "divisor": reportio.divisor_json(region.divisor),
        "m_primary": engine.ideals.is_m_primary(),
    }
    payload.update(reportio.region_json(region))
    if fmt == "text":
        lines = [f"region of {_fmt_tuple(region.lam)}:"]
        lines += ["  " + _text_inequality(q) for q in region.inequalities]
        lines.append(f"  bounded: {'yes' if region.bounded else 'no'}")
        return "\n".join(lines) + "\n"
    return reportio.dump_json(payload)


def _enumeration_text(result) -> str:
    lines = []
    for rec in result.records:
        lines.append(
            f"R{rec.index}: rep {_fmt_tuple(rec.representative)} "
            f"divisor {_fmt_tuple(rec.divisor.coeffs)} "
            f"facets {len(rec.cfacets)}"
        )
    lines.append(f"representatives: {len(result.representatives)}")
    lines.append(f"distinct ideals: {len(result.records)}")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _cmd_walk(args, fmt: str):
    """`enumerate` and `walls`: the same walk, told apart only by the
    default format and the payload's `command`."""
    engine = _engine(args)
    box = _split_list(_require(args, "box", "--box"), "--box")
    result = engine.enumerate_constancy_regions(box)
    if fmt == "svg":
        return render_walls(result)
    if fmt == "text":
        return _enumeration_text(result)
    payload = reportio.enumeration_json(result)
    payload["command"] = args.command
    return reportio.dump_json(payload)


def _cmd_jumping_numbers(args, fmt: str):
    engine = _engine(args)
    upto = _require(args, "upto", "--upto")
    if (args.ideal is None) == (args.direction is None):
        raise PreconditionViolated("jumping-numbers needs exactly one of --ideal / --direction")
    if args.ideal is not None:
        values = engine.jumping_numbers_of(args.ideal, upto)
        source: dict = {"ideal": args.ideal}
    else:
        direction = _split_list(args.direction, "--direction")
        values = engine.wall_ray_restriction(direction, upto)
        source = {"direction": [str(Fraction(d)) for d in direction]}
    if fmt == "text":
        return " ".join(str(v) for v in values) + "\n"
    payload = {"command": "jumping-numbers", "upto": str(Fraction(upto)), "values": [str(v) for v in values]}
    payload.update(source)
    return reportio.dump_json(payload)


def _cmd_min_jumping_divisor(args, fmt: str):
    engine = _engine(args)
    lam = _split_list(_require(args, "lambda", "--lambda"), "--lambda")
    context = engine.at(lam)
    point, gmin = context.coords, context.gmin
    if fmt == "text":
        return f"G = {' + '.join(gmin.components)} at {_fmt_tuple(point)}\n"
    payload = {
        "command": "min-jumping-divisor",
        "lambda": reportio.point_json(point),
        "components": list(gmin.components),
        "valences": {cid: v for cid, v in gmin.valences.items()},
        "hyperplanes": {
            cid: {"coeffs": list(normal), "rhs": str(constant)}
            for cid, (normal, constant) in gmin.hyperplanes.items()
        },
        "divisor_at": reportio.divisor_json(engine.mmi(point)),
        "left_limit": reportio.divisor_json(context.left),
    }
    return reportio.dump_json(payload)


def _cmd_verify(args, fmt: str):
    engine = _engine(args)
    lam = _split_list(_require(args, "lambda", "--lambda"), "--lambda")
    point = engine.point(lam)
    reports = [
        verify_jump_identity(engine, point),
        verify_numeric_conditions(engine, point),
        verify_contribution_dichotomy(engine, point),
    ]
    all_passed = all(r.passed for r in reports)
    if fmt == "text":
        lines = []
        for report in reports:
            lines.append(f"{report.kind}: {'ok' if report.passed else 'FAIL'}")
            for check in report.checks:
                lines.append(f"  {'ok ' if check.passed else 'FAIL'} {check.name}")
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "command": "verify",
            "lambda": reportio.point_json(point),
            "passed": all_passed,
            "reports": [
                {
                    "kind": r.kind,
                    "passed": r.passed,
                    "partial": r.partial,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "details": c.details}
                        for c in r.checks
                    ],
                }
                for r in reports
            ],
        }
        text = reportio.dump_json(payload)
    return text, 0 if all_passed else 4


_COMMANDS = {
    "canonical": _cmd_canonical,
    "mmi": _cmd_mmi,
    "region": _cmd_region,
    "enumerate": _cmd_walk,
    "walls": _cmd_walk,
    "jumping-numbers": _cmd_jumping_numbers,
    "min-jumping-divisor": _cmd_min_jumping_divisor,
    "verify": _cmd_verify,
}

_SVG_COMMANDS = {"walls", "enumerate"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fmt = args.format or ("svg" if args.command == "walls" else "json")
    try:
        if fmt == "svg" and args.command not in _SVG_COMMANDS:
            raise PreconditionViolated(f"{args.command} has no SVG rendering")
        outcome = _COMMANDS[args.command](args, fmt)
    except MMIError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception:  # noqa: BLE001 - anything else is a bug, exit 4
        traceback.print_exc()
        return 4
    text, code = outcome if isinstance(outcome, tuple) else (outcome, 0)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
