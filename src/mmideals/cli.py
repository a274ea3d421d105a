"""Command line interface.

    mmideals <command> --input data.json [options]

Everything about a command (handler, help, flags, output formats) lives in
`_COMMANDS`; `mmideals --help` lists the commands.  A plain command line (the
command, then each flag spelled in full and given once with its value) is
read straight from these tables; every other command line, help included, is
read by argparse, with the same result.

Exit codes: 0 success, 2 invalid input (an unreadable --input or unwritable
--output included, and a text report stdout cannot encode), 3 unsupported
geometry, 4 broken internal invariant.  JSON and SVG output is pure ASCII and
byte-identical for identical input; --output files are written as UTF-8.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import traceback
from typing import Callable, NamedTuple

from . import io as reportio
from .errors import MMIError, PreconditionViolated
from .jumping import verify_contribution_dichotomy, verify_jump_identity, verify_numeric_conditions
from .regions import RegionEngine
from .svg import render_walls

__all__ = ["main"]


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _split_list(raw: str, what: str) -> list[str]:
    parts = [p.strip() for p in raw.split(",")]
    if any(not p for p in parts):
        raise PreconditionViolated(f"{what}: empty entry in {raw!r}")
    return parts


# flag -> (help, required by every command taking it, split at commas by
# `main`).  jumping-numbers splits --direction only once it is asked for.
_FLAGS = {
    "--lambda": ("point, e.g. 1/6,1", True, True),
    "--box": ("box corner, e.g. 1,3", True, True),
    "--ideal": ("ideal name for jumping-number chains", False, False),
    "--direction": ("ray direction, e.g. 1,1", False, False),
    "--upto": ("upper bound for jumping-number chains", True, False),
}


# flags that take a coordinate list: argparse would read `--box -1,1` as two
# flags, so `main` passes it on as `--box=-1,1` for the coordinate parser
_COORDINATE_FLAGS = ("--lambda", "--box", "--direction")

# each long option `build_parser` declares, --help aside -> its key in `opts`
_OPTIONS = {flag: flag[2:] for flag in ("--input", *_FLAGS, "--format", "--output")}


class Command(NamedTuple):
    run: Callable  # run(engine, opts, fmt) -> text, or (text, exit code)
    help: str
    flags: tuple[str, ...] = ()  # keys of _FLAGS
    formats: tuple[str, ...] = ("json", "text")  # the first is the default


def _commands_where(test) -> str:
    return ", ".join(name for name, command in _COMMANDS.items() if test(command))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    listing = "\n".join(f"  {name:<21} {command.help}" for name, command in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="mmideals",
        description="commands:\n" + listing,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the above")
    parser.add_argument("--input", required=True, help="input JSON file")
    for flag, (flag_help, _, _) in _FLAGS.items():
        takers = _commands_where(lambda c: flag in c.flags)
        parser.add_argument(flag, help=f"{flag_help} ({takers})")
    svg = _commands_where(lambda c: "svg" in c.formats)
    svg_first = _commands_where(lambda c: c.formats[0] == "svg")
    parser.add_argument(
        "--format",
        choices=("json", "svg", "text"),
        help=f"output format; svg only for {svg} (default: svg for {svg_first}, json otherwise)",
    )
    parser.add_argument("--output", help="write to this file instead of stdout")
    return parser


def _text_inequality(ineq) -> str:
    lhs = " + ".join(f"{a} z{i + 1}" for i, a in enumerate(ineq.coeffs))  # every a > 0
    return f"{ineq.component}: {lhs} < {reportio.key_json((ineq.numerator, ineq.scale))[0]}"


def _cmd_canonical(engine, opts, fmt: str):
    k = engine.canonical[: engine.graph.n_exc]
    if fmt == "text":
        return "K = " + _fmt_tuple(k) + "\n"
    return reportio.dump_json([c.numerator if c.denominator == 1 else str(c) for c in k])


def _cmd_mmi(engine, opts, fmt: str):
    context = engine.at(opts["lambda"])
    lam, divisor = reportio.key_json(context.key), context.divisor
    payload = {
        "command": "mmi",
        "lambda": lam,
        "divisor": list(divisor.coeffs),
        "components": list(engine.graph.ids),
    }
    if any(context.key[:-1]):
        left = context.left
        payload["left_limit"] = list(left.coeffs)
        payload["jumping"] = left != divisor
    if fmt == "text":
        lines = [f"lambda = {_fmt_tuple(lam)}", f"divisor = {_fmt_tuple(divisor.coeffs)}"]
        if "left_limit" in payload:
            lines.append(f"left limit = {_fmt_tuple(left.coeffs)}")
            lines.append(f"jumping point: {'yes' if payload['jumping'] else 'no'}")
        return "\n".join(lines) + "\n"
    return reportio.dump_json(payload)


def _cmd_region(engine, opts, fmt: str):
    region = engine.region_of(opts["lambda"])
    payload = {
        "command": "region",
        "lambda": reportio.key_json(region.key),
        "divisor": list(region.divisor.coeffs),
        "m_primary": engine.ideals.is_m_primary(),
        "inequalities": [
            {"component": q.component, "coeffs": list(q.coeffs), "rhs": reportio.key_json((q.numerator, q.scale))[0]}
            for q in region.inequalities
        ],
        "bounded": region.bounded,
    }
    if fmt == "text":
        lines = [f"region of {_fmt_tuple(payload['lambda'])}:"]
        lines += ["  " + _text_inequality(q) for q in region.inequalities]
        lines.append(f"  bounded: {'yes' if region.bounded else 'no'}")
        return "\n".join(lines) + "\n"
    return reportio.dump_json(payload)


def _enumeration_text(result) -> str:
    lines = []
    for rec in result.records:
        lines.append(
            f"R{rec.index}: rep {_fmt_tuple(reportio.key_json(rec.representative))} "
            f"divisor {_fmt_tuple(rec.divisor.coeffs)} "
            f"facets {len(rec.cfacets)}"
        )
    lines.append(f"representatives: {len(result.representatives)}")
    lines.append(f"distinct ideals: {len(result.records)}")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _cmd_walk(engine, opts, fmt: str):
    """`enumerate` and `walls`: the same walk, told apart only by the
    default format and the payload's `command`."""
    result = engine.enumerate_constancy_regions(opts["box"])
    if fmt == "svg":
        return render_walls(result)
    if fmt == "text":
        return _enumeration_text(result)
    return reportio.enumeration_json(result, opts["command"])


def _cmd_jumping_numbers(engine, opts, fmt: str):
    ideal = opts["ideal"]
    if (ideal is None) == (opts["direction"] is None):
        raise PreconditionViolated("jumping-numbers needs exactly one of --ideal / --direction")
    if ideal is not None:
        direction = engine._ideal_direction(ideal)
    else:
        direction = _split_list(opts["direction"], "--direction")
    key, upto, jumps = engine._chain(direction, opts["upto"])
    values = [str(p) if q == 1 else f"{p}/{q}" for p, q in jumps]
    if fmt == "text":
        return " ".join(values) + "\n"
    source = {"ideal": ideal} if ideal is not None else {"direction": reportio.key_json(key)}
    payload = {"command": "jumping-numbers", "upto": reportio.key_json(upto)[0], "values": values, **source}
    return reportio.dump_json(payload)


def _cmd_min_jumping_divisor(engine, opts, fmt: str):
    context = engine.at(opts["lambda"])
    lam, gmin = reportio.key_json(context.key), context.gmin
    if fmt == "text":
        return f"G = {' + '.join(gmin.components)} at {_fmt_tuple(lam)}\n"
    payload = {
        "command": "min-jumping-divisor",
        "lambda": lam,
        "components": list(gmin.components),
        "valences": {cid: v for cid, v in gmin.valences.items()},
        "hyperplanes": {
            cid: {"coeffs": list(w.coeffs), "rhs": reportio.key_json((w.numerator, w.scale))[0]}
            for cid, w in gmin.hyperplanes.items()
        },
        "divisor_at": list(context.divisor.coeffs),
        "left_limit": list(context.left.coeffs),
    }
    return reportio.dump_json(payload)


def _cmd_verify(engine, opts, fmt: str):
    context = engine.at(opts["lambda"])
    verifiers = (verify_jump_identity, verify_numeric_conditions, verify_contribution_dichotomy)
    reports = [verify(engine, opts["lambda"]) for verify in verifiers]
    code = 0 if all(r.passed for r in reports) else 4
    if fmt != "text":
        return reportio.verification_json(context.key, reports), code
    lines = []
    for report in reports:
        lines.append(f"{report.kind}: {'ok' if report.passed else 'FAIL'}")
        for check in report.checks:
            lines.append(f"  {'ok ' if check.passed else 'FAIL'} {check.name}")
    return "\n".join(lines) + "\n", code


_COMMANDS = {
    "canonical": Command(_cmd_canonical, "relative canonical divisor of the input graph"),
    "mmi": Command(_cmd_mmi, "mixed multiplier ideal divisor at a point", ("--lambda",)),
    "region": Command(_cmd_region, "constancy region inequalities at a point", ("--lambda",)),
    "enumerate": Command(
        _cmd_walk, "enumerate constancy regions inside a box", ("--box",), ("json", "svg", "text")
    ),
    "walls": Command(
        _cmd_walk, "wall diagram of the constancy regions inside a box", ("--box",), ("svg", "json", "text")
    ),
    "jumping-numbers": Command(
        _cmd_jumping_numbers,
        "jumping numbers of one ideal or along a ray",
        ("--ideal", "--direction", "--upto"),
    ),
    "min-jumping-divisor": Command(
        _cmd_min_jumping_divisor, "minimal jumping divisor at a jumping point", ("--lambda",)
    ),
    "verify": Command(_cmd_verify, "verify jump identities at a jumping point", ("--lambda",)),
}


def _long_option(token: str):
    """The option argparse reads `token` as: itself, or the one long option
    it abbreviates; None if it names none or several."""
    if token in _OPTIONS:
        return token
    matches = [option for option in (*_OPTIONS, "--help") if option.startswith(token)]
    return matches[0] if len(matches) == 1 else None


def _read_plain(args: list[str]):
    """`vars(build_parser().parse_args(args))` for a plain command line: a
    command, then options spelled in full, each once, with a value that does
    not start with `-`, `--input` among them and a format the command has.
    None for any other command line, which argparse then reads."""
    if len(args) % 2 == 0 or args[0] not in _COMMANDS:
        return None
    opts = dict.fromkeys(("command", *_OPTIONS.values()))
    opts["command"] = args[0]
    for i in range(1, len(args), 2):
        key, value = _OPTIONS.get(args[i]), args[i + 1]
        if key is None or opts[key] is not None or value[:1] == "-":
            return None
        opts[key] = value
    if opts["input"] is None or opts["format"] not in (None, *_COMMANDS[args[0]].formats):
        return None
    return opts


def _fail(exc: MMIError) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return exc.exit_code


def main(argv=None) -> int:
    parser = build_parser()
    args: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if token[:1] == "-" and args and re.match(r"-[0-9./]", token) and _long_option(args[-1]) in _COORDINATE_FLAGS:
            token = args.pop() + "=" + token
        args.append(token)
    opts = _read_plain(args) or vars(parser.parse_args(args))
    name = opts["command"]
    command = _COMMANDS[name]
    foreign = [f"{f} {opts[f[2:]]}" for f in _FLAGS if f not in command.flags and opts[f[2:]] is not None]
    if foreign:
        parser.error("unrecognized arguments: " + " ".join(foreign))
    fmt = opts["format"] or command.formats[0]
    try:
        if fmt not in command.formats:
            raise PreconditionViolated(f"{name} has no SVG rendering")
        _, ideals = reportio.load_input(opts["input"])
        engine = RegionEngine(ideals)
        for flag in command.flags:
            key, (_, required, split) = flag[2:], _FLAGS[flag]
            if required and opts[key] is None:
                raise PreconditionViolated(f"{name} needs {flag}")
            if split:
                opts[key] = _split_list(opts[key], flag)
        outcome = command.run(engine, opts, fmt)
        text, code = outcome if isinstance(outcome, tuple) else (outcome, 0)
        if opts["output"]:
            try:
                with open(opts["output"], "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise PreconditionViolated(f"{opts['output']}: cannot write ({exc})") from exc
    except MMIError as exc:
        return _fail(exc)
    except Exception:  # noqa: BLE001 - anything else is a bug, exit 4
        traceback.print_exc()
        return 4
    if not opts["output"]:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError:  # only text reports can hold non-ASCII
            return _fail(PreconditionViolated(f"stdout ({sys.stdout.encoding}) cannot encode this report; use --output"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
