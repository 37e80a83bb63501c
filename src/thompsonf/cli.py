"""Command-line front end: batch verification and audits with stable formats.

Every command emits a single JSON document (sorted keys, two-space indent)
to stdout or ``--output``; rationals appear as exact strings like "3/4" and
no float is ever printed.  Given the same flags and input files the output
is byte-identical.  Every command runs serially; ``--workers`` on verify,
reduce and ball is still accepted, and ignored, so older scripts keep
working.

Exit codes: 0 success or PASS, 1 failed property or certificate, 2 bad
input, 3 violated precondition.

Randomized suites build marked sets from the uniform 1/16 grid plus up to
sixteen extra dyadics p/2^q with q <= 10 (mesh <= 1/16 guaranteed), so any
run can be reproduced from its seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable

from . import diagnostics, verify
from .errors import (
    PRECONDITION_ERRORS,
    EmptyFamily,
    MalformedInput,
    OutOfRange,
    ToolkitError,
)
from .exactnum import format_int, format_number, parse_coordinate, parse_number
from .felement import FElement, compose, generator_table, identity
from .folner import (
    MAX_Z_INDEX,
    defect_elements,
    defect_marked,
    family_to_lines,
    folner_certificate,
    load_family_text,
    reduce_to_f,
    z_family,
)
from .partition import MarkedSet, is_standard, mesh, t_of

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

_WORD_TOKEN = re.compile(r"(x[01])(?:\^(-?\d+))?\Z")
_IGNORED_FLAG = "accepted and ignored; every command runs serially"


def parse_word(text: str) -> FElement:
    """Evaluate a word like ``"x0 x1^-1 x0^2"`` (also '*' separated)."""
    table = generator_table()
    out = identity()
    tokens = [t for t in re.split(r"[\s*]+", text.strip()) if t]
    for token in tokens:
        m = _WORD_TOKEN.match(token)
        if m is None:
            raise MalformedInput(f"bad word token {token!r}")
        base, exp = m.group(1), int(m.group(2) or 1)
        out = compose(out, table[base] ** exp)
    return out


def _emit(doc: dict, output: str | None) -> None:
    _emit_lines([json.dumps(doc, sort_keys=True, indent=2)], output)


def _emit_lines(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="ascii")


def _read_input(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suites(args.seed, args.cases, args.corrupt)
    _emit(report, args.output)
    return EXIT_OK if report["all_passed"] else EXIT_FAIL


def cmd_tof(args: argparse.Namespace) -> int:
    data = json.loads(_read_input(args.input))
    if not isinstance(data, list):
        raise MalformedInput("tof expects a JSON array of coordinate strings")
    X = MarkedSet.from_strings(data)
    T = t_of(X)
    _emit(
        {
            "input": X.to_strings(),
            "t_of": T.to_strings(),
            "mesh": format_number(mesh(T)),
            "is_standard": is_standard(T),
        },
        args.output,
    )
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    epsilon = parse_number(args.epsilon)
    kind, members = load_family_text(_read_input(args.input))
    if kind != "marked":
        raise MalformedInput("reduce expects a family of marked sets")
    marked_report = defect_marked(members, side=args.side)
    elements, reduction = reduce_to_f(members)
    element_report = defect_elements(elements, side=args.side)
    certificate = folner_certificate(marked_report, epsilon)
    _emit(
        {
            "marked_defect": marked_report.to_json_dict(),
            "reduction": reduction.to_json_dict(),
            "element_defect": element_report.to_json_dict(),
            "certificate": certificate.to_json_dict(),
        },
        args.output,
    )
    return EXIT_OK if certificate.passed else EXIT_FAIL


def cmd_defect(args: argparse.Namespace) -> int:
    kind, members = load_family_text(_read_input(args.input))
    if kind == "marked":
        report = defect_marked(members, side=args.side)
    else:
        report = defect_elements(members, side=args.side)
    _emit({"kind": kind, "report": report.to_json_dict()}, args.output)
    return EXIT_OK


def cmd_zfamily(args: argparse.Namespace) -> int:
    indices, count = args.indices, args.count
    if count is not None:
        if count <= 0:
            raise OutOfRange("--count must be positive")
        if count > MAX_Z_INDEX + 1:
            raise OutOfRange(f"--count must be at most {MAX_Z_INDEX + 1}")
        indices = range(count)
    if not indices:
        raise EmptyFamily("give indices or --count")
    family = z_family(indices)
    _emit_lines(family_to_lines(family), args.output)
    return EXIT_OK


def cmd_ball(args: argparse.Namespace) -> int:
    constant_c = parse_number(args.constant_c)
    elements = diagnostics.ball(args.radius)
    doc: dict = {"radius": args.radius, "size": len(elements)}
    if args.full:
        ordered = sorted(elements, key=lambda f: f.canonical_key)
        doc["elements"] = [f.to_json_dict() for f in ordered]
    if args.defect:
        report = defect_elements(elements, side=args.side)
        doc["defect_report"] = report.to_json_dict()
        # the growth bound only asserts that some constant works; the one
        # used here is always stated, defaulted or not
        verdict = diagnostics.tower_check(len(elements), report.max_defect, constant_c)
        doc["tower_check"] = verdict.to_json_dict()
        doc["tower_check"]["constant_c"] = format_number(constant_c)
    _emit(doc, args.output)
    return EXIT_OK


def cmd_tower(args: argparse.Namespace) -> int:
    _emit({"n": args.n, "value": format_int(diagnostics.tower(args.n))}, args.output)
    return EXIT_OK


def cmd_measure_mono(args: argparse.Namespace) -> int:
    measure_data = json.loads(Path(args.measure).read_text(encoding="utf-8"))
    chain_data = json.loads(Path(args.chain).read_text(encoding="utf-8"))
    mu = diagnostics.FiniteMeasure.from_json_list(measure_data)
    chain = diagnostics.IntervalChain.from_json_list(chain_data)
    mass = diagnostics.monotonicity_mass(mu, chain)
    _emit(
        {
            "support_size": len(mu.entries),
            "chain_length": len(chain.intervals),
            "monotone_mass": format_number(mass),
        },
        args.output,
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    f = parse_word(args.word)
    t = parse_coordinate(args.point)
    _emit(
        {"word": args.word, "point": format_number(t), "image": format_number(f.apply(t))},
        args.output,
    )
    return EXIT_OK


def cmd_compose(args: argparse.Namespace) -> int:
    f = parse_word(" ".join(args.words))
    _emit(f.to_json_dict(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thompsonf",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, handler: Callable[[argparse.Namespace], int], summary: str
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--output", help="write the JSON document here instead of stdout")
        return p

    p = command("verify", cmd_verify, "run the seeded property suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1, help=_IGNORED_FLAG)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p = command("tof", cmd_tof, "maximal standard partition of a marked set")
    p.add_argument("--input", required=True)

    p = command("reduce", cmd_reduce, "mesh check, audits and reduction pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True, help="strict defect target, e.g. 1/8")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--workers", type=int, default=1, help=_IGNORED_FLAG)

    p = command("defect", cmd_defect, "symmetric-difference audit of a family file")
    p.add_argument("--input", required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")

    p = command("zfamily", cmd_zfamily, "three-point families indexed by integers")
    p.add_argument("indices", type=int, nargs="*")
    p.add_argument("--count", type=int, help="use indices 0..count-1")

    p = command("ball", cmd_ball, "breadth-first ball in the generators")
    p.add_argument("radius", type=int)
    p.add_argument("--workers", type=int, default=1, help=_IGNORED_FLAG)
    p.add_argument("--full", action="store_true", help="list the elements")
    p.add_argument(
        "--defect",
        action="store_true",
        help="audit the ball and run the tower consistency check",
    )
    p.add_argument(
        "--constant-c",
        default="2",
        help="base for the tower consistency check; defaults to 2, "
        "which is a choice, not a theorem",
    )
    p.add_argument("--side", choices=("left", "right"), default="left")

    p = command("tower", cmd_tower, "iterated exponential lower bound")
    p.add_argument("n", type=int)

    p = command("measure-mono", cmd_measure_mono, "monotone-count mass of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--chain", required=True)

    p = command("eval", cmd_eval, "apply a word in the generators to a point")
    p.add_argument("word")
    p.add_argument("point")

    p = command("compose", cmd_compose, "canonical form of a product of words")
    p.add_argument("words", nargs="+")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ToolkitError, json.JSONDecodeError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
