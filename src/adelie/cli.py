"""Command-line interface.

Every command prints either readable text (default) or a single JSON object
with "schema": 1 and sorted keys, so repeated runs are byte-identical.  main
builds the root system, passes it to the command, adds "schema" and "type"
to the payload the command returns and picks the format.  Exit
status: 0 on success, 1 when a verification or certification fails, 2 on bad
input or an exhausted budget, 3 on an internal error (an invariant of the
construction failed, which is a bug).

chevalley, obstruction and verify, and through them numpy, are imported only
by the commands that run them; euler imports numpy in its kernel, and the
other commands start without it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from ._exact import digits_past_limit
# cotangent and flag stay module-level imports although only some commands run
# them: perfbench/tracer.py wraps the functions of the modules loaded before it
# installs, and CI's "benchmark spans" step fails on an absent cotangent.* or
# flag.* span
from .cotangent import cht, cotangent_verdict, euler_characteristic_graded
from .errors import AdelieError, CancellationFailure, ConstructionFailure
from .flag import ALL_VANISH, bwb
from .report import SUITES, VerificationReport
from .roots import LatticeVector, RootSystem, build, root_vector, weight_vector
from .surface import resolution_lattice, root_to_divisor, surface_h2_oracle, verify_surface

SCHEMA = 1
OK, FAILED, USAGE, INTERNAL = 0, 1, 2, 3


def _vector(args, rs: RootSystem) -> LatticeVector:
    coords = tuple(args.coords)
    if len(coords) != rs.rank:
        raise AdelieError(
            f"{rs.name} needs {rs.rank} coordinates, got {len(coords)}"
        )
    if getattr(args, "basis", "weight") == "root":
        return root_vector(*coords)
    return weight_vector(*coords)


def _coords(v: LatticeVector | None) -> list[int] | None:
    return None if v is None else list(v.coords)


def _printable(rs: RootSystem, payload: dict) -> None:
    """AdelieError naming the first payload entry with an int of more digits
    than Python prints; entries are ints or lists of them, at most two deep."""
    for key, value in payload.items():
        for v in value if isinstance(value, list) else [value]:
            for x in v if isinstance(v, list) else [v]:
                if isinstance(x, int) and (digits := digits_past_limit(x)):
                    raise AdelieError(
                        f"{rs.name}: {key} has {digits} digits, too many to print"
                    )


def _report(rep: VerificationReport) -> tuple[int, dict, list[str]]:
    payload = rep.to_json()
    payload["ok"] = rep.ok
    lines = [f"{rep.name}: {'ok' if rep.ok else 'FAILED'} ({rep.checked} checks)"]
    lines += [f"  violation: {v}" for v in rep.violations[:20]]
    lines += [f"  {k}: {rep.details[k]}" for k in sorted(rep.details)]
    return (OK if rep.ok else FAILED), payload, lines


def _cmd_roots(rs, args):
    pos = rs.positive_roots
    payload = {
        "rank": rs.rank,
        "count": len(pos),
        "positive_roots": [_coords(a) for a in pos],
        "highest_root": _coords(rs.highest_root()),
    }
    lines = [f"{rs.name}: {len(pos)} positive roots"]
    lines += [
        f"  {' '.join(str(v) for v in a.coords)}  (height {rs.height(a)})"
        for a in pos
    ]
    return OK, payload, lines


def _cmd_cartan(rs, args):
    payload = {
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
    }
    lines = [f"{rs.name} Cartan matrix"]
    lines += ["  " + " ".join(f"{v:2d}" for v in row) for row in rs.cartan]
    return OK, payload, lines


def _cmd_bwb(rs, args):
    lam = _vector(args, rs)
    verdict = bwb(rs, lam)
    payload = {
        "weight": _coords(rs.to_weight_basis(lam)),
        "status": verdict.status,
        "degree": verdict.degree,
        "highest_weight": _coords(verdict.highest_weight),
        "dimension": verdict.dimension,
        "word": None if verdict.word is None else list(verdict.word),
        "euler": verdict.euler,
    }
    _printable(rs, payload)
    if verdict.status == ALL_VANISH:
        lines = [f"{rs.name} {lam}: all cohomology vanishes"]
    else:
        word = " ".join(str(i) for i in verdict.word) or "(empty)"
        lines = [
            f"{rs.name} {lam}: concentrated in degree {verdict.degree}",
            f"  highest weight {verdict.highest_weight}",
            f"  dimension {verdict.dimension}",
            f"  word {word}",
            f"  euler characteristic {payload['euler']}",
        ]
    return OK, payload, lines


def _cmd_cht(rs, args):
    lam = _vector(args, rs)
    rep = cht(rs, lam)
    payload = {
        "weight": _coords(rs.to_weight_basis(lam)),
        "value": rep.value,
        "lambda_star": _coords(rep.lambda_star),
        "lambda_plus": _coords(rep.lambda_plus),
        "shift": rep.shift,
        "interval_points": rep.interval_points,
        "chain": [_coords(v) for v in rep.chain],
    }
    _printable(rs, payload)
    lines = [
        f"{rs.name} {lam}: cht {rep.value}",
        f"  lambda* {rep.lambda_star}",
        f"  lambda+ {rep.lambda_plus}",
        f"  shift {rep.shift}, interval points {rep.interval_points}",
        "  chain " + " < ".join(str(v.coords) for v in rep.chain),
    ]
    return OK, payload, lines


def _cmd_cotangent(rs, args):
    lam = _vector(args, rs)
    verdict = cotangent_verdict(rs, lam)
    payload = {
        "weight": _coords(verdict.weight),
        "cht": verdict.report.value,
        "vanishing_above": verdict.vanishing_above,
        "h2_vanish": verdict.h2_vanish,
    }
    _printable(rs, payload)
    state = "vanishes" if verdict.h2_vanish else "not excluded"
    lines = [
        f"{rs.name} {lam}: cht {verdict.report.value}, "
        f"cohomology bounded above degree {verdict.vanishing_above}",
        f"  degree two {state}",
    ]
    return OK, payload, lines


def _cmd_euler(rs, args):
    lam = _vector(args, rs)
    value = euler_characteristic_graded(rs, lam, args.degree, max_terms=args.max_terms)
    payload = {
        "weight": _coords(rs.to_weight_basis(lam)),
        "degree": args.degree,
        "euler": value,
    }
    _printable(rs, payload)
    lines = [f"{rs.name} {lam}: graded euler characteristic at degree {args.degree} is {value}"]
    return OK, payload, lines


def _cmd_chevalley(rs, args):
    from .chevalley import build_constants, dump_constants, verify_chevalley
    constants = build_constants(rs)
    if args.dump:
        text = dump_constants(constants)
        payload = {
            "entries": [
                [_coords(a), _coords(b), s]
                for a, b, s in constants.nonzero_entries()
            ],
        }
        return OK, payload, text.splitlines()
    code, payload, lines = _report(verify_chevalley(constants))
    payload["dimension"] = rs.rank + len(rs.all_roots)
    return code, payload, lines


def _cmd_obstruction(rs, args):
    from .chevalley import build_constants
    from .obstruction import Half, build_system, certify_solvability, check_bianchi, system_text
    from .verify import half_h2_oracle

    constants = build_constants(rs)
    half = Half(args.half)
    system = build_system(constants, half)
    closure = check_bianchi(system)
    lines = system_text(system).splitlines()
    payload = {
        "half": half.value,
        # each form is rendered once: its line "(coords): text" gives the entry
        "classes": dict(line[1:].split("): ", 1) for line in lines[1:]),
        "bianchi_ok": closure.ok,
    }
    lines.append(f"# bianchi closure: {'ok' if closure.ok else 'FAILED'}")
    code = OK if closure.ok else FAILED
    if args.certify:
        cert = certify_solvability(system, half_h2_oracle(rs, half))
        payload["solvable"] = cert.solvable
        payload["requirements"] = [_coords(a) for a in cert.requirements]
        lines.append(f"# solvable: {cert.solvable}")
        lines.append(f"# nontriviality requirements: {len(cert.requirements)}")
        if not cert.solvable:
            code = FAILED
    return code, payload, lines


def _cmd_surface(rs, args):
    lattice = resolution_lattice(rs)
    if args.root is not None:
        alpha = root_vector(*args.root) if len(args.root) == rs.rank else None
        if alpha is None:
            raise AdelieError(f"{rs.name} needs {rs.rank} root coordinates")
        d = root_to_divisor(lattice, alpha)
        verdict = surface_h2_oracle(lattice)(alpha)
        payload = {
            "root": _coords(alpha),
            "divisor": list(d.coeffs),
            "self_intersection": lattice.self_intersection(d),
            "restrictions": list(lattice.degrees(d)),
            "h2_vanishes": verdict.vanishes,
            "descent": verdict.detail,
        }
        lines = [
            f"{rs.name} root {alpha}: divisor {d.coeffs}",
            f"  self-intersection {payload['self_intersection']}",
            f"  restriction degrees {payload['restrictions']}",
            f"  H^2 vanishes: {verdict.vanishes} ({verdict.detail})",
        ]
        return OK, payload, lines
    rep = verify_surface(rs)
    code, payload, lines = _report(rep)
    payload["minus_two_classes"] = rep.details["minus_two_classes"]
    return code, payload, lines


def run_suite(rs: RootSystem, suite: str) -> VerificationReport:
    """verify.run_suite, imported only when a verify command runs."""
    from .verify import run_suite

    return run_suite(rs, suite)


def _cmd_verify(rs, args):
    code, payload, lines = _report(run_suite(rs, args.suite))
    payload["suite"] = args.suite
    return code, payload, lines


_WEIGHT = (
    ("coords", {"nargs": "+", "type": int, "help": "weight coordinates"}),
    ("--basis", {"choices": ("weight", "root"), "default": "weight",
                 "help": "basis of the input coordinates (default weight)"}),
)

# name, command, help and the command's own arguments; build_parser adds
# "type" before them and "--format" after them
COMMANDS = (
    ("roots", _cmd_roots, "list the positive roots", ()),
    ("cartan", _cmd_cartan, "print the Cartan matrix", ()),
    ("bwb", _cmd_bwb, "line-bundle cohomology on the flag variety", _WEIGHT),
    ("cht", _cmd_cht, "chain height and the dominance interval", _WEIGHT),
    ("cotangent", _cmd_cotangent, "degree-two vanishing verdict", _WEIGHT),
    ("euler", _cmd_euler, "graded euler characteristic", _WEIGHT + (
        ("--degree", {"type": int, "default": 0, "help": "symmetric degree (default 0)"}),
        ("--max-terms", {"type": int, "default": 10**6,
                         "help": "term budget before giving up (default 1000000)"}),
    )),
    ("chevalley", _cmd_chevalley, "verify or dump the structure constants", (
        ("--dump", {"action": "store_true", "help": "print the sign table"}),
    )),
    ("obstruction", _cmd_obstruction, "build one half obstruction system", (
        ("--half", {"choices": ("positive", "negative"), "default": "positive",
                    "help": "which half (default positive)"}),
        ("--certify", {"action": "store_true",
                       "help": "certify solvability against the matching H^2 oracle"}),
    )),
    ("surface", _cmd_surface, "resolved-surface dictionary and descent", (
        ("--root", {"nargs": "+", "type": int, "default": None,
                    "help": "root coordinates to look up instead of running the full check"}),
    )),
    ("verify", _cmd_verify, "run a named verification suite", (
        ("suite", {"choices": SUITES + ("all",)}),
    )),
)

# the dispatch table main reads
COMMAND_FOR_OPERATION = {name: command for name, command, _, _ in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adelie",
        description="Exact computations in simply-laced root systems: "
        "line-bundle cohomology, chain heights, Chevalley structure "
        "constants, obstruction systems, and the resolved-surface dictionary.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, _, help_text, arguments in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        # only roots' help describes the type
        sub.add_argument("type", help="root system, e.g. A2, D5, E8" if name == "roots" else None)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rs = build(args.type)
        code, payload, lines = COMMAND_FOR_OPERATION[args.command](rs, args)
    except (ConstructionFailure, CancellationFailure) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    except AdelieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # any other failure is a bug, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL
    if args.format == "json":
        print(json.dumps({**payload, "schema": SCHEMA, "type": rs.name}, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
