"""Command-line interface.

Every command prints either readable text (default) or a single JSON object
with "schema": 1 and sorted keys, so repeated runs are byte-identical.  Exit
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


def _report_payload(rs: RootSystem, rep: VerificationReport) -> dict:
    out = rep.to_json()
    out["schema"] = SCHEMA
    out["type"] = rs.name
    out["ok"] = rep.ok
    return out


def _report_lines(rep: VerificationReport) -> list[str]:
    lines = [f"{rep.name}: {'ok' if rep.ok else 'FAILED'} ({rep.checked} checks)"]
    lines += [f"  violation: {v}" for v in rep.violations[:20]]
    for k in sorted(rep.details):
        lines.append(f"  {k}: {rep.details[k]}")
    return lines


def _cmd_roots(args):
    rs = build(args.type)
    pos = rs.positive_roots
    payload = {
        "schema": SCHEMA,
        "type": rs.name,
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


def _cmd_cartan(args):
    rs = build(args.type)
    payload = {
        "schema": SCHEMA,
        "type": rs.name,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
    }
    lines = [f"{rs.name} Cartan matrix"]
    lines += ["  " + " ".join(f"{v:2d}" for v in row) for row in rs.cartan]
    return OK, payload, lines


def _cmd_bwb(args):
    rs = build(args.type)
    lam = _vector(args, rs)
    verdict = bwb(rs, lam)
    payload = {
        "schema": SCHEMA,
        "type": rs.name,
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


def _cmd_cht(args):
    rs = build(args.type)
    lam = _vector(args, rs)
    rep = cht(rs, lam)
    payload = {
        "schema": SCHEMA,
        "type": rs.name,
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


def _cmd_cotangent(args):
    rs = build(args.type)
    lam = _vector(args, rs)
    verdict = cotangent_verdict(rs, lam)
    payload = {
        "schema": SCHEMA,
        "type": rs.name,
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


def _cmd_euler(args):
    rs = build(args.type)
    lam = _vector(args, rs)
    value = euler_characteristic_graded(rs, lam, args.degree, max_terms=args.max_terms)
    payload = {
        "schema": SCHEMA,
        "type": rs.name,
        "weight": _coords(rs.to_weight_basis(lam)),
        "degree": args.degree,
        "euler": value,
    }
    _printable(rs, payload)
    lines = [f"{rs.name} {lam}: graded euler characteristic at degree {args.degree} is {value}"]
    return OK, payload, lines


def _cmd_chevalley(args):
    from .chevalley import build_constants, dump_constants, verify_chevalley

    rs = build(args.type)
    constants = build_constants(rs)
    if args.dump:
        text = dump_constants(constants)
        payload = {
            "schema": SCHEMA,
            "type": rs.name,
            "entries": [
                [_coords(a), _coords(b), s]
                for a, b, s in constants.nonzero_entries()
            ],
        }
        return OK, payload, text.splitlines()
    rep = verify_chevalley(constants)
    payload = _report_payload(rs, rep)
    payload["dimension"] = rs.rank + len(rs.all_roots)
    return (OK if rep.ok else FAILED), payload, _report_lines(rep)


def _cmd_obstruction(args):
    from .chevalley import build_constants
    from .obstruction import Half, build_system, certify_solvability, check_bianchi, system_text
    from .verify import cotangent_h2_oracle

    rs = build(args.type)
    constants = build_constants(rs)
    half = Half(args.half)
    system = build_system(constants, half)
    closure = check_bianchi(system)
    lines = system_text(system).splitlines()
    payload = {
        "schema": SCHEMA,
        "type": rs.name,
        "half": half.value,
        # each form is rendered once: its line "(coords): text" gives the entry
        "classes": dict(line[1:].split("): ", 1) for line in lines[1:]),
        "bianchi_ok": closure.ok,
    }
    lines.append(f"# bianchi closure: {'ok' if closure.ok else 'FAILED'}")
    code = OK if closure.ok else FAILED
    if args.certify:
        oracle = (
            surface_h2_oracle(resolution_lattice(rs))
            if half is Half.POSITIVE
            else cotangent_h2_oracle(rs)
        )
        cert = certify_solvability(system, oracle)
        payload["solvable"] = cert.solvable
        payload["requirements"] = [_coords(a) for a in cert.requirements]
        lines.append(f"# solvable: {cert.solvable}")
        lines.append(f"# nontriviality requirements: {len(cert.requirements)}")
        if not cert.solvable:
            code = FAILED
    return code, payload, lines


def _cmd_surface(args):
    rs = build(args.type)
    lattice = resolution_lattice(rs)
    if args.root is not None:
        alpha = root_vector(*args.root) if len(args.root) == rs.rank else None
        if alpha is None:
            raise AdelieError(f"{rs.name} needs {rs.rank} root coordinates")
        d = root_to_divisor(lattice, alpha)
        verdict = surface_h2_oracle(lattice)(alpha)
        payload = {
            "schema": SCHEMA,
            "type": rs.name,
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
    payload = _report_payload(rs, rep)
    payload["minus_two_classes"] = rep.details["minus_two_classes"]
    return (OK if rep.ok else FAILED), payload, _report_lines(rep)


def run_suite(rs: RootSystem, suite: str) -> VerificationReport:
    """verify.run_suite, imported only when a verify command runs."""
    from .verify import run_suite

    return run_suite(rs, suite)


def _cmd_verify(args):
    rs = build(args.type)
    rep = run_suite(rs, args.suite)
    payload = _report_payload(rs, rep)
    payload["suite"] = args.suite
    return (OK if rep.ok else FAILED), payload, _report_lines(rep)


COMMAND_FOR_OPERATION = {
    "roots": _cmd_roots,
    "cartan": _cmd_cartan,
    "bwb": _cmd_bwb,
    "cht": _cmd_cht,
    "cotangent": _cmd_cotangent,
    "euler": _cmd_euler,
    "chevalley": _cmd_chevalley,
    "obstruction": _cmd_obstruction,
    "surface": _cmd_surface,
    "verify": _cmd_verify,
}


def _add_common(sub):
    sub.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )


def _add_weight_args(sub):
    sub.add_argument("coords", nargs="+", type=int, help="weight coordinates")
    sub.add_argument(
        "--basis", choices=("weight", "root"), default="weight",
        help="basis of the input coordinates (default weight)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adelie",
        description="Exact computations in simply-laced root systems: "
        "line-bundle cohomology, chain heights, Chevalley structure "
        "constants, obstruction systems, and the resolved-surface dictionary.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("roots", help="list the positive roots")
    sub.add_argument("type", help="root system, e.g. A2, D5, E8")
    _add_common(sub)

    sub = subs.add_parser("cartan", help="print the Cartan matrix")
    sub.add_argument("type")
    _add_common(sub)

    sub = subs.add_parser("bwb", help="line-bundle cohomology on the flag variety")
    sub.add_argument("type")
    _add_weight_args(sub)
    _add_common(sub)

    sub = subs.add_parser("cht", help="chain height and the dominance interval")
    sub.add_argument("type")
    _add_weight_args(sub)
    _add_common(sub)

    sub = subs.add_parser("cotangent", help="degree-two vanishing verdict")
    sub.add_argument("type")
    _add_weight_args(sub)
    _add_common(sub)

    sub = subs.add_parser("euler", help="graded euler characteristic")
    sub.add_argument("type")
    _add_weight_args(sub)
    sub.add_argument("--degree", type=int, default=0, help="symmetric degree (default 0)")
    sub.add_argument(
        "--max-terms", type=int, default=10**6,
        help="term budget before giving up (default 1000000)",
    )
    _add_common(sub)

    sub = subs.add_parser("chevalley", help="verify or dump the structure constants")
    sub.add_argument("type")
    sub.add_argument("--dump", action="store_true", help="print the sign table")
    _add_common(sub)

    sub = subs.add_parser("obstruction", help="build one half obstruction system")
    sub.add_argument("type")
    sub.add_argument(
        "--half", choices=("positive", "negative"), default="positive",
        help="which half (default positive)",
    )
    sub.add_argument(
        "--certify", action="store_true",
        help="certify solvability against the matching H^2 oracle",
    )
    _add_common(sub)

    sub = subs.add_parser("surface", help="resolved-surface dictionary and descent")
    sub.add_argument("type")
    sub.add_argument(
        "--root", nargs="+", type=int, default=None,
        help="root coordinates to look up instead of running the full check",
    )
    _add_common(sub)

    sub = subs.add_parser("verify", help="run a named verification suite")
    sub.add_argument("type")
    sub.add_argument("suite", choices=SUITES + ("all",))
    _add_common(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = COMMAND_FOR_OPERATION[args.command](args)
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
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
