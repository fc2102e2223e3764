"""Command line front end: monoid info, ideal arithmetic, worked-example
demos, and the property suites, all with seeded deterministic JSON reports."""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from . import domains as dom
from . import graded as grd
from . import ideals as mid
from . import quadric as qdr
from . import suites
from .errors import ExponentCapError, ParseError
from .semigroups import _wide_bit_positions, parse_int_list, parse_monoid
from .suites import check

SEED_ENV = "SGCLASS_SEED"


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


# Options whose value is an integer list that may start with a negative number.
_LIST_OPTIONS = ("--sgp", "--gens", "--gens2")


def _attach_negative_lists(argv) -> list[str]:
    """Glue a value such as ``-5,0`` to its list option as ``--gens=-5,0``.

    argparse would otherwise read the value as an unknown option.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run.

    Each leaf parser names its handler, called as ``handler(args, seed,
    checks)``, and the options its report echoes under ``inputs``.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"root seed (default: ${SEED_ENV} or 0)")
    common.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS,
                        help="also write the full JSON report to this file")
    parser = argparse.ArgumentParser(
        prog="sgclass", parents=[common],
        description="exact ideal arithmetic for numerical semigroups, "
                    "quadratic orders, and their monoid rings")
    sub = parser.add_subparsers(dest="command", required=True)

    sgp = sub.add_parser("sgp", help="numerical semigroup operations")
    sgp_sub = sgp.add_subparsers(dest="subcommand", required=True)
    info = sgp_sub.add_parser("info", parents=[common],
                              help="gaps, conductor, Apery set")
    info.add_argument("--sgp", required=True, help="monoid, e.g. 2,3 or p^inf:2")
    info.set_defaults(handler=_cmd_sgp_info, inputs=("sgp",))
    ideal = sgp_sub.add_parser("ideal", parents=[common],
                               help="fractional ideal arithmetic")
    ideal.add_argument("--sgp", required=True)
    ideal.add_argument("--gens", required=True,
                       help="ideal generators in normalized coordinates, e.g. 2,3")
    ideal.add_argument("--gens2", help="second operand for sum/colon")
    ideal.add_argument("--op", default="info",
                       choices=("info", "sum", "colon", "inverse", "v", "t",
                                "class"))
    ideal.set_defaults(handler=_cmd_sgp_ideal, inputs=("sgp",))
    search = sgp_sub.add_parser("search", parents=[common],
                                help="sweep for a non-principal t-invertible ideal")
    search.add_argument("--sgp", required=True)
    search.add_argument("--bound", type=_int_at_least(0), default=12)
    search.set_defaults(handler=_cmd_sgp_search, inputs=("sgp",))

    demo = sub.add_parser("demo", parents=[common],
                          help="worked examples as named scenarios")
    demo.add_argument("name", choices=DEMOS)
    demo.add_argument("--sgp", help="monoid override where meaningful")
    demo.add_argument("--domain", help="coefficient domain override")
    demo.add_argument("--bound", type=_int_at_least(0), default=None)
    demo.add_argument("--trials", type=_int_at_least(1), default=None)
    demo.set_defaults(handler=_cmd_demo, inputs=("name", *DEMO_OVERRIDES))

    suite = sub.add_parser("suite", parents=[common],
                           help="randomized property suites")
    suite.add_argument("--trials", type=_int_at_least(1), default=None)
    suite.add_argument("--only", choices=sorted(suites.SUITES),
                       help="run a single suite")
    suite.set_defaults(handler=_cmd_suite, inputs=("trials", "only"))
    return parser


def _numerical(text: str):
    descriptor = parse_monoid(text)
    return descriptor.require_ideal_arithmetic()


# --- sgp ---------------------------------------------------------------------

def _cmd_sgp_info(args, seed, checks):
    descriptor = parse_monoid(args.sgp)
    results = {"monoid": descriptor.text(), "kind": descriptor.kind,
               "integrally_closed": descriptor.is_integrally_closed()}
    if descriptor.kind == "numerical":
        sgp = descriptor.semigroup
        apery = sgp.apery(sgp.multiplicity)
        results.update({
            "generators": list(sgp.generators),
            "scale": sgp.scale,
            "gaps": list(sgp.gaps),
            "frobenius": sgp.frobenius,
            "conductor": sgp.conductor,
            "multiplicity": sgp.multiplicity,
            "apery": apery,
        })
        residues = {a % sgp.multiplicity for a in apery}
        ok = len(residues) == sgp.multiplicity and \
            all(sgp.contains(a) and not sgp.contains(a - sgp.multiplicity)
                for a in apery)
        check(checks, "Apery set covers every residue class minimally", ok,
              f"multiplicity {sgp.multiplicity}")
    else:
        checks.append({"name": "ideal arithmetic unsupported on this monoid",
                       "status": "skipped",
                       "detail": "integral closedness only"})
    return results


def _is_v_closure(sgp, ygens, ideal) -> bool:
    """Whether ``ideal`` is Y_v = (S : Y^-1) for the Y that ``ygens`` generate, by sets in
    steps linear in the conductor: a set closed under adding the multiplicity m is Y_v iff
    in each class mod m its least member w lies in Y_v and w - m does not."""
    m, members = sgp.multiplicity, ideal.members
    in_v = suites.v_oracle(sgp, ygens)
    least = (ideal.min + i for i in _wide_bit_positions(members & ~(members << m)))
    return not members & ~(members >> m) and all(in_v(w) and not in_v(w - m) for w in least)


def _cmd_sgp_ideal(args, seed, checks):
    sgp = _numerical(args.sgp)
    y = mid.ideal_from_generators(sgp, parse_int_list(args.gens))
    op = args.op
    if op in ("sum", "colon") and not args.gens2:
        raise ParseError(f"--op {op} needs --gens2")
    if op not in ("sum", "colon") and args.gens2 is not None:
        raise ParseError(f"--op {op} does not take --gens2")
    z = mid.ideal_from_generators(sgp, parse_int_list(args.gens2)) \
        if args.gens2 else None
    if op == "info":
        result = y
    elif op == "sum":
        result = mid.minkowski_sum(y, z)
    elif op == "colon":
        result = mid.colon(y, z)
    elif op == "inverse":
        result = mid.inverse(y)
    elif op == "v":
        result = mid.v_closure(y)
    elif op == "t":
        result = mid.t_closure(y)
    else:
        result = mid.class_reduce(y)
        representative = result.to_json()
        check(checks, "class representative is divisorial",
              representative["divisorial"], result.text())
        return {"monoid": sgp.text(), "input": y.to_json(), "op": op,
                "representative": representative,
                "invertible": representative["invertible"],
                "trivial": mid.class_is_trivial(result)}
    results = {"monoid": sgp.text(), "input": y.to_json(), "op": op,
               "result": result.to_json(), "result_text": result.text()}
    if op in ("v", "inverse"):
        check(checks, "result is divisorial", results["result"]["divisorial"], result.text())
    if op == "t":
        check(checks, "t-closure equals v-closure here",
              _is_v_closure(sgp, y.min_generators, result), "finitely generated input")
    return results


def _cmd_sgp_search(args, seed, checks):
    """Sweep for a non-principal t-invertible ideal with the definitional judge.
    Every t-invertible ideal of a numerical semigroup is principal
    (``graded.monoid_class_group_status``), so a found ideal is a kernel bug."""
    sgp = _numerical(args.sgp)
    found = mid.search_nonprincipal_t_invertible(sgp, args.bound)
    check(checks, "no non-principal t-invertible ideal found", found is None,
          f"bound {args.bound}")
    return {"monoid": sgp.text(), "bound": args.bound,
            "found": None if found is None else found.to_json()}


# --- demos -------------------------------------------------------------------

def _demo_ex111(args, seed, checks):
    report = qdr.verify_unit_identity()
    checks.extend(report["checks"])
    return {"identity_value": report["identity_value"],
            "generators": report["generators"]}


def _demo_ex112(args, seed, checks):
    forms = dom.reduced_forms(-20)
    check(checks, "exactly two reduced forms at discriminant -20", len(forms) == 2,
          ", ".join(f.text() for f in forms))
    nontrivial = [f for f in forms if f != dom.identity_form(-20)]
    square_ok = len(nontrivial) == 1 and \
        dom.compose(nontrivial[0], nontrivial[0]) == dom.identity_form(-20)
    check(checks, "nontrivial class squares to the identity", square_ok,
          nontrivial[0].text() if nontrivial else "missing")
    structure = dom.describe_class_group(dom.domain_for_discriminant(-20))
    check(checks, "group structure", structure == "Z/2Z", structure)
    return {"discriminant": -20, "forms": [f.text() for f in forms],
            "structure": structure}


def _demo_ex216(args, seed, checks):
    checks.append({
        "name": "rank-2 monoid transfer",
        "status": "skipped",
        "detail": "cited, not computed: for the free rank-2 monoid with one "
                  "generator inverted, the class group of the monoid ring "
                  "equals the coefficient class group"})
    return {"monoid": "rank-2, one generator inverted",
            "conclusion": "class group transfers unchanged"}


def _demo_ex217(args, seed, checks):
    domain = dom.parse_domain("Z[sqrt(-5)]" if args.domain is None else args.domain)
    descriptor = parse_monoid("p^inf:2" if args.sgp is None else args.sgp)
    report = grd.transfer_criterion_report(domain, descriptor)
    for cond in report["conditions"]:
        check(checks, cond["name"], cond["holds"], cond["detail"])
    return report


def _demo_ex218(args, seed, checks):
    bound = args.bound if args.bound is not None else 20
    sgp = _numerical("2,3" if args.sgp is None else args.sgp)
    # the minimal generators of a monoid are an antichain, ascending
    gap_class = mid.class_key(sgp.generators)
    total = principal = shifted = 0
    nondivisorial_keys, witness = set(), None
    # Both verdicts are shift-invariant, so each class is judged once, at its
    # key, and stands for its bound - top + 1 shifts in the enumeration.
    for y, divisorial, invertible in mid.judged_classes(sgp, bound):
        key = y.min_generators
        shifts = bound - key[-1] + 1
        total += shifts
        if not divisorial:
            nondivisorial_keys.add(key)
        if len(key) == 1:
            principal += shifts
        elif key == gap_class:
            shifted += shifts
        # the search's witness (a key precedes its shifts) would be a kernel bug:
        # every t-invertible ideal of S is principal (graded.monoid_class_group_status)
        if witness is None and invertible and len(key) > 1:
            witness = y
    nondivisorial = []
    if nondivisorial_keys:  # the first three in the enumeration
        for gens in mid.canonical_generator_sets(sgp, bound):
            if mid.class_key(gens) in nondivisorial_keys:
                nondivisorial.append(mid.ideal_from_generators(sgp, gens).text())
                if len(nondivisorial) == 3:
                    break
    check(checks, "every enumerated ideal is divisorial", not nondivisorial,
          f"{total} ideals" if not nondivisorial
          else f"counterexamples: {nondivisorial}")
    check(checks, "non-principal ideals are shifts of the gap-filling ideal",
          principal + shifted == total, f"{principal} principal, {shifted} shifted")
    check(checks, "no non-principal t-invertible ideal", witness is None,
          f"bound {bound}")
    return {"monoid": sgp.text(), "bound": bound, "ideals": total,
            "principal": principal, "shifted": shifted,
            "search": None if witness is None else witness.to_json()}


def _suite_demo(name):
    def handler(args, seed, checks):
        fn = suites.SUITES[name]
        report = fn(seed) if args.trials is None else fn(seed, args.trials)
        checks.extend(report["checks"])
        return {"suite": name, "trials": report["trials"],
                "failures": report["failures"]}
    return handler


# Each demo with the overrides it reads; any other override is refused.
DEMO_OVERRIDES = ("sgp", "domain", "bound", "trials")
DEMOS = {
    "ex111": (_demo_ex111, ()),
    "ex112": (_demo_ex112, ()),
    "ex216": (_demo_ex216, ()),
    "ex217": (_demo_ex217, ("sgp", "domain")),
    "ex218": (_demo_ex218, ("sgp", "bound")),
    **{name: (_suite_demo(name), ("trials",))
       for name in ("lemma23", "northcott", "decomposition")},
}


def _cmd_demo(args, seed, checks):
    demo, reads = DEMOS[args.name]
    ignored = [f"--{key}" for key in DEMO_OVERRIDES
               if getattr(args, key) is not None and key not in reads]
    if ignored:
        raise ValueError(f"demo {args.name} does not take {', '.join(ignored)}")
    return demo(args, seed, checks)


def _cmd_suite(args, seed, checks):
    reports = suites.run_suites(seed, args.trials, args.only)
    for rep in reports:
        for c in rep["checks"]:
            checks.append({"name": f"{rep['name']}: {c['name']}",
                           "status": c["status"], "detail": c["detail"]})
    return {"suites": [{"name": r["name"], "trials": r["trials"],
                        "failures": r["failures"]} for r in reports]}


def _env_seed() -> int:
    text = os.environ.get(SEED_ENV, "0") or "0"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {text!r}") from None


def run(argv) -> tuple[int, dict]:
    """Execute one CLI invocation; returns (exit_code, report).  An error goes to
    ``report["error"]``: exit 2 for bad input, 1 for an ``ExponentCapError``."""
    started = time.monotonic()
    report = {"schema": 1, "command": " ".join(argv)}
    try:
        args = build_parser().parse_args(_attach_negative_lists(argv))
    except SystemExit as exc:
        if not exc.code:
            return 0, report
        report["error"] = "usage"
        return 2, report
    checks: list = []
    try:
        seed = args.seed if "seed" in args else _env_seed()
        report["seed"] = seed
        results = args.handler(args, seed, checks)
        report["inputs"] = {key: getattr(args, key) for key in args.inputs}
    except (ValueError, ExponentCapError) as exc:
        report["error"] = str(exc)
        report["elapsed"] = time.monotonic() - started
        return 1 if isinstance(exc, ExponentCapError) else 2, report
    report["results"] = results
    report["checks"] = checks
    report["elapsed"] = time.monotonic() - started
    json_path = getattr(args, "json", None)
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            report["error"] = f"cannot write --json file: {exc}"
            return 2, report
    code = 1 if any(c["status"] == "fail" for c in checks) else 0
    return code, report


def main(argv=None) -> int:
    code, report = run(sys.argv[1:] if argv is None else argv)
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    for item in report.get("checks", []):
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[item["status"]]
        detail = f" -- {item['detail']}" if item.get("detail") else ""
        print(f"{mark} {item['name']}{detail}")
    results = report.get("results")
    if results is not None:
        print(json.dumps(results, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
