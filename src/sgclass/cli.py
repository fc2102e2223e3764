"""Command line front end: monoid info, ideal arithmetic, worked-example
demos, and the property suites, all with seeded deterministic JSON reports."""

from __future__ import annotations

import argparse
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
from .errors import ParseError
from .semigroups import parse_int_list, parse_monoid

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


def build_parser() -> argparse.ArgumentParser:
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
    ideal = sgp_sub.add_parser("ideal", parents=[common],
                               help="fractional ideal arithmetic")
    ideal.add_argument("--sgp", required=True)
    ideal.add_argument("--gens", required=True,
                       help="ideal generators in normalized coordinates, e.g. 2,3")
    ideal.add_argument("--gens2", help="second operand for sum/colon")
    ideal.add_argument("--op", default="info",
                       choices=("info", "sum", "colon", "inverse", "v", "t",
                                "class"))
    search = sgp_sub.add_parser("search", parents=[common],
                                help="sweep for a non-principal t-invertible ideal")
    search.add_argument("--sgp", required=True)
    search.add_argument("--bound", type=_int_at_least(0), default=12)

    demo = sub.add_parser("demo", parents=[common],
                          help="worked examples as named scenarios")
    demo.add_argument("name", choices=DEMOS)
    demo.add_argument("--sgp", help="monoid override where meaningful")
    demo.add_argument("--domain", help="coefficient domain override")
    demo.add_argument("--bound", type=_int_at_least(0), default=None)
    demo.add_argument("--trials", type=_int_at_least(1), default=None)

    suite = sub.add_parser("suite", parents=[common],
                           help="randomized property suites")
    suite.add_argument("--trials", type=_int_at_least(1), default=None)
    suite.add_argument("--only", choices=sorted(suites.SUITES),
                       help="run a single suite")
    return parser


def _numerical(text: str):
    descriptor = parse_monoid(text)
    return descriptor.require_ideal_arithmetic()


# --- sgp ---------------------------------------------------------------------

def _cmd_sgp_info(args, checks):
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
        checks.append({"name": "Apery set covers every residue class minimally",
                       "status": "pass" if ok else "fail",
                       "detail": f"multiplicity {sgp.multiplicity}"})
    else:
        checks.append({"name": "ideal arithmetic unsupported on this monoid",
                       "status": "skipped",
                       "detail": "membership and integral closedness only"})
    return results


def _cmd_sgp_ideal(args, checks):
    sgp = _numerical(args.sgp)
    y = mid.ideal_from_generators(sgp, parse_int_list(args.gens))
    op = args.op
    if op in ("sum", "colon") and not args.gens2:
        raise ParseError(f"--op {op} needs --gens2")
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
        reduced = mid.class_reduce(y)
        result = reduced.representative
        checks.append({"name": "class representative is divisorial",
                       "status": "pass" if mid.is_divisorial(result) else "fail",
                       "detail": result.text()})
        results = {"monoid": sgp.text(), "input": y.to_json(), "op": op,
                   "representative": result.to_json(),
                   "invertible": reduced.invertible,
                   "trivial": mid.class_is_trivial(reduced)}
        return results
    results = {"monoid": sgp.text(), "input": y.to_json(), "op": op,
               "result": result.to_json(), "result_text": result.text()}
    if op in ("v", "inverse"):
        checks.append({"name": "result is divisorial",
                       "status": "pass" if mid.is_divisorial(result) else "fail",
                       "detail": result.text()})
    if op == "v":
        checks.append({"name": "input unchanged means divisorial",
                       "status": "pass" if (result == y) == mid.is_divisorial(y)
                       else "fail",
                       "detail": f"changed: {result != y}"})
    if op == "t":
        checks.append({"name": "t-closure equals v-closure here",
                       "status": "pass" if result == mid.v_closure(y) else "fail",
                       "detail": "finitely generated input"})
    if op in ("sum", "colon", "info"):
        g = result.min_generators[0]
        checks.append({"name": "first minimal generator is a member",
                       "status": "pass" if result.contains(g) else "fail",
                       "detail": str(g)})
    return results


def _cmd_sgp_search(args, checks):
    sgp = _numerical(args.sgp)
    first = mid.search_nonprincipal_t_invertible(sgp, args.bound)
    second = mid.search_nonprincipal_t_invertible(sgp, args.bound)
    agree = (first is None and second is None) or \
        (first is not None and second is not None and first == second)
    checks.append({"name": "search re-run matches",
                   "status": "pass" if agree else "fail",
                   "detail": "deterministic"})
    found = first.to_json() if first is not None else None
    checks.append({"name": "no non-principal t-invertible ideal found",
                   "status": "pass" if first is None else "fail",
                   "detail": f"bound {args.bound}"})
    return {"monoid": sgp.text(), "bound": args.bound, "found": found}


# --- demos -------------------------------------------------------------------

def _demo_ex111(args, seed, checks):
    report = qdr.verify_unit_identity()
    checks.extend(report["checks"])
    return {"identity_value": report["identity_value"],
            "generators": {k: v.text()
                           for k, v in qdr.standard_generators().items()}}


def _demo_ex112(args, seed, checks):
    forms = dom.reduced_forms(-20)
    checks.append({"name": "exactly two reduced forms at discriminant -20",
                   "status": "pass" if len(forms) == 2 else "fail",
                   "detail": ", ".join(f.text() for f in forms)})
    nontrivial = [f for f in forms if f != dom.identity_form(-20)]
    square_ok = len(nontrivial) == 1 and \
        dom.compose(nontrivial[0], nontrivial[0]) == dom.identity_form(-20)
    checks.append({"name": "nontrivial class squares to the identity",
                   "status": "pass" if square_ok else "fail",
                   "detail": nontrivial[0].text() if nontrivial else "missing"})
    group = dom.class_group(dom.domain_for_discriminant(-20))
    checks.append({"name": "group structure",
                   "status": "pass" if group.structure() == "Z/2Z" else "fail",
                   "detail": group.structure()})
    return {"discriminant": -20, "forms": [f.text() for f in forms],
            "structure": group.structure()}


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
    domain = dom.parse_domain(args.domain or "Z[sqrt(-5)]")
    descriptor = parse_monoid(args.sgp or "p^inf:2")
    bound = args.bound if args.bound is not None else 12
    report = grd.transfer_criterion_report(domain, descriptor, bound)
    for cond in report["conditions"]:
        checks.append({"name": cond["name"],
                       "status": "pass" if cond["holds"] else "fail",
                       "detail": cond["detail"]})
    if all(cond["holds"] for cond in report["conditions"]):
        expected = dom.describe_class_group(domain)
        checks.append({"name": "conclusion names the coefficient class group",
                       "status": "pass" if expected in report["conclusion"]
                       else "fail",
                       "detail": report["conclusion"]})
    return report


def _demo_ex218(args, seed, checks):
    bound = args.bound if args.bound is not None else 20
    sgp = _numerical(args.sgp or "2,3")
    gap_ideal = mid.ideal_from_generators(sgp, list(sgp.generators))
    total = principal = shifted = other = 0
    nondivisorial = []
    for gens in mid.canonical_generator_sets(sgp, bound):
        y = mid.ideal_from_generators(sgp, list(gens))
        total += 1
        if not mid.is_divisorial(y):
            nondivisorial.append(y.text())
        if y.is_principal_shift:
            principal += 1
        elif y == gap_ideal.shift(y.min - gap_ideal.min):
            shifted += 1
        else:
            other += 1
    checks.append({"name": "every enumerated ideal is divisorial",
                   "status": "pass" if not nondivisorial else "fail",
                   "detail": f"{total} ideals" if not nondivisorial
                   else f"counterexamples: {nondivisorial[:3]}"})
    checks.append({"name": "non-principal ideals are shifts of the gap-filling ideal",
                   "status": "pass" if other == 0 else "fail",
                   "detail": f"{principal} principal, {shifted} shifted"})
    witness = mid.search_nonprincipal_t_invertible(sgp, bound)
    checks.append({"name": "no non-principal t-invertible ideal",
                   "status": "pass" if witness is None else "fail",
                   "detail": f"bound {bound}"})
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
    "ex217": (_demo_ex217, ("sgp", "domain", "bound")),
    "ex218": (_demo_ex218, ("sgp", "bound")),
    **{name: (_suite_demo(name), ("trials",))
       for name in ("lemma23", "northcott", "decomposition")},
}


def _cmd_suite(args, seed, checks):
    reports = suites.run_suites(seed, args.trials, args.only)
    for rep in reports:
        for c in rep["checks"]:
            checks.append({"name": f"{rep['name']}: {c['name']}",
                           "status": c["status"], "detail": c["detail"]})
    return {"suites": [{"name": r["name"], "trials": r["trials"],
                        "failures": r["failures"]} for r in reports]}


def run(argv) -> tuple[int, dict]:
    """Execute one CLI invocation; returns (exit_code, report)."""
    started = time.monotonic()
    report = {"schema": 1, "command": " ".join(argv)}
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_lists(argv))
    except SystemExit as exc:
        if not exc.code:
            return 0, report
        report["error"] = "usage"
        return 2, report
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, "0") or "0")
    report["seed"] = seed
    checks: list = []
    try:
        if args.command == "sgp":
            handler = {"info": _cmd_sgp_info, "ideal": _cmd_sgp_ideal,
                       "search": _cmd_sgp_search}[args.subcommand]
            results = handler(args, checks)
            report["inputs"] = {"sgp": args.sgp}
        elif args.command == "demo":
            handler, reads = DEMOS[args.name]
            ignored = [f"--{key}" for key in DEMO_OVERRIDES
                       if getattr(args, key) is not None and key not in reads]
            if ignored:
                raise ValueError(f"demo {args.name} does not take {', '.join(ignored)}")
            results = handler(args, seed, checks)
            report["inputs"] = {"name": args.name, "sgp": args.sgp,
                                "domain": args.domain, "bound": args.bound,
                                "trials": args.trials}
        else:
            results = _cmd_suite(args, seed, checks)
            report["inputs"] = {"trials": args.trials, "only": args.only}
    except ValueError as exc:
        report["error"] = str(exc)
        report["elapsed"] = time.monotonic() - started
        return 2, report
    report["results"] = results
    report["checks"] = checks
    report["elapsed"] = time.monotonic() - started
    json_path = getattr(args, "json", None)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    code = 1 if any(c["status"] == "fail" for c in checks) else 0
    return code, report


def main(argv=None) -> int:
    code, report = run(sys.argv[1:] if argv is None else argv)
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    for check in report.get("checks", []):
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[check["status"]]
        detail = f" -- {check['detail']}" if check.get("detail") else ""
        print(f"{mark} {check['name']}{detail}")
    results = report.get("results")
    if results is not None:
        print(json.dumps(results, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
