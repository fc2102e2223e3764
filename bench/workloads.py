"""The three workloads: seeded job lists, how a job calls sgclass, and how its
output is checked against ``oracles``.

Every workload is a fixed list of slots.  A round holds one job per slot, in
a seeded order, and the seed draws each slot's input from the slot's pool.
Where a choice changes a job's cost a lot (a sweep's bound, a trial count,
an ``ex217`` prime, the size of an ``sgp info``), every value comes out equally often over
the rounds of a pass and only the order is seeded; elsewhere the seed draws
freely.  So runs on different seeds do the same mix of work and their medians
and 90th percentiles stay comparable.  ``cli-mix`` has one slot per CLI
command, so every command has the same weight.
"""

from __future__ import annotations

import random
import re
from math import gcd

import oracles

# --- ideal-sweep -------------------------------------------------------------
# (generators, smallest bound, largest bound), cheapest slot first.  Embedding
# dimension 2-4, multiplicity 3-9, bounds 8-16; the cost of a sweep grows with
# the number of antichains below the bound, so the bounds are balanced.

SWEEP_SLOTS = (
    ((3, 5), 12, 16),
    ((4, 5, 6), 12, 16),
    ((3, 7), 10, 14),
    ((4, 5), 10, 13),
    ((4, 6, 9), 10, 13),
    ((5, 6, 7, 8), 12, 15),
    ((5, 6, 9), 9, 12),
    ((5, 7, 9, 11), 10, 13),
    ((4, 7), 10, 13),
    ((5, 7), 9, 12),
    ((6, 7, 9, 10), 9, 12),
    ((6, 7, 8), 9, 12),
    ((7, 9, 11), 8, 9),
    ((7, 8, 9, 10), 8, 10),
    ((6, 8, 9, 11), 10, 12),
)

# --- class-group -------------------------------------------------------------
# Every fundamental discriminant -4000 < D < 0 with the given class number h,
# as the class-number formula in ``oracles`` gives it.  A slot is one h, so a
# job's cost (h^2 compositions today) is fixed by its slot.

CLASS_GROUP_POOL = {
    1: (-3, -4, -7, -8, -11, -19, -43, -67, -163),
    2: (-15, -20, -24, -35, -40, -51, -52, -88, -91, -115, -123, -148, -187,
         -232, -235, -267, -403, -427),
    3: (-23, -31, -59, -83, -107, -139, -211, -283, -307, -331, -379, -499,
         -547, -643, -883, -907),
    4: (-39, -55, -56, -68, -84, -120, -132, -136, -155, -168, -184, -195,
         -203, -219, -228, -259, -280, -291, -292, -312, -323, -328, -340,
         -355, -372, -388, -408, -435, -483, -520, -532, -555, -568, -595,
         -627, -667, -708, -715, -723, -760, -763, -772, -795, -955, -1003,
         -1012, -1027, -1227, -1243, -1387, -1411, -1435, -1507, -1555),
    5: (-47, -79, -103, -127, -131, -179, -227, -347, -443, -523, -571, -619,
         -683, -691, -739, -787, -947, -1051, -1123, -1723, -1747, -1867,
         -2203, -2347, -2683),
    6: (-87, -104, -116, -152, -212, -244, -247, -339, -411, -424, -436, -451,
         -472, -515, -628, -707, -771, -808, -835, -843, -856, -1048, -1059,
         -1099, -1108, -1147, -1192, -1203, -1219, -1267, -1315, -1347, -1363,
         -1432, -1563, -1588, -1603, -1843, -1915, -1963, -2227, -2283, -2443,
         -2515, -2563, -2787, -2923, -3235, -3427, -3523, -3763),
    7: (-71, -151, -223, -251, -463, -467, -487, -587, -811, -827, -859,
         -1163, -1171, -1483, -1523, -1627, -1787, -1987, -2011, -2083, -2179,
         -2251, -2467, -2707, -3019, -3067, -3187, -3907),
    8: (-95, -111, -164, -183, -248, -260, -264, -276, -295, -299, -308, -371,
         -376, -395, -420, -452, -456, -548, -552, -564, -579, -580, -583,
         -616, -632, -651, -660, -712, -820, -840, -852, -868, -904, -915,
         -939, -952, -979, -987, -995, -1032, -1043, -1060, -1092, -1128,
         -1131, -1155, -1195, -1204, -1240, -1252, -1288, -1299, -1320, -1339,
         -1348, -1380, -1428, -1443, -1528, -1540, -1635, -1651, -1659, -1672,
         -1731, -1752, -1768, -1771, -1780, -1795, -1803, -1828, -1848, -1864,
         -1912, -1939, -1947, -1992, -1995, -2020, -2035, -2059, -2067, -2139,
         -2163, -2212, -2248, -2307, -2308, -2323, -2392, -2395, -2419, -2451,
         -2587, -2611, -2632, -2667, -2715, -2755, -2788, -2827, -2947, -2968,
         -2995, -3003, -3172, -3243, -3315, -3355, -3403, -3448, -3507, -3595,
         -3787, -3883, -3963),
    10: (-119, -143, -159, -296, -303, -319, -344, -415, -488, -611, -635,
         -664, -699, -724, -779, -788, -803, -851, -872, -916, -923, -1115,
         -1268, -1384, -1492, -1576, -1643, -1684, -1688, -1707, -1779, -1819,
         -1835, -1891, -1923, -2152, -2164, -2363, -2452, -2643, -2776, -2836,
         -2899, -3028, -3091, -3139, -3147, -3291, -3412, -3508, -3635, -3667,
         -3683, -3811, -3859, -3928),
    12: (-231, -255, -327, -356, -440, -516, -543, -655, -680, -687, -696,
         -728, -731, -744, -755, -804, -888, -932, -948, -964, -984, -996,
         -1011, -1067, -1096, -1144, -1208, -1235, -1236, -1255, -1272, -1336,
         -1355, -1371, -1419, -1464, -1480, -1491, -1515, -1547, -1572, -1668,
         -1720, -1732, -1763, -1807, -1812, -1892, -1955, -1972, -2068, -2091,
         -2104, -2132, -2148, -2155, -2235, -2260, -2355, -2387, -2388, -2424,
         -2440, -2468, -2472, -2488, -2491, -2555, -2595, -2627, -2635, -2676,
         -2680, -2692, -2723, -2728, -2740, -2795, -2867, -2872, -2920, -2955,
         -3012, -3027, -3043, -3048, -3115, -3208, -3252, -3256, -3268, -3304,
         -3387, -3451, -3459, -3592, -3619, -3652, -3723, -3747, -3768, -3796,
         -3835, -3880, -3892, -3955, -3972),
    14: (-215, -287, -391, -404, -447, -511, -535, -536, -596, -692, -703,
         -807, -899, -1112, -1211, -1396, -1403, -1527, -1816, -1851, -1883,
         -2008, -2123, -2147, -2171, -2335, -2427, -2507, -2536, -2571, -2612,
         -2779, -2931, -2932, -3112, -3227, -3352, -3579, -3707, -3715, -3867,
         -3988),
    16: (-399, -407, -471, -559, -584, -644, -663, -740, -799, -884, -895,
         -903, -943, -1015, -1016, -1023, -1028, -1047, -1139, -1140, -1159,
         -1220, -1379, -1412, -1416, -1508, -1560, -1595, -1608, -1624, -1636,
         -1640, -1716, -1860, -1876, -1924, -1983, -2004, -2019, -2040, -2056,
         -2072, -2095, -2195, -2211, -2244, -2280, -2292, -2296, -2328, -2356,
         -2379, -2436, -2568, -2580, -2584, -2739, -2760, -2811, -2868, -2884,
         -2980, -3063, -3108, -3140, -3144, -3160, -3171, -3192, -3220, -3336,
         -3363, -3379, -3432, -3435, -3443, -3460, -3480, -3531, -3556, -3588,
         -3603, -3640, -3732, -3752, -3784, -3795, -3819, -3828, -3832, -3939,
         -3976),
    20: (-455, -615, -776, -824, -836, -920, -1064, -1124, -1160, -1263, -1284,
         -1460, -1495, -1524, -1544, -1592, -1604, -1652, -1695, -1739, -1748,
         -1796, -1880, -1887, -1896, -1928, -1940, -1956, -2136, -2247, -2360,
         -2404, -2407, -2483, -2487, -2532, -2552, -2596, -2603, -2712, -2724,
         -2743, -2948, -2983, -2987, -3007, -3016, -3076, -3099, -3103, -3124,
         -3131, -3155, -3219, -3288, -3320, -3367, -3395, -3496, -3512, -3515,
         -3567, -3655, -3668, -3684, -3748, -3755, -3908, -3979),
    24: (-695, -759, -1191, -1316, -1351, -1407, -1615, -1704, -1736, -1743,
         -1988, -2168, -2184, -2219, -2372, -2408, -2479, -2660, -2696, -2820,
         -2824, -2852, -2856, -2915, -2964, -3059, -3064, -3127, -3128, -3444,
         -3540, -3560, -3604, -3620, -3720, -3864, -3876, -3891, -3899, -3912,
         -3940),
    28: (-831, -935, -1095, -1311, -1335, -1364, -1455, -1479, -1496, -1623,
         -1703, -1711, -1855, -1976, -2024, -2055, -2120, -2127, -2324, -2359,
         -2431, -2455, -2564, -2607, -2616, -2703, -3224, -3272, -3396, -3419,
         -3487, -3535, -3572, -3576, -3608, -3624, -3731, -3848, -3995),
}

# --- cli-mix -------------------------------------------------------------------
# One job per CLI command per round.  There is no usage data to weight the
# commands by, so they weigh the same.  Over a pass, the ideal operation, the
# trial count and suite seed, the ex217 prime and the size of a two-generator
# ``sgp info`` come out equally often, in seeded order; the other inputs are
# drawn freely.  Suite-backed commands run 1-3 trials, a quick check.

IDEAL_SGPS = ((2, 3), (3, 5), (3, 7), (4, 5), (3, 4, 5), (4, 6, 9), (5, 7),
              (5, 7, 9, 11))
IDEAL_OPS = ("sum", "colon", "inverse", "v", "class")
TRIALS = (1, 2, 3)
SUITE_RUNS = 15  # (trials, suite seed) pairs per suite-backed command
EX217_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107)
# a*b for ``sgp info`` on two generators a, b in [100, 250]; the Frobenius
# number and the gap count, and so the job's time and memory, grow with it
INFO_BANDS = ((10_000, 30_000), (30_000, 50_000), (50_000, 62_500))
CLI_SLOTS = ("info", "ideal", "lemma23", "northcott", "decomposition", "ex217",
             "ex111", "quadric")


def _draw_gens(rng: random.Random, count: int, band=None) -> list[int]:
    """``count`` generators in [100, 250] with a coprime pair among them and,
    for two, a product inside ``band``."""
    while True:
        gens = sorted(rng.sample(range(100, 251), count))
        if band and not band[0] <= gens[0] * gens[1] < band[1]:
            continue
        if any(gcd(a, b) == 1 for i, a in enumerate(gens)
               for b in gens[i + 1:]):
            return gens


def _cli_jobs(rng: random.Random, slot: str, count: int) -> list[dict]:
    if slot == "ideal":
        jobs = []
        for op in _balanced(rng, IDEAL_OPS, count):
            sgp = list(rng.choice(IDEAL_SGPS))
            gens = sorted(rng.sample(range(10), rng.randint(1, 3)))
            job = {"kind": "ideal", "sgp": sgp, "gens": gens, "op": op,
                   "argv": ["sgp", "ideal", "--sgp", _text(sgp),
                            "--gens", _text(gens), "--op", op]}
            if op in ("sum", "colon"):
                job["gens2"] = sorted(rng.sample(range(7), rng.randint(1, 2)))
                job["argv"] += ["--gens2", _text(job["gens2"])]
            jobs.append(job)
        return jobs
    if slot == "info":
        sizes = _balanced(rng, (2, 3), count)
        bands = iter(_balanced(rng, INFO_BANDS, sizes.count(2)))
        gens = [_draw_gens(rng, 2, next(bands)) if n == 2 else _draw_gens(rng, 3)
                for n in sizes]
        return [{"kind": "info", "gens": g, "argv": ["sgp", "info", "--sgp", _text(g)]}
                for g in gens]
    if slot == "ex111":
        return [{"kind": "ex111", "argv": ["demo", "ex111"]} for _ in range(count)]
    if slot == "ex217":
        return [{"kind": "ex217", "disc": -p,
                 "argv": ["demo", "ex217", "--domain", f"O[sqrt(-{p})]"]}
                for p in _balanced(rng, EX217_PRIMES, count)]
    argv = ["suite", "--only", "quadric"] if slot == "quadric" else ["demo", slot]
    # The suite's own seed draws its trial inputs, whose cost varies tenfold:
    # trial counts and suite seeds come from one fixed list of pairs.
    runs = [(TRIALS[k % len(TRIALS)], k + 1) for k in range(SUITE_RUNS)]
    return [{"kind": "suite", "suite": slot, "trials": trials,
             "argv": [*argv, "--trials", str(trials), "--seed", str(suite_seed)]}
            for trials, suite_seed in _balanced(rng, runs, count)]


def _text(values) -> str:
    return ",".join(str(v) for v in values)


def _balanced(rng: random.Random, values, count: int) -> list:
    """``count`` of ``values`` in seeded order, each as often as the others, to
    within one, and the same multiset on every seed."""
    drawn = [values[k % len(values)] for k in range(count)]
    rng.shuffle(drawn)
    return drawn


# --- job lists ---------------------------------------------------------------

WORKLOADS = ("ideal-sweep", "class-group", "cli-mix")

# Rounds in one pass: at least 100 jobs, so that at least ten lie beyond the
# 90th percentile, and about five seconds of work on a 2-vCPU VM today.
ROUNDS = {"ideal-sweep": 7, "class-group": 7, "cli-mix": 15}


def make_rounds(workload: str, seed: int, count: int) -> list[list[dict]]:
    """``count`` rounds of jobs, a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ideal-sweep":
        columns = [[{"kind": "sweep", "sgp": list(gens), "bound": bound}
                    for bound in _balanced(rng, range(low, high + 1), count)]
                   for gens, low, high in SWEEP_SLOTS]
    elif workload == "class-group":
        columns = [[{"kind": "class_group", "disc": rng.choice(pool)}
                    for _ in range(count)]
                   for pool in CLASS_GROUP_POOL.values()]
    else:
        columns = [_cli_jobs(rng, slot, count) for slot in CLI_SLOTS]
    rounds = [list(jobs) for jobs in zip(*columns)]
    for jobs in rounds:
        rng.shuffle(jobs)
    return rounds


# --- running a job -----------------------------------------------------------

class Runner:
    """Calls sgclass for one job.  The sweep's semigroups are inputs, built once."""

    def __init__(self, workload: str, sgclass_modules):
        self.sg = sgclass_modules
        self.semigroups = {}
        if workload == "ideal-sweep":
            for gens, _, _ in SWEEP_SLOTS:
                self.semigroups[gens] = self.sg.semigroups.from_generators(gens)

    def run(self, job: dict):
        kind = job["kind"]
        if kind == "sweep":
            calls = []
            found = self.sg.ideals.search_nonprincipal_t_invertible(
                self.semigroups[tuple(job["sgp"])], job["bound"],
                progress=lambda examined, gens: calls.append((examined, gens)))
            return found, calls[-1] if calls else None
        if kind == "class_group":
            domains = self.sg.domains
            group = domains.class_group(domains.domain_for_discriminant(job["disc"]))
            return group, group.structure()
        return self.sg.cli.run(job["argv"])


# --- checking a job's output ------------------------------------------------

def check(job: dict, output) -> str | None:
    """None when the output is right, else what is wrong with it."""
    kind = job["kind"]
    if kind == "sweep":
        return _check_sweep(job, *output)
    if kind == "class_group":
        return _check_class_group(job["disc"], *output)
    code, report = output
    failing = [c["name"] for c in report.get("checks", []) if c["status"] == "fail"]
    if code != 0 or failing or "error" in report:
        return f"exit {code}, failing checks {failing}, error {report.get('error')}"
    results = report["results"]
    return {"ideal": _check_ideal, "info": _check_info, "ex111": _check_ex111,
            "ex217": _check_ex217, "suite": _check_suite}[kind](job, results)


def _check_sweep(job, found, last_call) -> str | None:
    if found is not None:
        return f"found a non-principal t-invertible ideal {found}"
    if last_call is None or last_call[1] is not None:
        return f"no final progress call, last call {last_call}"
    expected = oracles.antichain_count(tuple(job["sgp"]), job["bound"])
    if last_call[0] != expected:
        return f"examined {last_call[0]} ideals, there are {expected} antichains"
    return None


def _check_class_group(disc, group, structure) -> str | None:
    forms = [(f.a, f.b, f.c) for f in group.forms]
    k = disc % 2
    identity = (1, k, (k * k - disc) // 4)
    if identity not in forms:
        return f"identity form {identity} missing"
    index = forms.index(identity)
    problems = oracles.group_table_problems(forms, group.table, index, disc)
    if not problems and structure != oracles.expected_structure(group.table, index):
        problems.append(f"structure {structure!r} does not match the table")
    return "; ".join(problems) or None


def _check_ideal(job, results) -> str | None:
    sgp = oracles.semigroup(tuple(job["sgp"]))
    gens, op = job["gens"], job["op"]
    expected_input = oracles.generated(sgp, gens).generators()
    if op == "class":
        rep = oracles.ideal_v(sgp, gens).generators()
        rep = [g - rep[0] for g in rep]
        got = results["representative"]["generators"]
        flags = (results["invertible"], results["trivial"])
        want_flags = (len(rep) == 1, rep == [0])
    else:
        if op == "sum":
            ideal = oracles.ideal_sum(sgp, gens, job["gens2"])
        elif op == "colon":
            ideal = oracles.ideal_colon(sgp, oracles.generated(sgp, gens), job["gens2"])
        elif op == "inverse":
            ideal = oracles.ideal_inverse(sgp, gens)
        else:
            ideal = oracles.ideal_v(sgp, gens)
        rep = ideal.generators()
        got = results["result"]["generators"]
        divisorial = oracles.ideal_v(sgp, rep).generators() == rep
        # numerical semigroups are t-local: t-invertible means principal
        flags = (results["result"]["divisorial"], results["result"]["invertible"])
        want_flags = (divisorial, len(rep) == 1)
    if results["input"]["generators"] != expected_input:
        return f"input generators {results['input']['generators']} != {expected_input}"
    if got != rep or flags != want_flags:
        return f"{op}: generators {got} flags {flags}, expected {rep} {want_flags}"
    return None


def _check_info(job, results) -> str | None:
    sgp = oracles.Semigroup(job["gens"])  # not cached: it holds every gap
    want = {"gaps": sgp.gaps, "frobenius": sgp.frobenius,
            "conductor": sgp.conductor, "multiplicity": sgp.multiplicity,
            "generators": sgp.minimal_generators, "scale": 1,
            "apery": sgp.apery(sgp.multiplicity)}
    wrong = [key for key, value in want.items() if results.get(key) != value]
    if len(job["gens"]) == 2:
        a, b = job["gens"]
        # Sylvester: F = ab - a - b with (a-1)(b-1)/2 gaps
        if (results["frobenius"], len(results["gaps"])) != \
                (a * b - a - b, (a - 1) * (b - 1) // 2):
            wrong.append("sylvester")
    return f"wrong {wrong}" if wrong else None


def _check_ex111(job, results) -> str | None:
    if results["identity_value"] != "1":
        return f"unit identity reduces to {results['identity_value']}"
    return None


_ORDER = re.compile(r"^(?:trivial|Z/(\d+)Z|abelian of order (\d+) with exponent \d+)$")


def _check_ex217(job, results) -> str | None:
    if not all(c["holds"] for c in results["conditions"]):
        return "a transfer condition fails over a maximal order and the power cone"
    prefix = "class group of the monoid ring equals the coefficient class group: "
    conclusion = results["conclusion"]
    match = _ORDER.match(conclusion[len(prefix):]) \
        if conclusion.startswith(prefix) else None
    if match is None:
        return f"unexpected conclusion {conclusion!r}"
    order = int(match.group(1) or match.group(2) or 1)
    expected = oracles.class_number(job["disc"])
    if order != expected:
        return f"class group order {order}, formula {expected}"
    return None


def _check_suite(job, results) -> str | None:
    reports = results["suites"] if "suites" in results else [results]
    name = job["suite"]
    want = [(name, job["trials"], 0)]
    got = [(r.get("name", r.get("suite")), r["trials"], r["failures"]) for r in reports]
    return None if got == want else f"suite reports {got}, expected {want}"
