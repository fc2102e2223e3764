"""Randomized property suites with brute-force oracles.

Each suite returns a plain report dict {name, trials, checks, failures} so the
CLI and the test suite can share one implementation.  Oracles deliberately
avoid the windowed-bitmask kernel: monoid-ideal membership is recomputed from
generator lists and raw semigroup membership, quantifiers are truncated at
exact bounds, and coefficient-ideal claims are probed through element
sampling.
"""

from __future__ import annotations

import functools
import random
import zlib
from fractions import Fraction

from . import domains as dom
from . import graded as grd
from . import ideals as mid
from . import quadric as qdr
from .semigroups import NumericalSemigroup, from_generators


def check(checks: list, name: str, ok: bool, detail: str = ""):
    checks.append({"name": name, "status": "pass" if ok else "fail",
                   "detail": detail})


def _rng(seed: int, trials: int) -> random.Random:
    """The random source of one suite run; a run of no trials would pass vacuously."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return random.Random(seed)


def _report(name: str, trials: int, checks: list) -> dict:
    failures = sum(1 for c in checks if c["status"] == "fail")
    return {"name": name, "trials": trials, "checks": checks,
            "failures": failures}


_SGP_POOL = ((2, 3), (3, 5), (3, 4, 5), (4, 6, 9), (5, 7), (2, 5), (1,), (6, 10, 15))


def _random_semigroup(rng: random.Random) -> NumericalSemigroup:
    return from_generators(rng.choice(_SGP_POOL))


def _random_ideal(rng: random.Random, sgp: NumericalSemigroup,
                  span: int = 12) -> mid.FractionalIdeal:
    gens = [rng.randint(-span // 2, span) for _ in range(rng.randint(1, 3))]
    return mid.ideal_from_generators(sgp, gens)


# --- oracle membership, straight from the definitions ------------------------

def oracle_member(sgp: NumericalSemigroup, gens, g: int) -> bool:
    return any(sgp.contains(g - e) for e in gens)


def oracle_sum_member(sgp, ygens, zgens, g: int) -> bool:
    return any(oracle_member(sgp, ygens, g - z) for z in zgens)


def oracle_colon_member(sgp, ygens, zgens, g: int) -> bool:
    return all(oracle_member(sgp, ygens, g + z) for z in zgens)


def oracle_inverse_member(sgp, ygens, g: int) -> bool:
    return oracle_colon_member(sgp, [0], ygens, g)


def oracle_v_member(sgp, ygens, g: int) -> bool:
    # g is in the double colon iff g + h is a member for every h in the
    # inverse; h below -min(gens) is never in the inverse, and h past
    # conductor - g cannot fail the defining condition.
    lo = -max(ygens)
    hi = max(sgp.conductor - g, lo)
    for h in range(lo, hi + 1):
        if oracle_inverse_member(sgp, ygens, h) and not sgp.contains(g + h):
            return False
    return True


def _window(ideal: mid.FractionalIdeal) -> range:
    c = ideal.monoid.conductor
    return range(ideal.min - 2 * c - 2, ideal.stable_bound + 2 * c + 3)


def suite_semigroup_oracle(seed: int = 0, trials: int = 500) -> dict:
    rng = _rng(seed, trials)
    checks: list = []
    bad = 0
    for t in range(trials):
        sgp = _random_semigroup(rng)
        ygens = sorted({rng.randint(-6, 12) for _ in range(rng.randint(1, 3))})
        zgens = sorted({rng.randint(-6, 12) for _ in range(rng.randint(1, 2))})
        y = mid.ideal_from_generators(sgp, ygens)
        z = mid.ideal_from_generators(sgp, zgens)
        op = rng.choice(("sum", "colon", "inverse", "v"))
        if op == "sum":
            result = mid.minkowski_sum(y, z)
            oracle = lambda g: oracle_sum_member(sgp, ygens, zgens, g)
        elif op == "colon":
            result = mid.colon(y, z)
            oracle = lambda g: oracle_colon_member(sgp, ygens, zgens, g)
        elif op == "inverse":
            result = mid.inverse(y)
            oracle = lambda g: oracle_inverse_member(sgp, ygens, g)
        else:
            result = mid.v_closure(y)
            oracle = lambda g: oracle_v_member(sgp, ygens, g)
        mismatch = [g for g in _window(result) if result.contains(g) != oracle(g)]
        if mismatch:
            bad += 1
            check(checks, f"trial {t} {op} over {sgp.text()}", False,
                  f"gens {ygens}/{zgens}, first mismatch at {mismatch[0]}")
            continue
        # closure-operator laws on every trial
        v = mid.v_closure(y)
        extensive = all(v.contains(g) for g in _window(y) if y.contains(g))
        idempotent = mid.v_closure(v) == v
        bigger = mid.ideal_from_generators(sgp, ygens + [min(ygens) - 1])
        vb = mid.v_closure(bigger)
        monotone = all(vb.contains(g) for g in _window(v) if v.contains(g))
        if not (extensive and idempotent and monotone):
            bad += 1
            check(checks, f"trial {t} closure laws over {sgp.text()}", False,
                  f"gens {ygens}: ext={extensive} idem={idempotent} mono={monotone}")
    check(checks, "oracle agreement and closure laws", bad == 0,
          f"{trials - bad}/{trials} trials clean")
    return _report("oracle", trials, checks)


def suite_closure_identities(seed: int = 0, trials: int = 200) -> dict:
    rng = _rng(seed, trials)
    checks: list = []
    bad = 0
    for t in range(trials):
        sgp = _random_semigroup(rng)
        y = _random_ideal(rng, sgp)
        z = _random_ideal(rng, sgp)
        n = rng.randint(-5, 5)
        ok = (mid.v_closure(y.shift(n)) == mid.v_closure(y).shift(n)
              and mid.is_divisorial(mid.inverse(y))
              and mid.t_closure(y) == mid.v_closure(y)
              and mid.t_closure(y, definitional=True) == mid.t_closure(y))
        # (Y:Z) + Z lands inside Y_v
        q = mid.colon(y, z)
        s = mid.minkowski_sum(q, z)
        vy = mid.v_closure(y)
        ok = ok and all(vy.contains(g) for g in _window(s) if s.contains(g))
        # unit and absorption laws
        unit = mid.unit_ideal(sgp)
        ok = ok and mid.minkowski_sum(y, unit) == y
        ok = ok and mid.colon(y, unit) == y
        if not ok:
            bad += 1
            check(checks, f"trial {t} closure identities", False,
                  f"{sgp.text()} gens {y.min_generators}/{z.min_generators}")
    check(checks, "shift equivariance, inverse divisoriality, t=v, colon law",
          bad == 0, f"{trials - bad}/{trials} trials clean")
    return _report("closure", trials, checks)


# --- split-pair identities ----------------------------------------------------

def _coeff_domain_pool():
    return (dom.CoefficientDomain.rationals(),
            dom.CoefficientDomain.integers(),
            dom.CoefficientDomain.z_sqrt(-5))


def _random_coeff_ideal(rng: random.Random, domain) -> dom.CoeffIdeal:
    if domain.kind == "Q":
        return dom.unit_ideal(domain)
    if domain.kind == "Z":
        gens = [Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3)))
                for _ in range(rng.randint(1, 2))]
        return dom.ideal_from_generators(domain, gens)
    gens = []
    while len(gens) < rng.randint(1, 2):
        e = domain.element(rng.randint(-3, 3), rng.randint(-3, 3))
        if e:
            gens.append(e)
    return dom.ideal_from_generators(domain, gens)


def _coeff_candidates(rng: random.Random, domain, *ideals) -> list:
    out = []
    for ideal in ideals:
        basis = ideal.basis_elements()
        for _ in range(3):
            coords = [rng.randint(-3, 3) for _ in basis]
            v = sum((c * b for c, b in zip(coords, basis)),
                    start=domain.coerce(0))
            if v:
                out.append(v)
    for _ in range(4):
        if domain.kind == "quadratic":
            v = domain.element(Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
                               Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
        else:
            v = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        if v:
            out.append(domain.coerce(v))
    return out


# Membership probes per lemma23 trial, at least: the window is padded up to it.
PROBES = 100


def suite_pair_identities(seed: int = 0, trials: int = 200) -> dict:
    rng = _rng(seed, trials)
    checks: list = []
    bad = 0
    total_probes = 0
    least = None
    for t in range(trials):
        domain = rng.choice(_coeff_domain_pool())
        sgp = _random_semigroup(rng)
        j1, j2 = (_random_coeff_ideal(rng, domain) for _ in range(2))
        y1, y2 = (_random_ideal(rng, sgp, span=8) for _ in range(2))
        p1, p2 = grd.IdealPair(j1, y1), grd.IdealPair(j2, y2)
        quotient = grd.pair_colon(p1, p2)
        divisors = [(b, z) for b in j2.basis_elements()
                    for z in y2.min_generators]
        exps = list(_window(quotient.exps))
        coeffs = _coeff_candidates(rng, domain, j1, quotient.coeff)
        while len(exps) * len(coeffs) < PROBES:
            exps.append(exps[-1] + 1)
            exps.insert(0, exps[0] - 1)
        done = 0
        failed = None
        for g in exps:
            for b in coeffs:
                lhs = all(j1.contains(domain.coerce(b) * domain.coerce(bz))
                          and y1.contains(g + z) for bz, z in divisors)
                rhs = quotient.coeff.contains(b) and quotient.exps.contains(g)
                done += 1
                if lhs != rhs:
                    failed = (b, g, lhs, rhs)
                    break
            if failed or done >= PROBES and done >= len(exps):
                break
        total_probes += done
        least = done if least is None else min(least, done)
        # closure consistency on the same pair
        pv = grd.pair_v(p1)
        pt = grd.pair_t(p1)
        consistent = (pv.coeff == dom.v_closure(j1)
                      and pv.exps == mid.v_closure(y1)
                      and pt.exps == mid.t_closure(y1)
                      and grd.pair_v(pv) == pv)
        vcons = all(oracle_v_member(sgp, [g for g in y1.min_generators], g)
                    == pv.exps.contains(g) for g in _window(pv.exps))
        if failed or not consistent or not vcons:
            bad += 1
            detail = f"{domain.text()}, {sgp.text()}"
            if failed:
                detail += f", probe {failed}"
            check(checks, f"trial {t} split-pair identity", False, detail)
    check(checks, "colon membership semantics and closure consistency",
          bad == 0,
          f"{trials - bad}/{trials} trials clean, {total_probes} probes, "
          f"no trial under {least}")
    report = _report("lemma23", trials, checks)
    report["min_probes"] = least or 0
    return report


# --- content suite ------------------------------------------------------------

def _random_poly(rng: random.Random, domain, sgp, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = rng.choice([g for g in range(0, 7) if sgp.contains(g)])
        if domain.kind == "quadratic":
            c = domain.element(rng.randint(-5, 5), rng.randint(-5, 5))
        else:
            c = Fraction(rng.randint(-9, 9))
        if c:
            terms[e] = c
    if not terms:
        return _random_poly(rng, domain, sgp, max_terms)
    return grd.graded_element(domain, sgp, terms.items())


@functools.cache
def northcott_search():
    """Exhaustive sweep for a pair with nonzero content exponent over the
    non-maximal order of radicand -3, smallest coefficient shells first
    (coordinates up to 3).  The answer is fixed, so it is computed once."""
    domain = dom.CoefficientDomain.z_sqrt(-3)
    sgp = from_generators([1])
    examined = 0
    for bound in range(1, 4):
        pool = [domain.element(x, y)
                for x in range(-bound, bound + 1)
                for y in range(-bound, bound + 1)
                if x or y]
        for support in ((0, 1), (0, 1, 2)):
            pairs = _support_elements(domain, sgp, pool, support)
            for x_elem in pairs:
                for y_elem in pairs:
                    examined += 1
                    n = grd.dedekind_mertens_exponent(x_elem, y_elem)
                    if n >= 1:
                        return {"x": x_elem.text(), "y": y_elem.text(),
                                "exponent": n, "examined": examined}
    return None


def _support_elements(domain, sgp, pool, support):
    out = []
    if len(support) == 2:
        for c0 in pool:
            for c1 in pool:
                out.append(grd.graded_element(
                    domain, sgp, [(support[0], c0), (support[1], c1)]))
    else:
        small = pool[: max(4, len(pool) // 6)]
        for c0 in small:
            for c1 in small:
                for c2 in small:
                    out.append(grd.graded_element(
                        domain, sgp, [(support[0], c0), (support[1], c1),
                                      (support[2], c2)]))
    return out


def suite_content(seed: int = 0, trials: int = 200) -> dict:
    rng = _rng(seed, trials)
    checks: list = []
    sgp = from_generators([1])
    for domain, label in ((dom.CoefficientDomain.rationals(), "Q"),
                          (dom.CoefficientDomain.integers(), "Z")):
        bad = 0
        for _ in range(trials):
            x = _random_poly(rng, domain, sgp)
            y = _random_poly(rng, domain, sgp)
            if grd.dedekind_mertens_exponent(x, y) != 0 or not grd.gauss_check(x, y):
                bad += 1
        check(checks, f"content multiplies exactly over {label}", bad == 0,
              f"{trials - bad}/{trials} pairs with exponent 0")
    found = northcott_search()
    check(checks, "small-pair search finds a nonzero content exponent",
          found is not None and found["exponent"] >= 1,
          "" if found is None else
          f"x={found['x']}, y={found['y']}, exponent {found['exponent']} "
          f"after {found['examined']} pairs")
    # frozen fixture
    d3 = dom.CoefficientDomain.z_sqrt(-3)
    fx = grd.graded_element(d3, sgp, [(0, d3.element(1, 1)), (1, d3.element(1, -1))])
    fy = grd.graded_element(d3, sgp, [(0, d3.element(1, -1)), (1, d3.element(1, 1))])
    check(checks, "frozen fixture keeps exponent 1",
          grd.dedekind_mertens_exponent(fx, fy) == 1 and not grd.gauss_check(fx, fy),
          f"x={fx.text()}, y={fy.text()}")
    # subadditivity: C(xy) inside C(x)C(y) on sampled quadratic pairs
    bad = 0
    for _ in range(60):
        x = _random_poly(rng, d3, sgp)
        y = _random_poly(rng, d3, sgp)
        product = dom.mul(grd.content(x), grd.content(y))
        if not all(product.contains(b) for b in grd.content(x * y).basis_elements()):
            bad += 1
    check(checks, "content subadditivity over the non-maximal order", bad == 0,
          f"{60 - bad}/60 pairs")
    return _report("northcott", trials, checks)


# --- decomposition suite ------------------------------------------------------

def _invertible_domain_pool():
    return (dom.CoefficientDomain.integers(),
            dom.CoefficientDomain.z_sqrt(-5),
            dom.CoefficientDomain.z_sqrt(-6),
            dom.CoefficientDomain.maximal_order(-23))


def suite_decomposition(seed: int = 0, trials: int = 100) -> dict:
    rng = _rng(seed, trials)
    checks: list = []
    bad = 0
    for t in range(trials):
        domain = rng.choice(_invertible_domain_pool())
        j = _random_coeff_ideal(rng, domain)
        sgp = _random_semigroup(rng)
        lifted = grd.lift_coefficient_class(j, sgp)
        trivial_lift = lifted.coeff_form is None
        principal = dom.is_principal(j) is not None
        ok = trivial_lift == principal
        ok = ok and mid.class_is_trivial(lifted.monoid_class)
        pair = grd.IdealPair(j, mid.unit_ideal(sgp))
        ok = ok and grd.decompose_class(pair) == lifted
        if not ok:
            bad += 1
            check(checks, f"trial {t} decomposition laws", False,
                  f"{domain.text()} ideal {j.text()}")
    check(checks, "lift triviality = principality; lift and decomposition agree",
          bad == 0, f"{trials - bad}/{trials} trials clean")
    # the order-2 witness
    d5 = dom.CoefficientDomain.z_sqrt(-5)
    j = dom.ideal_from_generators(d5, [2, d5.element(1, 1)])
    cls = grd.decompose_class(grd.IdealPair(j, mid.unit_ideal(from_generators([1]))))
    witness_ok = (cls.coeff_form == dom.QuadForm(2, 2, 3)
                  and dom.compose(cls.coeff_form, cls.coeff_form)
                  == dom.identity_form(-20)
                  and not grd.homogeneous_class_is_trivial(cls))
    check(checks, "order-2 coefficient class detected", witness_ok,
          "class of the norm-2 prime squares to the identity")
    return _report("decomposition", trials, checks)


# --- quadric suite ------------------------------------------------------------

def _random_quadric(rng: random.Random) -> qdr.QuadricElement:
    entries = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-2, 3)
        if rng.random() < 0.5:
            mono = (a, rng.randint(0, 2), 0)
        else:
            mono = (a, 0, rng.randint(0, 2))
        entries.append((mono, rng.randint(-3, 3)))
    return qdr.from_terms(entries)


@functools.cache
def _subring_blocks() -> tuple:
    """The subring members whose integer combinations the suite samples."""
    x = qdr.x_pow(1)
    return (qdr.one(), qdr.y_pow(1), qdr.z_pow(1), x * (x - 1),
            x * x * (x - 1), qdr.y_pow(2), qdr.z_pow(2), x * qdr.y_pow(1))


def _random_subring_member(rng: random.Random) -> qdr.QuadricElement:
    u = qdr.from_terms([])
    for _ in range(rng.randint(1, 3)):
        u = u + rng.randint(-3, 3) * rng.choice(_subring_blocks())
    return u


def suite_quadric(seed: int = 0, trials: int = 500) -> dict:
    rng = _rng(seed, trials)
    checks: list = []
    bad = 0
    for _ in range(trials):
        u, v, w = (_random_quadric(rng) for _ in range(3))
        if (u * v) * w != u * (v * w) or u * (v + w) != u * v + u * w:
            bad += 1
    check(checks, "rewrite confluence: association and distribution", bad == 0,
          f"{trials - bad}/{trials} triples clean")
    bad = 0
    for _ in range(200):
        u, v = _random_subring_member(rng), _random_subring_member(rng)
        if not (qdr.in_subring(u) and qdr.in_subring(v)):
            bad += 1
            continue
        if not qdr.in_subring(u * v) or not qdr.in_subring(u + v):
            bad += 1
    check(checks, "subring closed under products and sums", bad == 0,
          f"{200 - bad}/200 pairs clean")
    bad = 0
    for _ in range(100):
        u, v = _random_quadric(rng), _random_quadric(rng)
        du = set(u.graded_components())
        dv = set(v.graded_components())
        allowed = {a + b for a in du for b in dv}
        if not set((u * v).graded_components()) <= allowed:
            bad += 1
    check(checks, "product degrees are sums of factor degrees", bad == 0,
          f"{100 - bad}/100 pairs clean")
    report = qdr.verify_unit_identity()
    check(checks, "unit identity and the nine products",
          report["ok"], f"identity normal form: {report['identity_value']}")
    return _report("quadric", trials, checks)


# --- coefficient-domain suite -------------------------------------------------

_DISC_POOL = (-4, -20, -23, -24, -84)


def suite_domains(seed: int = 0, trials: int = 120) -> dict:
    rng = _rng(seed, trials)
    checks: list = []
    bad = 0
    for t in range(trials):
        disc = rng.choice(_DISC_POOL)
        domain = dom.domain_for_discriminant(disc)
        i = _random_coeff_ideal(rng, domain)
        j = _random_coeff_ideal(rng, domain)
        ok = dom.mul(i, j).norm() == i.norm() * j.norm()
        ok = ok and dom.mul(i, dom.inverse(i)) == dom.unit_ideal(domain)
        ok = ok and dom.is_divisorial(i) and dom.is_t_invertible(i)
        # membership against explicit basis combinations
        b1, b2 = i.basis_elements()
        u, v = rng.randint(-6, 6), rng.randint(-6, 6)
        inside = u * b1 + v * b2
        ok = ok and i.contains(inside)
        ok = ok and not i.contains(inside + Fraction(1, 2) * b1)
        if not ok:
            bad += 1
            check(checks, f"trial {t} ideal arithmetic at discriminant {disc}",
                  False, f"{i.text()} / {j.text()}")
    check(checks, "norms multiply, inverses invert, membership matches basis",
          bad == 0, f"{trials - bad}/{trials} trials clean")
    bad = pairs = disagree = 0
    structures = {}
    for disc in _DISC_POOL:
        domain = dom.domain_for_discriminant(disc)
        forms = dom.reduced_forms(disc)
        ideals = [dom.form_to_ideal(domain, f) for f in forms]
        for f, i in zip(forms, ideals):
            if dom.ideal_to_form(i) != f:
                bad += 1
            # the lattice product is the judge of integer composition
            for g, j in zip(forms, ideals):
                pairs += 1
                if dom.compose(f, g) != dom.ideal_to_form(dom.mul(i, j)):
                    disagree += 1
        group = dom.class_group(domain)
        structures[disc] = group.structure()
        e = group.identity_index
        for a in range(group.order):
            inv_found = any(group.table[a][b] == e for b in range(group.order))
            if not inv_found or group.table[a][e] != a:
                bad += 1
    check(checks, "form/ideal round trip and group table laws", bad == 0,
          f"discriminants {list(_DISC_POOL)}")
    check(checks, "composition agrees with the ideal product", disagree == 0,
          f"{pairs - disagree}/{pairs} form pairs agree")
    expected = {-4: "trivial", -20: "Z/2Z", -23: "Z/3Z", -24: "Z/2Z",
                -84: "abelian of order 4 with exponent 2"}
    check(checks, "class group structures", structures == expected,
          str(structures))
    return _report("domains", trials, checks)


SUITES = {
    "oracle": suite_semigroup_oracle,
    "closure": suite_closure_identities,
    "lemma23": suite_pair_identities,
    "northcott": suite_content,
    "decomposition": suite_decomposition,
    "quadric": suite_quadric,
    "domains": suite_domains,
}


def run_suites(seed: int = 0, trials: int | None = None,
               only: str | None = None) -> list[dict]:
    names = [only] if only else list(SUITES)
    if only and only not in SUITES:
        raise ValueError(f"unknown suite {only!r}; choose from {sorted(SUITES)}")
    reports = []
    for name in names:
        child_seed = (seed ^ zlib.crc32(name.encode())) & 0x7FFFFFFF
        fn = SUITES[name]
        reports.append(fn(child_seed) if trials is None else fn(child_seed, trials))
    return reports
