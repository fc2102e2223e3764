"""Graded arithmetic over a monoid ring.

Elements are finite sums b*X^g with coefficients in the quotient field of the
coefficient domain and integer exponents (the grading group is Z, so negative
exponents are legal); coefficients are exact scalars (``domains.exact``).  A
homogeneous ideal is given by homogeneous generators; the key fact exercised
here is that membership, colon, closures, and class decomposition all reduce
to a coefficient-ideal component and a monoid-ideal component that can be
handled independently.
"""

from __future__ import annotations

from . import domains as dom
from . import ideals as mid
from .domains import CoefficientDomain, CoeffIdeal, QuadForm
from .errors import (
    CapabilityError,
    ExponentCapError,
    ExtractionError,
    MismatchError,
    ParseError,
)
from .records import Record
from .semigroups import MonoidDescriptor, NumericalSemigroup


class GradedElement(Record):
    """A finite sum of monomials b*X^g; the zero element has no terms."""

    __slots__ = ("domain", "monoid", "terms")  # terms: (exponent, nonzero coefficient)

    def __bool__(self):
        return bool(self.terms)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(g for g, _ in self.terms)

    @property
    def coefficients(self) -> tuple:
        return tuple(b for _, b in self.terms)

    def _lift(self, other) -> "GradedElement":
        if isinstance(other, GradedElement):
            if other.domain != self.domain or other.monoid != self.monoid:
                raise MismatchError("elements live over different rings")
            return other
        return graded_element(self.domain, self.monoid, [(0, other)])

    def __add__(self, other):
        return graded_element(self.domain, self.monoid,
                              self.terms + self._lift(other).terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __neg__(self):
        return GradedElement(self.domain, self.monoid,
                             tuple((g, -b) for g, b in self.terms))

    def __mul__(self, other):
        o = self._lift(other)
        return graded_element(self.domain, self.monoid,
                              ((g1 + g2, b1 * b2) for g1, b1 in self.terms
                               for g2, b2 in o.terms))

    __rmul__ = __mul__

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for g, b in self.terms:
            btext = b.text() if isinstance(b, dom.QuadElement) else str(b)
            if g == 0:
                parts.append(btext)
                continue
            xtext = "X" if g == 1 else f"X^{g}"
            if btext == "1":
                parts.append(xtext)
            elif btext == "-1":
                parts.append(f"-{xtext}")
            elif any(ch in btext[1:] for ch in "+-"):
                parts.append(f"({btext})*{xtext}")
            else:
                parts.append(f"{btext}*{xtext}")
        return "+".join(parts).replace("+-", "-")


def graded_element(domain: CoefficientDomain, monoid: NumericalSemigroup,
                   terms) -> GradedElement:
    """The normal form of a sum of (exponent, coefficient) terms: coefficients
    of a repeated exponent are summed and zero coefficients dropped.

    >>> from sgclass.semigroups import from_generators
    >>> z, s23 = dom.CoefficientDomain.integers(), from_generators([2, 3])
    >>> graded_element(z, s23, [(2, 3), (0, 1), (2, -1), (5, 4), (5, -4)]).text()
    '1+2*X^2'
    """
    acc: dict[int, object] = {}
    for g, b in terms:
        g, coeff = int(g), domain.coerce(b)
        acc[g] = domain.coerce(acc[g] + coeff) if g in acc else coeff
    return GradedElement(domain, monoid, tuple(sorted(
        ((g, b) for g, b in acc.items() if b), key=lambda t: t[0])))


def monomial(domain: CoefficientDomain, monoid: NumericalSemigroup,
             exponent: int, coeff=1) -> GradedElement:
    return graded_element(domain, monoid, [(exponent, coeff)])


def in_monoid_ring(x: GradedElement) -> bool:
    """Does x lie in the monoid ring itself (integral coefficients, monoid exponents)?"""
    return all(x.monoid.contains(g) for g in x.exponents) and \
        all(x.domain.is_integral_element(b) for b in x.coefficients)


def content(x: GradedElement) -> CoeffIdeal:
    """The coefficient-domain ideal generated by the coefficients of x."""
    if not x:
        raise ValueError("the zero element has no content ideal")
    return dom.ideal_from_generators(x.domain, x.coefficients)


# --- element text form -------------------------------------------------------

# Deepest parenthesis nesting parsed; three Python frames per level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, domain: CoefficientDomain,
                 monoid: NumericalSemigroup):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.domain = domain
        self.monoid = monoid

    def error(self, message: str):
        raise ParseError(f"{message} at position {self.pos} in {self.text!r}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def expr(self) -> GradedElement:
        negate = self.take("-")
        value = self.term()
        if negate:
            value = -value
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> GradedElement:
        value = self.factor()
        while self.take("*"):
            value = value * self.factor()
        return value

    def factor(self) -> GradedElement:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            value = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            self.depth -= 1
            return value
        if ch == "w":
            self.pos += 1
            if self.domain.kind != "quadratic":
                self.error("'w' needs a quadratic coefficient domain")
            return graded_element(self.domain, self.monoid,
                                  [(0, self.domain.element(0, 1))])
        if ch == "X":
            self.pos += 1
            exponent = self.integer() if self.take("^") else 1
            return monomial(self.domain, self.monoid, exponent)
        num = self.integer()
        if self.take("/"):
            den = self.integer()
            if den == 0:
                self.error("zero denominator")
            return graded_element(self.domain, self.monoid,
                                  [(0, dom.divide(num, den))])
        return graded_element(self.domain, self.monoid, [(0, num)])


def parse_element(domain: CoefficientDomain, monoid: NumericalSemigroup,
                  text: str) -> GradedElement:
    """Parse forms like ``2+3*X^2``, ``(1+w)*X^3``, ``1/2*X^-1``."""
    parser = _Parser(text, domain, monoid)
    value = parser.expr()
    parser.skip()
    if parser.pos != len(text):
        parser.error("trailing input")
    return value


# --- homogeneous ideals ------------------------------------------------------

class HomogeneousIdeal(Record):
    """Generated by finitely many homogeneous elements b*X^g."""

    __slots__ = ("domain", "monoid", "gens")  # gens: (nonzero coefficient, exponent)


def homogeneous_ideal(domain: CoefficientDomain, monoid: NumericalSemigroup,
                      gens) -> HomogeneousIdeal:
    cleaned = []
    for b, g in gens:
        coeff = domain.coerce(b)
        if not coeff:
            raise ValueError("homogeneous generators must be nonzero")
        cleaned.append((coeff, int(g)))
    if not cleaned:
        raise ValueError("at least one generator is required")
    cleaned.sort(key=lambda t: t[1])
    return HomogeneousIdeal(domain, monoid, tuple(cleaned))


def _component(ideal: HomogeneousIdeal, beta: int) -> CoeffIdeal | None:
    """The degree-``beta`` coefficient ideal of ``ideal``, generated by the a of
    the generators a*X^alpha with beta - alpha in the monoid; None if none."""
    usable = [a for a, alpha in ideal.gens if ideal.monoid.contains(beta - alpha)]
    return dom.ideal_from_generators(ideal.domain, usable) if usable else None


def homogeneous_membership(ideal: HomogeneousIdeal, f: GradedElement) -> bool:
    """Exact membership: each component of ``f`` must lie in the component of
    ``ideal`` of the same degree."""
    if f.domain != ideal.domain or f.monoid != ideal.monoid:
        raise MismatchError("element and ideal live over different rings")
    for beta, b in f.terms:
        part = _component(ideal, beta)
        if part is None or not part.contains(b):
            return False
    return True


# --- split ideals: a coefficient part and an exponent part -------------------

class IdealPair(Record):
    """The ideal of all sums b*X^g with b in ``coeff`` and g in ``exps``."""

    __slots__ = ("coeff", "exps")

    def text(self) -> str:
        return f"{self.coeff.text()}[{self.exps.text()}]"


def _require_compatible(p1: IdealPair, p2: IdealPair):
    if p1.coeff.domain != p2.coeff.domain or p1.exps.monoid != p2.exps.monoid:
        raise MismatchError("pairs live over different rings")


def pair_colon(p1: IdealPair, p2: IdealPair) -> IdealPair:
    _require_compatible(p1, p2)
    return IdealPair(dom.colon(p1.coeff, p2.coeff),
                     mid.colon(p1.exps, p2.exps))


def pair_v(pair: IdealPair) -> IdealPair:
    return IdealPair(dom.v_closure(pair.coeff), mid.v_closure(pair.exps))


def pair_is_t_invertible(pair: IdealPair) -> bool:
    return dom.is_t_invertible(pair.coeff) and mid.is_t_invertible(pair.exps)


def extract_pair(ideal: HomogeneousIdeal, assume_divisorial: bool = False) -> IdealPair:
    """Split a homogeneous ideal into the coefficient ideal of its generators'
    coefficients and the exponent ideal of their exponents.

    With ``assume_divisorial`` the split is checked exactly: at each degree of
    the exponent ideal the ideal's component must be the whole coefficient
    ideal, else ``ExtractionError`` names a missing element of lowest degree.

    >>> from sgclass.semigroups import from_generators
    >>> s23, z = from_generators([2, 3]), dom.CoefficientDomain.integers()
    >>> extract_pair(homogeneous_ideal(z, s23, [(2, 2), (2, 3)]), True).text()
    '(2)[gens=2,3@sgp=2,3]'
    >>> extract_pair(homogeneous_ideal(z, s23, [(2, 2), (3, 3)]), True)
    ... # doctest: +ELLIPSIS
    Traceback (most recent call last):
    sgclass.errors.ExtractionError: ideal is not a split product: X^2 lies in ...
    """
    coeff = dom.ideal_from_generators(ideal.domain, [a for a, _ in ideal.gens])
    exps = mid.ideal_from_generators(ideal.monoid, [g for _, g in ideal.gens])
    pair = IdealPair(coeff, exps)
    if assume_divisorial:
        # degree min alpha sees only the lowest generators; if they give the
        # whole coefficient ideal, so does every degree from min alpha +
        # conductor on, so only [min alpha, min alpha + conductor) can fail
        top = exps.min + max(ideal.monoid.conductor, 1)
        for beta in range(exps.min, top):
            part = _component(ideal, beta)
            if part is None:    # beta is not in the exponent ideal
                continue
            for b in coeff.basis_elements():
                if not part.contains(b):
                    candidate = monomial(ideal.domain, ideal.monoid, beta, b)
                    raise ExtractionError(
                        f"ideal is not a split product: {candidate.text()} lies in "
                        f"{pair.text()} but not in the ideal")
    return pair


# --- class decomposition -----------------------------------------------------

class HomogeneousClass(Record):
    """A graded-ring ideal class in split form.

    ``coeff_form`` is the reduced form of the coefficient class (None marks the
    principal class), ``monoid_class`` the exponent-ideal class as its
    representative, the ideal that ``ideals.class_reduce`` returns.
    """

    __slots__ = ("coeff_form", "monoid_class")


def _coefficient_class_form(ideal: CoeffIdeal) -> QuadForm | None:
    domain = ideal.domain
    if domain.kind in ("Q", "Z"):
        return None
    if dom.is_principal(ideal) is not None:
        return None
    if not domain.maximal:
        raise CapabilityError(
            "class representatives need a maximal order or a principal ideal")
    return dom.ideal_to_form(ideal)


def lift_coefficient_class(ideal: CoeffIdeal, monoid: NumericalSemigroup
                           ) -> HomogeneousClass:
    if not dom.is_t_invertible(ideal):
        raise CapabilityError("class lift needs a t-invertible ideal")
    return HomogeneousClass(_coefficient_class_form(ideal),
                            mid.unit_ideal(monoid))


def decompose_class(pair: IdealPair) -> HomogeneousClass:
    """Split the class of a t-invertible pair into its two components."""
    if not pair_is_t_invertible(pair):
        raise CapabilityError("class decomposition needs a t-invertible pair")
    return HomogeneousClass(_coefficient_class_form(pair.coeff),
                            mid.class_reduce(pair.exps))


def homogeneous_class_is_trivial(cls: HomogeneousClass) -> bool:
    return cls.coeff_form is None and mid.class_is_trivial(cls.monoid_class)


# --- content exponents -------------------------------------------------------

def dedekind_mertens_exponent(x: GradedElement, y: GradedElement) -> int:
    """The least N with C(x)^N * C(xy) = C(x)^(N+1) * C(y).

    Always at most (number of terms of y) - 1; exceeding the cap signals an
    implementation bug, not a mathematical possibility.
    """
    if not x or not y:
        raise ValueError("content exponents need nonzero elements")
    cx, cy, cxy = content(x), content(y), content(x * y)
    cap = len(y.terms) - 1
    power = dom.unit_ideal(x.domain)
    for n in range(cap + 1):
        if dom.mul(power, cxy) == dom.mul(dom.mul(power, cx), cy):
            return n
        power = dom.mul(power, cx)
    raise ExponentCapError(
        f"no exponent up to {cap} balances the contents of {x.text()} and {y.text()}")


def inverse_content_product_check(a: GradedElement) -> dict:
    """Check that a*b*X^g lies in the monoid ring for every basis element b of
    C(a)^-1 and every minimal generator g of E(a)^-1, the inverses of the
    content and of the exponent ideal of a.

    Every element with coefficients in C(a)^-1 and exponents in E(a)^-1 is a
    sum of products b*X^g times monoid-ring elements, so this finite check
    covers all of them.
    """
    if not a:
        raise ValueError("the zero element has no content")
    inv_coeff = dom.inverse(content(a))
    inv_exps = mid.inverse(mid.ideal_from_generators(a.monoid, a.exponents))
    checked = failures = 0
    witnesses = []
    for b in inv_coeff.basis_elements():
        for g in inv_exps.min_generators:
            factor = monomial(a.domain, a.monoid, g, b)
            checked += 1
            if not in_monoid_ring(a * factor):
                failures += 1
                if len(witnesses) < 3:
                    witnesses.append(factor.text())
    report = {"operation": "inverse_content_product_check",
              "element": a.text(), "checked": checked, "failures": failures}
    if witnesses:
        report["witnesses"] = witnesses
    return report


# --- the transfer criterion --------------------------------------------------

def monoid_class_group_status(descriptor: MonoidDescriptor) -> tuple[bool, str]:
    """Whether every t-invertible ideal class of the monoid is trivial.

    For monoids whose divisibility order is total (the integrally closed
    cases here) every finitely generated ideal is principal, so the answer is
    forced.  Every other monoid here is a numerical semigroup S, and every
    t-invertible fractional ideal Y of S is principal (Barucci, Dobbs &
    Fontana, Mem. AMS 598, 1997; Halter-Koch, *Ideal Systems*, 1998):

    1. Let S not be N, M = S minus {0} and F the Frobenius number.  F + M
       lies in S, so 0 and F lie in M^-1, and M_v = (S : M^-1) lies in
       (S : {0, F}) = M because 0 + F is not in S.  So M is divisorial.
    2. An ideal inside S that is not inside M contains 0, so it is S.
    3. Y t-invertible means (Y + Y^-1)_t = S, and t = v on the finitely
       generated Y + Y^-1, so (Y + Y^-1)_v = S.  Y + Y^-1 lies in S but not
       in M, whose v-closure is M, so by 2 it is S: y + z = 0 for some y in Y
       and z in Y^-1.  Then Y - y lies in S and y + S in Y, so Y = y + S.
    4. Every ideal of S = N is principal.
    """
    if descriptor.is_integrally_closed():
        return True, "forced: divisibility is a total order, " \
                     "finitely generated ideals are principal"
    return True, "theorem: every t-invertible ideal of a numerical " \
                 "semigroup is principal"


def transfer_criterion_report(domain: CoefficientDomain,
                              descriptor: MonoidDescriptor) -> dict:
    """Check the three transfer conditions and state the class-group conclusion."""
    cond1 = domain.is_integrally_closed()
    cond2 = descriptor.is_integrally_closed()
    cond3, detail3 = monoid_class_group_status(descriptor)
    conditions = [
        {"name": "coefficient domain integrally closed", "holds": cond1,
         "detail": domain.text()},
        {"name": "monoid integrally closed", "holds": cond2,
         "detail": descriptor.text()},
        {"name": "monoid class group trivial", "holds": cond3, "detail": detail3},
    ]
    if cond1 and cond2 and cond3:
        conclusion = ("class group of the monoid ring equals the coefficient "
                      f"class group: {dom.describe_class_group(domain)}")
    else:
        failing = next(c["name"] for c in conditions if not c["holds"])
        conclusion = f"criterion fails: {failing}"
    return {"operation": "transfer_criterion", "domain": domain.text(),
            "monoid": descriptor.text(), "conditions": conditions,
            "conclusion": conclusion}
