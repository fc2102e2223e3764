"""Coefficient rings: Q, Z, and imaginary quadratic orders.

Quadratic orders are Z[w] with w = sqrt(d) for squarefree d < 0, or
w = (1+sqrt(d))/2 for the maximal order when d = 1 mod 4.  Every fractional
ideal, of any of the three domains, is one record: a positive rational scale
times an integer basis [a, b+c*w].  Over a quadratic order the basis spans a
full rank-2 lattice closed under multiplication by w, in upper-triangular
normal form: a, c > 0, c | a, c | b, 0 <= b < a.  Over Z and Q the ideal has
rank one: a = c = 1 and b = 0, and the ideal is the principal ideal (scale),
with scale 1 over Q.  Ideal operations are therefore scale arithmetic over Q
and Z and lattice arithmetic over quadratic orders.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import CapabilityError, MismatchError, ParseError


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 1
    return True


@dataclass(frozen=True)
class CoefficientDomain:
    """One of Q, Z, or an imaginary quadratic order."""

    kind: str                 # "Q" | "Z" | "quadratic"
    d: int | None = None      # squarefree negative radicand
    maximal: bool | None = None

    def __post_init__(self):
        if self.kind in ("Q", "Z"):
            if self.d is not None or self.maximal is not None:
                raise ValueError("rational kinds take no radicand")
            return
        if self.kind != "quadratic":
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.d is None or self.d >= 0 or not _is_squarefree(self.d):
            raise ValueError("the radicand must be a squarefree negative integer")
        if self.maximal is None:
            raise ValueError("quadratic orders must state maximality")

    @staticmethod
    def rationals() -> "CoefficientDomain":
        return CoefficientDomain("Q")

    @staticmethod
    def integers() -> "CoefficientDomain":
        return CoefficientDomain("Z")

    @staticmethod
    def z_sqrt(d: int) -> "CoefficientDomain":
        """Z[sqrt(d)]; maximal exactly when d is not 1 mod 4."""
        return CoefficientDomain("quadratic", d, d % 4 != 1)

    @staticmethod
    def maximal_order(d: int) -> "CoefficientDomain":
        """The full ring of integers of Q(sqrt(d))."""
        return CoefficientDomain("quadratic", d, True)

    @property
    def half_basis(self) -> bool:
        """True when w = (1+sqrt(d))/2 rather than sqrt(d)."""
        return self.kind == "quadratic" and self.maximal and self.d % 4 == 1

    @property
    def omega_trace(self) -> int:
        return 1 if self.half_basis else 0

    @property
    def omega_norm(self) -> int:
        return (1 - self.d) // 4 if self.half_basis else -self.d

    @property
    def discriminant(self) -> int:
        if self.kind != "quadratic":
            raise CapabilityError("only quadratic orders have a discriminant")
        return self.d if self.half_basis else 4 * self.d

    def is_integrally_closed(self) -> bool:
        return True if self.kind in ("Q", "Z") else bool(self.maximal)

    def element(self, x, y=0) -> "QuadElement":
        if self.kind != "quadratic":
            raise CapabilityError("element(x, y) needs a quadratic order")
        return QuadElement(self, Fraction(x), Fraction(y))

    def coerce(self, value):
        """Bring a raw value into the quotient field of this domain."""
        if self.kind == "quadratic":
            if isinstance(value, QuadElement):
                if value.domain != self:
                    raise MismatchError("element belongs to a different order")
                return value
            return QuadElement(self, Fraction(value), Fraction(0))
        if isinstance(value, QuadElement):
            raise MismatchError("quadratic element in a rational domain")
        return value if isinstance(value, Fraction) else Fraction(value)

    def is_integral_element(self, value) -> bool:
        """Membership of a quotient-field element in the ring itself."""
        v = self.coerce(value)
        if self.kind == "Q":
            return True
        if self.kind == "Z":
            return v.denominator == 1
        return v.x.denominator == 1 and v.y.denominator == 1

    def text(self) -> str:
        if self.kind in ("Q", "Z"):
            return self.kind
        if self.half_basis:
            return f"O[sqrt({self.d})]"
        return f"Z[sqrt({self.d})]"


@dataclass(frozen=True)
class QuadElement:
    """x + y*w with rational x, y, in the quotient field of a quadratic order."""

    domain: CoefficientDomain
    x: Fraction
    y: Fraction

    def _lift(self, other) -> "QuadElement":
        return self.domain.coerce(other)

    def __add__(self, other):
        o = self._lift(other)
        return QuadElement(self.domain, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.domain, -self.x, -self.y)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        t, n = self.domain.omega_trace, self.domain.omega_norm
        yy = self.y * o.y
        return QuadElement(
            self.domain,
            self.x * o.x - n * yy,
            self.x * o.y + self.y * o.x + t * yy,
        )

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.x or self.y)

    def conjugate(self) -> "QuadElement":
        t = self.domain.omega_trace
        return QuadElement(self.domain, self.x + t * self.y, -self.y)

    def norm(self) -> Fraction:
        t, n = self.domain.omega_trace, self.domain.omega_norm
        return self.x * self.x + t * self.x * self.y + n * self.y * self.y

    def text(self) -> str:
        if not self.y:
            return str(self.x)
        ytext = "w" if self.y == 1 else ("-w" if self.y == -1 else f"{self.y}*w")
        if not self.x:
            return ytext
        sep = "+" if self.y > 0 else ""
        return f"{self.x}{sep}{ytext}"


# Lattice plumbing.  A full-rank lattice in Q^2 (coordinates: coefficient of 1,
# coefficient of w) is reduced to (scale, a, b, c) with basis scale*(a, 0) and
# scale*(b, c); the scale is the unique positive rational making the integer
# triple primitive against it, so the representation is canonical.

def _hnf_int(vectors: list[tuple[int, int]]) -> tuple[int, int, int]:
    b = c = 0
    xs: list[int] = []
    for x, y in vectors:
        if y == 0:
            xs.append(x)
        elif c == 0:
            b, c = x, y
        else:
            g, s, t = _egcd(c, y)
            xs.append((y // g) * b - (c // g) * x)
            b, c = s * b + t * x, g
    if c < 0:
        b, c = -b, -c
    a = 0
    for x in xs:
        a = gcd(a, x)
    if c == 0 or a == 0:
        raise ValueError("module does not have full rank")
    return a, b % a, c


def _hnf_rational(vectors) -> tuple[Fraction, int, int, int]:
    vs = [(Fraction(x), Fraction(y)) for x, y in vectors if x or y]
    if not vs:
        raise ValueError("the zero module is not a fractional ideal")
    den = 1
    for x, y in vs:
        den = lcm(den, x.denominator, y.denominator)
    a, b, c = _hnf_int([(int(x * den), int(y * den)) for x, y in vs])
    g = gcd(gcd(a, b), c)
    k = gcd(den, g)
    return Fraction(k, den), a // k, b // k, c // k


def _in_triple(a: int, b: int, c: int, x: Fraction, y: Fraction) -> bool:
    k = y / c
    if k.denominator != 1:
        return False
    return ((x - k * b) / a).denominator == 1


def _omega_closed(domain: CoefficientDomain, a: int, b: int, c: int) -> bool:
    t, n = domain.omega_trace, domain.omega_norm
    return (_in_triple(a, b, c, Fraction(0), Fraction(a))
            and _in_triple(a, b, c, Fraction(-c * n), Fraction(b + c * t)))


def _dual_basis(b1, b2):
    # rows of the inverse-transpose of the basis matrix [b1; b2]
    (p, q), (r, s) = (b1, b2)
    det = p * s - q * r
    if not det:
        raise ValueError("degenerate lattice")
    return (s / det, -r / det), (-q / det, p / det)


@dataclass(frozen=True)
class CoeffIdeal:
    """A nonzero fractional ideal of a coefficient domain: scale * [a, b+c*w].

    Over Q and Z the ideal has rank one, a = c = 1 and b = 0, and it is the
    principal ideal (scale); over Q the only one is the unit ideal, scale 1.
    Over a quadratic order [a, b+c*w] is the lattice in normal form.
    """

    domain: CoefficientDomain
    scale: Fraction
    a: int = 1
    b: int = 0
    c: int = 1

    def basis_elements(self) -> list:
        if self.domain.kind != "quadratic":
            return [self.scale]
        s = self.scale
        return [QuadElement(self.domain, s * self.a, Fraction(0)),
                QuadElement(self.domain, s * self.b, s * self.c)]

    def contains(self, value) -> bool:
        v = self.domain.coerce(value)
        if self.domain.kind != "quadratic":
            return self.domain.is_integral_element(v / self.scale)
        if not v:
            return True
        return _in_triple(self.a, self.b, self.c, v.x / self.scale, v.y / self.scale)

    def norm(self) -> Fraction:
        if self.domain.kind != "quadratic":
            return self.scale
        return self.scale * self.scale * self.a * self.c

    def text(self) -> str:
        if self.domain.kind != "quadratic":
            return f"({self.scale})"
        prefix = "" if self.scale == 1 else f"{self.scale}*"
        w = "w" if self.c == 1 else f"{self.c}*w"
        return f"{prefix}[{self.a}, {self.b}+{w}]"

    def to_json(self) -> dict:
        return {"scale": str(self.scale), "a": self.a, "b": self.b, "c": self.c}


def unit_ideal(domain: CoefficientDomain) -> CoeffIdeal:
    return CoeffIdeal(domain, Fraction(1))


def _rational(domain: CoefficientDomain, values: list[Fraction]) -> CoeffIdeal:
    """The rank-one ideal generated by nonzero rationals: (1) over Q, their
    positive gcd over Z."""
    if domain.kind == "Q":
        return unit_ideal(domain)
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    num = 0
    for v in values:
        num = gcd(num, v.numerator * (den // v.denominator))
    return CoeffIdeal(domain, Fraction(num, den))


def _lattice(domain: CoefficientDomain, elements) -> CoeffIdeal:
    """The ideal of a quadratic order spanned over Z by the given elements."""
    scale, a, b, c = _hnf_rational([(e.x, e.y) for e in elements])
    if not _omega_closed(domain, a, b, c):
        raise ValueError("module is not closed under multiplication by w")
    return CoeffIdeal(domain, scale, a, b, c)


def ideal_from_generators(domain: CoefficientDomain, gens) -> CoeffIdeal:
    """The fractional ideal generated by finitely many elements, not all zero."""
    elems = [e for e in (domain.coerce(g) for g in gens) if e]
    if not elems:
        raise ValueError("at least one nonzero generator is required")
    if domain.kind != "quadratic":
        return _rational(domain, elems)
    w = domain.element(0, 1)
    return _lattice(domain, [x for e in elems for x in (e, e * w)])


def _require_same_domain(i: CoeffIdeal, j: CoeffIdeal) -> CoefficientDomain:
    if i.domain != j.domain:
        raise MismatchError("ideals live over different domains")
    return i.domain


def mul(i: CoeffIdeal, j: CoeffIdeal) -> CoeffIdeal:
    domain = _require_same_domain(i, j)
    if domain.kind != "quadratic":
        return CoeffIdeal(domain, i.scale * j.scale)
    return _lattice(domain, [e * f for e in i.basis_elements()
                             for f in j.basis_elements()])


def add(i: CoeffIdeal, j: CoeffIdeal) -> CoeffIdeal:
    domain = _require_same_domain(i, j)
    if domain.kind != "quadratic":
        return _rational(domain, [i.scale, j.scale])
    return _lattice(domain, i.basis_elements() + j.basis_elements())


def colon(i: CoeffIdeal, j: CoeffIdeal) -> CoeffIdeal:
    """(i : j) = every field element x with x*j inside i.

    Over a quadratic order this is the intersection of beta^-1 * i over the
    basis elements beta of j, taken as the dual of the sum of the duals.
    """
    domain = _require_same_domain(i, j)
    if domain.kind != "quadratic":
        return CoeffIdeal(domain, i.scale / j.scale)
    basis = i.basis_elements()
    duals = []
    for beta in j.basis_elements():
        conj, n = beta.conjugate(), beta.norm()
        beta_inv = QuadElement(domain, conj.x / n, conj.y / n)
        p, q = (e * beta_inv for e in basis)
        duals.extend(_dual_basis((p.x, p.y), (q.x, q.y)))
    scale, a, b, c = _hnf_rational(duals)
    meet = _dual_basis((scale * a, Fraction(0)), (scale * b, scale * c))
    return _lattice(domain, [QuadElement(domain, x, y) for x, y in meet])


def inverse(i: CoeffIdeal) -> CoeffIdeal:
    return colon(unit_ideal(i.domain), i)


def v_closure(i: CoeffIdeal) -> CoeffIdeal:
    return inverse(inverse(i))


def is_divisorial(i: CoeffIdeal) -> bool:
    return v_closure(i) == i


def is_t_invertible(i: CoeffIdeal) -> bool:
    return v_closure(mul(i, inverse(i))) == unit_ideal(i.domain)


def is_principal(i: CoeffIdeal):
    """A generator when the ideal is principal, else None.

    For quadratic orders this is a finite norm-equation sweep: the ideal is
    principal exactly when it contains an element whose norm equals the ideal
    norm.
    """
    domain = i.domain
    if domain.kind != "quadratic":
        return i.scale
    t, n = domain.omega_trace, domain.omega_norm
    a, b, c = i.a, i.b, i.c
    target = a * c
    disc = t * t - 4 * n
    # X = u*a + v*b, Y = v*c; norm X^2 + t*X*Y + n*Y^2 = a*c bounds Y^2 <= 4*a*c/|disc|
    vmax = isqrt(4 * a * c // (-disc)) // c
    for v in range(0, vmax + 1):
        yy = v * c
        dx = 4 * target - (-disc) * yy * yy
        if dx < 0:
            continue
        root = isqrt(dx)
        if root * root != dx:
            continue
        for sign in (1, -1) if root else (1,):
            num = -t * yy + sign * root
            if num % 2:
                continue
            xx = num // 2
            if (xx - v * b) % a:
                continue
            return domain.element(Fraction(xx) * i.scale, Fraction(yy) * i.scale)
    return None


@dataclass(frozen=True)
class QuadForm:
    """A positive definite integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError("the form must be positive definite")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if b < 0 and (abs(b) == a or a == c):
            return False
        return True

    def reduced(self) -> "QuadForm":
        d = self.discriminant
        a, b, c = self.a, self.b, self.c
        while True:
            if not (-a < b <= a):
                q = -((a - b) // (2 * a))
                b -= 2 * a * q
                c = (b * b - d) // (4 * a)
            if a > c:
                a, b, c = c, -b, a
                continue
            if a == c and b < 0:
                b = -b
            return QuadForm(a, b, c)

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c).reduced()

    def text(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def identity_form(disc: int) -> QuadForm:
    k = disc % 2
    return QuadForm(1, k, (k * k - disc) // 4)


def reduced_forms(disc: int) -> list[QuadForm]:
    """All reduced positive definite forms of the given negative discriminant."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    forms = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a, a + 1):
            if (b - disc) % 2:
                continue
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            forms.append(QuadForm(a, b, c))
    return sorted(forms, key=lambda f: (f.a, f.b, f.c))


def domain_for_discriminant(disc: int) -> CoefficientDomain:
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if disc % 4 == 1:
        if not _is_squarefree(disc):
            raise CapabilityError(f"{disc} is not a fundamental discriminant")
        domain = CoefficientDomain.maximal_order(disc)
    elif disc % 4 == 0:
        d = disc // 4
        if d % 4 == 1 or not _is_squarefree(d):
            raise CapabilityError(f"{disc} is not a fundamental discriminant")
        domain = CoefficientDomain.z_sqrt(d)
    else:
        raise ValueError("discriminant must be 0 or 1 mod 4")
    if domain.discriminant != disc:
        raise CapabilityError(f"{disc} is not a fundamental discriminant")
    return domain


def form_to_ideal(domain: CoefficientDomain, form: QuadForm) -> CoeffIdeal:
    """The lattice [a, (-b+sqrt(disc))/2] as an ideal of the order."""
    if domain.kind != "quadratic" or form.discriminant != domain.discriminant:
        raise MismatchError("form discriminant does not match the order")
    t = domain.omega_trace
    bt = -(form.b + t) // 2
    return _lattice(domain, [domain.element(form.a), domain.element(bt % form.a, 1)])


def ideal_to_form(i: CoeffIdeal) -> QuadForm:
    """The reduced form of the norm quadratic on an oriented ideal basis."""
    domain = i.domain
    if domain.kind != "quadratic":
        raise CapabilityError("forms need a quadratic order")
    t, n = domain.omega_trace, domain.omega_norm
    a, b, c = i.a, i.b, i.c
    fa = a // c
    fb = -(2 * (b // c) + t)
    fc = (b * b + t * b * c + n * c * c) // (a * c)
    return QuadForm(fa, fb, fc).reduced()


def _compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """The reduced composite of two forms of one discriminant, by integer
    Gauss composition (Cohen, GTM 138, Alg. 5.4.7)."""
    if f.a > g.a:
        f, g = g, f
    s = (f.b + g.b) // 2
    n = g.b - s
    d, y1, _ = _egcd(g.a, f.a)
    d1, x2, y2 = _egcd(s, d)
    y2 = -y2
    v1, v2 = f.a // d1, g.a // d1
    r = (y1 * y2 * n - x2 * g.c) % v1
    b = g.b + 2 * v2 * r
    c = (g.c * d1 + r * (g.b + v2 * r)) // v1
    return QuadForm(v1 * v2, b, c).reduced()


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """The reduced Gauss composite of two forms of one fundamental
    discriminant (Cohen, GTM 138, Alg. 5.4.7).

    Raises MismatchError for forms of different discriminants and
    CapabilityError when the discriminant is not fundamental.
    """
    if f.discriminant != g.discriminant:
        raise MismatchError("forms have different discriminants")
    domain_for_discriminant(f.discriminant)
    return _compose(f, g)


@dataclass(frozen=True)
class ClassGroup:
    domain: CoefficientDomain
    forms: tuple[QuadForm, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.forms)

    @property
    def identity_index(self) -> int:
        return self.forms.index(identity_form(self.domain.discriminant))

    def index_of(self, form: QuadForm) -> int:
        return self.forms.index(form.reduced())

    def element_order(self, index: int) -> int:
        e = self.identity_index
        k, current = 1, index
        while current != e:
            current = self.table[current][index]
            k += 1
        return k

    def structure(self) -> str:
        h = self.order
        if h == 1:
            return "trivial"
        orders = [self.element_order(i) for i in range(h)]
        if max(orders) == h:
            return f"Z/{h}Z"
        exponent = 1
        for o in orders:
            exponent = lcm(exponent, o)
        return f"abelian of order {h} with exponent {exponent}"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "structure": self.structure(),
            "forms": [f.text() for f in self.forms],
            "table": [list(row) for row in self.table],
        }


def class_group(domain: CoefficientDomain) -> ClassGroup:
    """The form class group of a maximal imaginary quadratic order."""
    if domain.kind != "quadratic":
        raise CapabilityError("class groups are computed for quadratic orders only")
    if not domain.maximal:
        raise CapabilityError("class groups are computed for maximal orders only")
    forms = tuple(reduced_forms(domain.discriminant))
    index = {f: i for i, f in enumerate(forms)}
    table = tuple(
        tuple(index[_compose(f, g)] for g in forms) for f in forms
    )
    return ClassGroup(domain, forms, table)


def describe_class_group(domain: CoefficientDomain) -> str:
    if domain.kind in ("Q", "Z"):
        return "trivial"
    return class_group(domain).structure()


def parse_domain(text: str) -> CoefficientDomain:
    """Parse ``Q``, ``Z``, ``Z[sqrt(-5)]``, or ``O[sqrt(-3)]``."""
    text = text.strip()
    if text == "Q":
        return CoefficientDomain.rationals()
    if text == "Z":
        return CoefficientDomain.integers()
    for prefix, factory in (("Z[sqrt(", CoefficientDomain.z_sqrt),
                            ("O[sqrt(", CoefficientDomain.maximal_order)):
        if text.startswith(prefix) and text.endswith(")]"):
            try:
                d = int(text[len(prefix):-2])
            except ValueError as exc:
                raise ParseError(f"bad radicand in {text!r}") from exc
            try:
                return factory(d)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown domain {text!r}")
