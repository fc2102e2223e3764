"""Coefficient rings: Q, Z, and imaginary quadratic orders.

Quadratic orders are Z[w] with w = sqrt(d) for squarefree d < 0, or
w = (1+sqrt(d))/2 for the maximal order when d = 1 mod 4.  Every fractional
ideal, of any of the three domains, is one record: a positive rational scale
times an integer basis [a, b+c*w].  Over a quadratic order the basis spans a
full rank-2 lattice L closed under multiplication by w, the scale is 1/D for
the least positive integer D with D*L integral, and [a, b+c*w] is D*L in
upper-triangular normal form, content included: a, c > 0, c | a, c | b,
0 <= b < a.  Over Z and Q the ideal has rank one: a = c = 1 and b = 0, and
the ideal is the principal ideal (scale), with scale 1 over Q.  Ideal
operations are therefore scale arithmetic over Q and Z, and integer lattice
arithmetic with one rational scale over quadratic orders.  All arithmetic is
exact, under the one scalar rule of the package, owned here by ``exact``: an
int when integral, else a Fraction, never a float; ``divide`` is the one
division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

from .errors import CapabilityError, MismatchError, ParseError
from .records import Record, _set
from .semigroups import _prime_factors


def exact(value) -> int | Fraction:
    """``value`` as an int when integral, else a Fraction.

    >>> exact(Fraction(6, 3)), exact(0.5)
    (2, Fraction(1, 2))
    """
    if type(value) is int:
        return value
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator if q.denominator == 1 else q


def divide(p, q) -> int | Fraction:
    """The exact scalar p / q of two exact scalars; int / int is never a float."""
    if type(p) is int and type(q) is int and p % q == 0:
        return p // q
    return exact(Fraction(p, q))


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
    factors = _prime_factors(n)
    return len(set(factors)) == len(factors)


class CoefficientDomain(Record):
    """One of Q, Z, or an imaginary quadratic order."""

    __slots__ = ("kind", "d", "maximal")

    def __init__(self, kind: str,                 # "Q" | "Z" | "quadratic"
                 d: int | None = None,            # squarefree negative radicand
                 maximal: bool | None = None):
        if kind in ("Q", "Z"):
            if d is not None or maximal is not None:
                raise ValueError("rational kinds take no radicand")
        elif kind != "quadratic":
            raise ValueError(f"unknown domain kind {kind!r}")
        elif d is None or d >= 0 or not _is_squarefree(d):
            raise ValueError("the radicand must be a squarefree negative integer")
        elif maximal is None:
            raise ValueError("quadratic orders must state maximality")
        _set(self, "kind", kind)
        _set(self, "d", d)
        _set(self, "maximal", maximal)

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
        return QuadElement(self, x, y)

    def coerce(self, value):
        """Bring a raw value into the quotient field of this domain."""
        if self.kind == "quadratic":
            if isinstance(value, QuadElement):
                if value.domain != self:
                    raise MismatchError("element belongs to a different order")
                return value
            return QuadElement(self, value, 0)
        if isinstance(value, QuadElement):
            raise MismatchError("quadratic element in a rational domain")
        return exact(value)

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


class QuadElement(Record):
    """x + y*w with exact rational x, y, in the quotient field of a quadratic order."""

    __slots__ = ("domain", "x", "y")

    def __init__(self, domain: CoefficientDomain, x: int | Fraction, y: int | Fraction):
        _set(self, "domain", domain)
        _set(self, "x", exact(x))
        _set(self, "y", exact(y))

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

    def norm(self) -> int | Fraction:
        t, n = self.domain.omega_trace, self.domain.omega_norm
        return exact(self.x * self.x + t * self.x * self.y + n * self.y * self.y)

    def text(self) -> str:
        if not self.y:
            return str(self.x)
        ytext = "w" if self.y == 1 else ("-w" if self.y == -1 else f"{self.y}*w")
        if not self.x:
            return ytext
        sep = "+" if self.y > 0 else ""
        return f"{self.x}{sep}{ytext}"


# Lattice plumbing, on integers.  A full-rank lattice L in Q^2 (coordinates:
# coefficient of 1, coefficient of w) is stored as (scale, a, b, c) with basis
# scale*(a, 0) and scale*(b, c): scale = 1/D for the least positive integer D
# with D*L inside Z^2, and (a, b, c) the Hermite normal form of D*L, content
# left in, so (3/2) over Z[sqrt(-5)] is 1/2*[3, 0+3*w].  The kernels work on
# the integer triples and build the one result scale in ``_lattice``.

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


def _times(t: int, n: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(x1 + y1*w)(x2 + y2*w) on integer coordinates, as w^2 = t*w - n."""
    (x1, y1), (x2, y2) = u, v
    return x1 * x2 - n * y1 * y2, x1 * y2 + y1 * x2 + t * y1 * y2


def _in_triple(a: int, b: int, c: int, x: int, y: int) -> bool:
    return y % c == 0 and (x - y // c * b) % a == 0


def _omega_closed(domain: CoefficientDomain, a: int, b: int, c: int) -> bool:
    t, n = domain.omega_trace, domain.omega_norm
    return (_in_triple(a, b, c, 0, a)
            and _in_triple(a, b, c, -c * n, b + c * t))


class CoeffIdeal(Record):
    """A nonzero fractional ideal of a coefficient domain: scale * [a, b+c*w].

    Over Q and Z the ideal has rank one, a = c = 1 and b = 0, and it is the
    principal ideal (scale); over Q the only one is the unit ideal, scale 1.
    Over a quadratic order [a, b+c*w] is the lattice in normal form.
    """

    __slots__ = ("domain", "scale", "a", "b", "c")

    def __init__(self, domain: CoefficientDomain, scale: int | Fraction,
                 a: int = 1, b: int = 0, c: int = 1):
        _set(self, "domain", domain)
        _set(self, "scale", scale)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def basis_elements(self) -> list:
        if self.domain.kind != "quadratic":
            return [self.scale]
        s = self.scale
        return [QuadElement(self.domain, s * self.a, 0),
                QuadElement(self.domain, s * self.b, s * self.c)]

    def contains(self, value) -> bool:
        v = self.domain.coerce(value)
        if self.domain.kind != "quadratic":
            return self.domain.is_integral_element(divide(v, self.scale))
        # v / scale in [a, b+c*w], both sides times e = p*xd*yd for
        # scale = p/q, v.x = xn/xd and v.y = yn/yd
        p, q, x, y = self.scale.numerator, self.scale.denominator, v.x, v.y
        e = p * x.denominator * y.denominator
        return _in_triple(e * self.a, e * self.b, e * self.c,
                          q * x.numerator * y.denominator,
                          q * y.numerator * x.denominator)

    def norm(self) -> int | Fraction:
        if self.domain.kind != "quadratic":
            return self.scale
        return exact(self.scale * self.scale * self.a * self.c)

    def text(self) -> str:
        if self.domain.kind != "quadratic":
            return f"({self.scale})"
        prefix = "" if self.scale == 1 else f"{self.scale}*"
        w = "w" if self.c == 1 else f"{self.c}*w"
        return f"{prefix}[{self.a}, {self.b}+{w}]"


def unit_ideal(domain: CoefficientDomain) -> CoeffIdeal:
    return CoeffIdeal(domain, 1)


def _rational(domain: CoefficientDomain, values: list) -> CoeffIdeal:
    """The rank-one ideal generated by nonzero rationals: (1) over Q, their
    positive gcd over Z."""
    if domain.kind == "Q":
        return unit_ideal(domain)
    den = lcm(*(v.denominator for v in values))
    return CoeffIdeal(domain, divide(gcd(*(int(v * den) for v in values)), den))


def _lattice(domain: CoefficientDomain, vectors: list[tuple[int, int]],
             num: int = 1, den: int = 1) -> CoeffIdeal:
    """The ideal of a quadratic order spanned over Z by num/den (> 0) times
    the given integer vectors (coordinates: coefficient of 1, of w)."""
    a, b, c = _hnf_int(vectors)
    g = gcd(gcd(a, b), c)
    # num/den * g = p/q in lowest terms: the ideal is 1/q * p*[a, b, c]/g
    k = gcd(num * g, den)
    p, q = num * g // k, den // k
    a, b, c = p * (a // g), p * (b // g), p * (c // g)
    if not _omega_closed(domain, a, b, c):
        raise ValueError("module is not closed under multiplication by w")
    return CoeffIdeal(domain, divide(1, q), a, b, c)


def ideal_from_generators(domain: CoefficientDomain, gens) -> CoeffIdeal:
    """The fractional ideal generated by finitely many elements, not all zero."""
    elems = [e for e in (domain.coerce(g) for g in gens) if e]
    if not elems:
        raise ValueError("at least one nonzero generator is required")
    if domain.kind != "quadratic":
        return _rational(domain, elems)
    t, n = domain.omega_trace, domain.omega_norm
    den = lcm(*(v.denominator for e in elems for v in (e.x, e.y)))
    vectors = []
    for e in elems:                   # e and e*w, times den
        x = e.x.numerator * (den // e.x.denominator)
        y = e.y.numerator * (den // e.y.denominator)
        vectors += [(x, y), _times(t, n, (x, y), (0, 1))]
    return _lattice(domain, vectors, 1, den)


def _require_same_domain(i: CoeffIdeal, j: CoeffIdeal) -> CoefficientDomain:
    if i.domain != j.domain:
        raise MismatchError("ideals live over different domains")
    return i.domain


def mul(i: CoeffIdeal, j: CoeffIdeal) -> CoeffIdeal:
    domain = _require_same_domain(i, j)
    if domain.kind != "quadratic":
        return CoeffIdeal(domain, exact(i.scale * j.scale))
    t, n = domain.omega_trace, domain.omega_norm
    products = [_times(t, n, u, v) for u in ((i.a, 0), (i.b, i.c))
                for v in ((j.a, 0), (j.b, j.c))]
    si, sj = i.scale, j.scale
    return _lattice(domain, products, si.numerator * sj.numerator,
                    si.denominator * sj.denominator)


def colon(i: CoeffIdeal, j: CoeffIdeal) -> CoeffIdeal:
    """(i : j) = every field element x with x*j inside i.

    Over a quadratic order this is i.scale / j.scale times the intersection
    of beta^-1 * [a, b+c*w] over the basis elements beta of j's triple, taken
    as the dual of the sum of the duals.  beta^-1 * [a, b+c*w] has the
    integer rows conj(beta)*a and conj(beta)*(b+c*w) over N(beta); their
    determinant is N(beta)*a*c, so its dual is their integer adjugate over
    a*c, one denominator for every beta.
    """
    domain = _require_same_domain(i, j)
    if domain.kind != "quadratic":
        return CoeffIdeal(domain, divide(i.scale, j.scale))
    t, n = domain.omega_trace, domain.omega_norm
    a, b, c = i.a, i.b, i.c
    duals = []
    for x, y in ((j.a, 0), (j.b, j.c)):
        conj = (x + t * y, -y)
        p, q = _times(t, n, conj, (a, 0))
        r, s = _times(t, n, conj, (b, c))
        duals += [(s, -r), (-q, p)]
    # the duals sum to [a2, b2+c2*w] / (a*c); the meet is its dual,
    # a*c/(a2*c2) times the adjugate rows (c2, -b2) and (0, a2)
    a2, b2, c2 = _hnf_int(duals)
    si, sj = i.scale, j.scale
    return _lattice(domain, [(c2, -b2), (0, a2)],
                    si.numerator * sj.denominator * a * c,
                    si.denominator * sj.numerator * a2 * c2)


def inverse(i: CoeffIdeal) -> CoeffIdeal:
    return colon(unit_ideal(i.domain), i)


def v_closure(i: CoeffIdeal) -> CoeffIdeal:
    return inverse(inverse(i))


def is_divisorial(i: CoeffIdeal) -> bool:
    return v_closure(i) == i


def is_t_invertible(i: CoeffIdeal) -> bool:
    """(i * i^-1)_v = D, the definition, judged as (z : z) = D for z = i^-1.

    Every ideal J has (J_v)^-1 = J^-1, so J_v = D gives J^-1 = D^-1 = D,
    and J^-1 = D gives J_v = (J^-1)^-1 = D: the definition reads
    (D : i * z) = D.  And (D : i * z) = ((D : i) : z) = (z : z), because
    x * i * z lies in D exactly when x * z lies in (D : i) = z."""
    z = inverse(i)
    return colon(z, z) == unit_ideal(i.domain)


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
        # dx >= 0, as v <= vmax gives |disc|·yy^2 <= 4ac; and -t·yy ± root is
        # even, as disc = t^2 - 4n makes root^2 = dx = (t·yy)^2 mod 4
        dx = 4 * target - (-disc) * yy * yy
        root = isqrt(dx)
        if root * root != dx:
            continue
        for sign in (1, -1) if root else (1,):
            xx = (-t * yy + sign * root) // 2
            if (xx - v * b) % a:
                continue
            return domain.element(xx * i.scale, yy * i.scale)
    return None


class QuadForm(Record):
    """A positive definite integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise ValueError("the form must be positive definite")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

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

    def text(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def identity_form(disc: int) -> QuadForm:
    k = disc % 2
    return QuadForm(1, k, (k * k - disc) // 4)


# Largest |D| whose reduced forms are listed: the scan visits about |D|/6 pairs.
MAX_DISCRIMINANT = 1 << 24


def reduced_forms(disc: int) -> list[QuadForm]:
    """All reduced positive definite forms of the given negative discriminant;
    |disc| above ``MAX_DISCRIMINANT`` raises ``CapabilityError``."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("discriminant must be negative and 0 or 1 mod 4")
    if -disc > MAX_DISCRIMINANT:
        raise CapabilityError(f"discriminant {disc} is too large to list its "
                              f"reduced forms (|D| > {MAX_DISCRIMINANT})")
    forms = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a + (a + disc) % 2, a + 1, 2):   # b = disc mod 2
            if (b * b - disc) % (4 * a) == 0:
                form = QuadForm(a, b, (b * b - disc) // (4 * a))
                if form.is_reduced():
                    forms.append(form)
    return forms   # in (a, b, c) order: a and b ascend, c follows from them


@lru_cache(maxsize=256)
def domain_for_discriminant(disc: int) -> CoefficientDomain:
    """The maximal order of a fundamental discriminant; CapabilityError for
    any other negative discriminant.  Cached, as ``compose`` asks on every call."""
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    # fundamental: disc squarefree, or disc = 4d with d squarefree, d != 1 mod 4
    d = disc if disc % 4 == 1 else disc // 4
    if (disc % 4 == 0 and d % 4 == 1) or not _is_squarefree(d):
        raise CapabilityError(f"{disc} is not a fundamental discriminant")
    return CoefficientDomain.maximal_order(d)


def form_to_ideal(domain: CoefficientDomain, form: QuadForm) -> CoeffIdeal:
    """The lattice [a, (-b+sqrt(disc))/2] as an ideal of the order."""
    if domain.kind != "quadratic" or form.discriminant != domain.discriminant:
        raise MismatchError("form discriminant does not match the order")
    t = domain.omega_trace
    bt = -(form.b + t) // 2
    return _lattice(domain, [(form.a, 0), (bt % form.a, 1)])


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


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """The reduced Gauss composite of two forms of one fundamental
    discriminant, on integers (Cohen, GTM 138, Alg. 5.4.7).

    Raises MismatchError for forms of different discriminants and
    CapabilityError when the discriminant is not fundamental.
    """
    if f.discriminant != g.discriminant:
        raise MismatchError("forms have different discriminants")
    domain_for_discriminant(f.discriminant)
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


class ClassGroup(Record):
    """A form class group: the reduced forms, their composition table
    (``table[i][j]`` is the index of forms[i]·forms[j]) and the invariant
    factors d_1 | d_2 | ..., all > 1, of the group as a sum of Z/d_i."""

    __slots__ = ("domain", "forms", "table", "invariants")

    @property
    def order(self) -> int:
        return len(self.forms)

    @property
    def identity_index(self) -> int:
        return self.forms.index(identity_form(self.domain.discriminant))

    def structure(self) -> str:
        return _label(self.invariants)


def _label(invariants: tuple[int, ...]) -> str:
    """The name of the sum of Z/d_i with invariant factors d_1 | d_2 | ..."""
    if not invariants:
        return "trivial"
    if len(invariants) == 1:
        return f"Z/{invariants[0]}Z"
    return (f"abelian of order {prod(invariants)} "
            f"with exponent {invariants[-1]}")


def _smith(matrix: list[list[int]]) -> list[int]:
    """The diagonal d_1 | d_2 | ... (all > 0) of the Smith normal form of a
    nonsingular square integer matrix (Cohen, GTM 138, Alg. 2.4.14)."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    for t in range(n):
        while True:
            # a least nonzero entry of the lower right block becomes the pivot
            _, i, j = min((abs(a[i][j]), i, j) for i in range(t, n)
                          for j in range(t, n) if a[i][j])
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, n):          # row operations clear column t
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):          # column operations clear row t
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1:]):
                continue                       # a remainder: a smaller pivot
            bad = [i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1:])]
            if not bad:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
    return [abs(a[t][t]) for t in range(n)]


def _extension(domain: CoefficientDomain):
    """The form class group by cyclic extension (Cohen, GTM 138, §5.4;
    Buchmann & Schmidt, Math. Comp. 74, 2005): the first reduced form g
    outside the subgroup H built so far adds the cosets g^j·H, one
    composition per new element, until g^k lands in H.  That costs h - 1
    compositions and gives one relation g^k = (an element of H) per
    generator; the Smith normal form of the relations gives the invariant
    factors.

    Returns the reduced forms, the position of each form in the extension
    order, one (n, k, position of g^k) per generator g, and the invariants.
    """
    if domain.kind != "quadratic":
        raise CapabilityError("class groups are computed for quadratic orders only")
    if not domain.maximal:
        raise CapabilityError("class groups are computed for maximal orders only")
    forms = tuple(reduced_forms(domain.discriminant))
    # elems[i + n*j] = g^j·elems[i] (i < n) for the generator g that was
    # added to the first n elements
    elems = [identity_form(domain.discriminant)]
    position = {elems[0]: 0}
    extensions = []
    for g in forms:
        if g in position:
            continue
        n = len(elems)
        power = g
        while power not in position:
            base = len(elems) - n
            for x in [power] + [compose(y, g) for y in elems[base + 1:base + n]]:
                position[x] = len(elems)
                elems.append(x)
            power = compose(power, g)
        extensions.append((n, len(elems) // n, position[power]))
    # relation t: k_t e_t - (coordinates of g_t^k_t, in mixed radix k_1, ...)
    relations = []
    for t, (_, k, p) in enumerate(extensions):
        row = [-(p // n_s % k_s) for n_s, k_s, _ in extensions[:t]]
        relations.append(row + [k] + [0] * (len(extensions) - t - 1))
    invariants = tuple(d for d in _smith(relations) if d > 1)
    return forms, position, extensions, invariants


def class_group(domain: CoefficientDomain) -> ClassGroup:
    """The form class group of a maximal imaginary quadratic order.

    The table is filled from the cyclic extension without composing: the
    element at position x in [n, n·k) is the one at x - n times g, so its
    row is that row followed by the "times g" permutation.  That permutation
    moves each coset g^j·H to g^(j+1)·H, and the last coset wraps through
    g^k, whose row is already built.

    >>> class_group(domain_for_discriminant(-231)).invariants
    (2, 6)
    """
    forms, position, extensions, invariants = _extension(domain)
    h = len(forms)
    at = [0] * h                      # at[x]: the forms index at position x
    for i, f in enumerate(forms):
        at[position[f]] = i
    rows = [tuple(range(h))]          # rows[x]: the row of the form at x
    for n, k, p in extensions:
        # times[i]: the index of forms[i]·g.  A position x in the last coset
        # holds y·g^(k-1) for y at x - (k-1)·n, and y·g^k is the entry of
        # the row of g^k at y
        times = [0] * h
        for x in range(h):
            times[at[x]] = at[x + n] if x // n % k < k - 1 else \
                rows[p][at[x - (k - 1) * n]]
        for x in range(n, n * k):
            rows.append(tuple([times[i] for i in rows[x - n]]))
    table = tuple(rows[position[f]] for f in forms)
    return ClassGroup(domain, forms, table, invariants)


def describe_class_group(domain: CoefficientDomain) -> str:
    """The name of the class group, from its invariants without a table."""
    if domain.kind in ("Q", "Z"):
        return "trivial"
    return _label(_extension(domain)[3])


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
            except CapabilityError:
                raise
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown domain {text!r}")
