"""A graded ring where a finitely generated homogeneous ideal is invertible
while the ring itself is not integrally closed in degree zero.

The ambient ring is Q[x, 1/x, y, z] / (yz - x^2 + x).  Normal forms keep
monomials x^a y^b z^c with b*c = 0 (the relation rewrites yz to x^2 - x);
x-exponents may be negative because one of the six standard generators divides
by x.  Coefficients are exact scalars (``domains.exact``): an int when
integral, else a Fraction.  The distinguished subring has full graded parts in
every nonzero degree but only Q + x(x-1)Q[x] in degree zero, which is what the
membership test enforces.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .domains import exact
from .records import Record, _set


class QuadricElement(Record):
    """Normal-form element: sorted terms ((a, b, c), coeff) with b*c = 0."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple[int, int, int], int | Fraction], ...]):
        _set(self, "terms", terms)

    def __bool__(self):
        return bool(self.terms)

    def _lift(self, other) -> "QuadricElement":
        if isinstance(other, QuadricElement):
            return other
        return from_terms([((0, 0, 0), other)])

    def __add__(self, other):
        return from_terms(self.terms + self._lift(other).terms)

    __radd__ = __add__

    def __neg__(self):
        return QuadricElement(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        return from_terms(((a1 + a2, b1 + b2, c1 + c2), k1 * k2)
                          for (a1, b1, c1), k1 in self.terms
                          for (a2, b2, c2), k2 in o.terms)

    __rmul__ = __mul__

    def graded_components(self) -> dict[int, "QuadricElement"]:
        """Split by degree b - c; each part keeps the sorted normal form."""
        split: dict[int, list] = {}
        for (a, b, c), k in self.terms:
            split.setdefault(b - c, []).append(((a, b, c), k))
        return {d: QuadricElement(tuple(ts)) for d, ts in sorted(split.items())}

    def text(self) -> str:
        parts = []
        for mono, k in self.terms:
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", mono) if e]
            if not factors or abs(k) != 1:
                factors.insert(0, str(abs(k)))
            parts.append(("-" if k < 0 else "+") + "*".join(factors))
        return "".join(parts).removeprefix("+") or "0"


def _accumulate(acc: dict, a: int, b: int, c: int, coeff):
    m = min(b, c)
    if m == 0:
        key = (a, b, c)
        acc[key] = acc.get(key, 0) + coeff
        return
    # (x^2 - x)^m = sum_k C(m,k) (-1)^(m-k) x^(m+k)
    for k in range(m + 1):
        key = (a + m + k, b - m, c - m)
        acc[key] = acc.get(key, 0) + coeff * comb(m, k) * (-1) ** (m - k)


def from_terms(entries) -> QuadricElement:
    """The normal form of a sum of ((a, b, c), coeff) entries: each y^m z^m is
    rewritten to (x^2 - x)^m and equal monomials are summed.

    >>> yz = from_terms([((0, 1, 1), 1.0)])
    >>> yz.terms
    (((1, 0, 0), -1), ((2, 0, 0), 1))
    >>> yz.text()
    '-x+x^2'
    """
    acc: dict[tuple[int, int, int], int | Fraction] = {}
    for (a, b, c), coeff in entries:
        _accumulate(acc, a, b, c, exact(coeff))
    return QuadricElement(tuple(sorted((m, exact(k)) for m, k in acc.items() if k)))


def one() -> QuadricElement:
    return from_terms([((0, 0, 0), 1)])


def x_pow(a: int, coeff=1) -> QuadricElement:
    return from_terms([((a, 0, 0), coeff)])


def y_pow(b: int, coeff=1) -> QuadricElement:
    return from_terms([((0, b, 0), coeff)])


def z_pow(c: int, coeff=1) -> QuadricElement:
    return from_terms([((0, 0, c), coeff)])


def in_subring(u: QuadricElement) -> bool:
    """Membership in the subring with degree-zero part Q + x(x-1)Q[x].

    Every degree needs polynomial x-exponents; the degree-zero polynomial p
    (the terms with b = c = 0) must also satisfy p(0) = p(1), that is, its
    coefficients of positive x-powers must sum to zero.
    """
    return all(a >= 0 for (a, _, _), _ in u.terms) and \
        sum(k for (a, b, c), k in u.terms if b == c and a > 0) == 0


def standard_generators() -> dict[str, QuadricElement]:
    """The six generators: an ideal triple and its inverse triple."""
    x, y, z = x_pow(1), y_pow(1), z_pow(1)
    return {
        "a": x * x * (x - 1),
        "b": x - y,
        "c": x * (x - 1) - x * y,
        "d": one() + z * x_pow(-1),
        "e": z + x - 1,
        "f": x - 1,
    }


def verify_unit_identity() -> dict:
    """Check that the combination of products below collapses to 1, that all
    nine cross products lie in the subring, and that x alone does not; the
    report carries the texts of the six standard generators it used."""
    g = standard_generators()
    x = x_pow(1)
    be_cd = g["b"] * g["e"] - g["c"] * g["d"]
    bd = g["b"] * g["d"]
    bracket = be_cd * be_cd - bd * bd + 2 * bd
    combo = 16 * g["a"] * g["f"] - (4 * x * (x - 1) - 1) * bracket
    checks = [{
        "name": "unit combination normal form",
        "status": "pass" if combo == one() else "fail",
        "detail": combo.text(),
    }]
    for iname in ("a", "b", "c"):
        for jname in ("d", "e", "f"):
            product = g[iname] * g[jname]
            ok = in_subring(product)
            checks.append({
                "name": f"product {iname}*{jname} in subring",
                "status": "pass" if ok else "fail",
                "detail": product.text(),
            })
    checks.append({
        "name": "x outside subring",
        "status": "pass" if not in_subring(x) else "fail",
        "detail": x.text(),
    })
    return {
        "operation": "unit_identity",
        "identity_value": combo.text(),
        "generators": {name: gen.text() for name, gen in g.items()},
        "checks": checks,
        "ok": all(c["status"] == "pass" for c in checks),
    }
