"""Grading monoids: finitely generated numerical semigroups and p-power cones.

A numerical semigroup here is stored in normalized form: the gcd of the
user's generators is divided out and remembered as ``scale``, so the stored
monoid always generates the full group of integers.  The p-power cone is the
union of the chains (1/p^n)Z+ inside the rationals; it supports membership
and closure queries only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import CapabilityError, ParseError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class NumericalSemigroup:
    """A cofinite additive submonoid of Z+, normalized to gcd 1.

    ``generators`` is the minimal generating set of the normalized monoid;
    ``scale`` times the stored elements reproduces the monoid the user asked
    for.  ``conductor`` is the smallest bound above which every integer is a
    member, and equals ``frobenius + 1``.
    """

    generators: tuple[int, ...]
    scale: int
    gaps: tuple[int, ...]
    frobenius: int
    conductor: int
    _gap_set: frozenset[int] = field(repr=False, compare=False, hash=False)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    def contains(self, g: int) -> bool:
        if g < 0:
            return False
        return g >= self.conductor or g not in self._gap_set

    def member_bits(self, size: int) -> int:
        """Bitmask of the members in [0, size); bit i is set iff i is a member."""
        return _member_bits(self.generators, self.conductor, frozenset(self.gaps), size)

    def apery(self, n: int) -> list[int]:
        """The smallest member in each residue class mod n, sorted ascending.

        ``n`` must be a nonzero member of the normalized monoid.
        """
        if n == 0 or not self.contains(n):
            raise ValueError(f"{n} is not a nonzero member of the semigroup")
        smallest: dict[int, int] = {}
        k = 0
        while len(smallest) < n:
            if self.contains(k):
                smallest.setdefault(k % n, k)
            k += 1
        return sorted(smallest.values())

    def is_integrally_closed(self) -> bool:
        return not self.gaps

    def text(self) -> str:
        """Normalized generators as a comma list, e.g. ``2,3``."""
        return ",".join(str(g) for g in self.generators)

    def original_text(self) -> str:
        """The generators at the user's original scale."""
        return ",".join(str(g * self.scale) for g in self.generators)


@lru_cache(maxsize=512)
def _member_bits(generators: tuple[int, ...], conductor: int, gap_set: frozenset[int], size: int) -> int:
    bits = 0
    for i in range(min(size, conductor)):
        if i not in gap_set:
            bits |= 1 << i
    if size > conductor:
        bits |= ((1 << (size - conductor)) - 1) << conductor
    return bits


def _gaps_and_conductor(gens: list[int]) -> tuple[list[int], int]:
    # Grow the DP window until a full run of `multiplicity` consecutive
    # members appears; everything at or beyond that run is then a member.
    m = gens[0]
    bound = 2 * (gens[-1] + 1)
    while True:
        reach = bytearray(bound)
        reach[0] = 1
        for i in range(bound):
            if reach[i]:
                for g in gens:
                    j = i + g
                    if j < bound:
                        reach[j] = 1
        run = 0
        conductor = -1
        for i in range(bound):
            run = run + 1 if reach[i] else 0
            if run == m:
                conductor = i - m + 1
                break
        if conductor >= 0:
            gaps = [i for i in range(conductor) if not reach[i]]
            return gaps, conductor
        bound *= 2


def _minimal_generators(gens: list[int], gap_set: set[int], conductor: int) -> list[int]:
    def member(g: int) -> bool:
        return g >= 0 and (g >= conductor or g not in gap_set)

    m = gens[0]
    apery = {}
    k = 0
    while len(apery) < m:
        if member(k):
            apery.setdefault(k % m, k)
        k += 1
    candidates = sorted({m} | {w for w in apery.values() if w})
    minimal = []
    for w in candidates:
        if any(member(s) and member(w - s) for s in range(m, w - m + 1)):
            continue
        minimal.append(w)
    return minimal


def from_generators(raw) -> NumericalSemigroup:
    """Build the numerical semigroup generated by ``raw`` positive integers.

    >>> from_generators([4, 6]).generators
    (2, 3)
    """
    gens = sorted({int(g) for g in raw})
    if not gens:
        raise ValueError("at least one generator is required")
    if gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    scale = 0
    for g in gens:
        scale = gcd(scale, g)
    normalized = sorted({g // scale for g in gens})
    gaps, conductor = _gaps_and_conductor(normalized)
    gap_set = set(gaps)
    minimal = _minimal_generators(normalized, gap_set, conductor)
    frobenius = conductor - 1 if conductor > 0 else -1
    return NumericalSemigroup(
        generators=tuple(minimal),
        scale=scale,
        gaps=tuple(gaps),
        frobenius=frobenius,
        conductor=conductor,
        _gap_set=frozenset(gap_set),
    )


@dataclass(frozen=True)
class MonoidDescriptor:
    """Tagged union over the monoid kinds the tool accepts.

    Exactly one of ``semigroup`` and ``prime`` is set.  Only the finitely
    generated numerical kind supports ideal arithmetic; the p-power cone
    answers membership and closure questions and rejects everything else.
    """

    semigroup: NumericalSemigroup | None = None
    prime: int | None = None

    def __post_init__(self):
        if (self.semigroup is None) == (self.prime is None):
            raise ValueError("exactly one of semigroup and prime must be given")
        if self.prime is not None and not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

    @classmethod
    def numerical(cls, sgp: NumericalSemigroup) -> "MonoidDescriptor":
        return cls(semigroup=sgp)

    @classmethod
    def p_power_cone(cls, p: int) -> "MonoidDescriptor":
        return cls(prime=p)

    @property
    def kind(self) -> str:
        return "numerical" if self.semigroup is not None else "p_power_cone"

    @property
    def supports_ideal_arithmetic(self) -> bool:
        return self.semigroup is not None

    def contains(self, value) -> bool:
        q = Fraction(value)
        if self.semigroup is not None:
            scaled = q / self.semigroup.scale
            if scaled.denominator != 1:
                return False
            return self.semigroup.contains(int(scaled))
        if q < 0:
            return False
        den = q.denominator
        while den % self.prime == 0:
            den //= self.prime
        return den == 1

    def is_integrally_closed(self) -> bool:
        if self.semigroup is not None:
            return self.semigroup.is_integrally_closed()
        return True

    def require_ideal_arithmetic(self) -> NumericalSemigroup:
        if self.semigroup is None:
            raise CapabilityError("ideal arithmetic is not supported for the p-power cone")
        return self.semigroup

    def text(self) -> str:
        if self.semigroup is not None:
            return self.semigroup.original_text()
        return f"p^inf:{self.prime}"


def parse_int_list(text: str) -> list[int]:
    """Parse a comma-separated list of at least one integer; blank parts are
    skipped, so ``2,,3`` reads as ``2,3``."""
    message = f"expected a comma-separated integer list, got {text!r}"
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(message) from exc
    if not values:
        raise ParseError(message)
    return values


def parse_monoid(text: str) -> MonoidDescriptor:
    """Parse ``2,3`` as a numerical semigroup or ``p^inf:2`` as a p-power cone."""
    text = text.strip()
    if text.startswith("p^inf:"):
        try:
            p = int(text[len("p^inf:"):])
        except ValueError as exc:
            raise ParseError(f"bad p-power cone spec {text!r}") from exc
        if not _is_prime(p):
            raise ParseError(f"{p} is not prime")
        return MonoidDescriptor.p_power_cone(p)
    gens = parse_int_list(text)
    try:
        return MonoidDescriptor.numerical(from_generators(gens))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
