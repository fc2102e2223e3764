"""Grading monoids: finitely generated numerical semigroups and p-power cones.

A numerical semigroup here is stored in normalized form: the gcd of the
user's generators is divided out and remembered as ``scale``, so the stored
monoid always generates the full group of integers.  Its members in [0, size)
are one int bit set, closed under each generator by doubling shifts; the
conductor, minimal generators and Apery sets are read off it, and a window
wider than ``MAX_WINDOW_BITS`` is refused before it is built.  It keeps one
byte per integer below the conductor, 1 at a gap: membership reads one byte,
and the gaps are read off the bytes on demand.  An Apery set is read from the
binary text of one bit set.  The p-power cone is the union of the chains
(1/p^n)Z+ inside the rationals; it only answers whether it is integrally
closed (it is) and refuses ideal arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd

from .errors import CapabilityError, ParseError
from .records import Record, _set

# Widest member window, in bits, that a semigroup or an ideal may need.
MAX_WINDOW_BITS = 1 << 20

# Largest |n| that `_prime_factors` accepts: at most 2^20 trial divisions.
MAX_TRIAL_DIVISION = 1 << 40


def _prime_factors(n: int) -> list[int]:
    """The prime factors of |n| with multiplicity, ascending, by trial
    division; |n| above ``MAX_TRIAL_DIVISION`` raises ``CapabilityError``."""
    if abs(n) > MAX_TRIAL_DIVISION:
        raise CapabilityError(f"{n} is too large to factor (|n| > {MAX_TRIAL_DIVISION})")
    n, factors, f = abs(n), [], 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    return factors + [n] if n > 1 else factors


# Maps each digit of a binary string to 1 for a zero bit and 0 for a one bit.
_ZERO_DIGITS = bytes.maketrans(b"01", b"\x01\x00")


class NumericalSemigroup(Record, compared=("generators", "scale"),
                         hidden=("_gap_bytes",)):
    """A cofinite additive submonoid of Z+, normalized to gcd 1.

    ``generators`` is the minimal generating set of the normalized monoid;
    ``scale`` times the stored elements reproduces the monoid the user asked
    for.  ``conductor`` is the smallest bound above which every integer is a
    member, and equals ``frobenius + 1``.  The generators and the scale
    determine the rest, so equality and hash read only those two.

    The hidden ``_gap_bytes`` hold one byte per integer below the conductor,
    byte i being 1 exactly when i is a gap.  ``contains`` reads one of them;
    ``gaps`` reads them all, building a new tuple on each call, and ``apery``
    reads the set bits of one member bit set from its binary text.
    """

    __slots__ = ("generators", "scale", "conductor", "_gap_bytes")

    def __init__(self, generators: tuple[int, ...], scale: int, conductor: int,
                 _gap_bytes: bytes):
        _set(self, "generators", generators)
        _set(self, "scale", scale)
        _set(self, "conductor", conductor)
        _set(self, "_gap_bytes", _gap_bytes)

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(compress(range(self.conductor), self._gap_bytes))

    @property
    def frobenius(self) -> int:
        return self.conductor - 1

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    def contains(self, g: int) -> bool:
        # a negative index would wrap round to the end of the bytes
        return g >= 0 and (g >= self.conductor or not self._gap_bytes[g])

    def member_bits(self, size: int) -> int:
        """Bitmask of the members in [0, size); bit i is set iff i is a member."""
        return _member_bits(self.generators, size)

    def apery(self, n: int) -> list[int]:
        """The smallest member in each residue class mod n, sorted ascending.

        ``n`` must be a nonzero member of the normalized monoid.
        """
        if n == 0 or not self.contains(n):
            raise ValueError(f"{n} is not a nonzero member of the semigroup")
        members = self.member_bits(self.conductor + n)
        return _wide_bit_positions(members & ~(members << n))

    def is_integrally_closed(self) -> bool:
        return self.conductor == 0

    def text(self) -> str:
        """Normalized generators as a comma list, e.g. ``2,3``."""
        return ",".join(str(g) for g in self.generators)

    def original_text(self) -> str:
        """The generators at the user's original scale."""
        return ",".join(str(g * self.scale) for g in self.generators)


def _bit_positions(bits: int) -> list[int]:
    """The indices of the set bits of a non-negative ``bits``, ascending; one
    step per set bit, so meant for sparse sets such as minimal generators."""
    positions = []
    while bits:
        low = bits & -bits
        positions.append(low.bit_length() - 1)
        bits ^= low
    return positions


def _wide_bit_positions(bits: int) -> list[int]:
    """The indices of the set bits of a non-negative ``bits``, ascending, read
    from its binary text with one C-level search per set bit; for a few set
    bits spread over a wide int, where ``_bit_positions`` pays the width once
    per bit."""
    digits = format(bits, "b")[::-1]
    positions = []
    i = digits.find("1")
    while i >= 0:
        positions.append(i)
        i = digits.find("1", i + 1)
    return positions


@lru_cache(maxsize=512)
def _member_bits(generators: tuple[int, ...], size: int) -> int:
    return _reach(generators, size)[0]


def _reach(gens, size: int) -> tuple[int, list[int]]:
    """Members in [0, size) of the monoid generated by the ascending ``gens``,
    as a bit set, and the gens below size that are not sums of smaller ones."""
    mask = (1 << size) - 1
    reach = 1 & mask
    minimal = []
    for g in gens:
        if g >= size:
            break
        if (reach >> g) & 1:
            continue
        minimal.append(g)
        # after shifts by g, 2g, ..., 2^k g the set is closed under adding
        # every multiple of g up to (2^(k+1) - 1) g
        step = g
        while step < size:
            reach |= (reach << step) & mask
            step <<= 1
    return reach, minimal


def from_generators(raw) -> NumericalSemigroup:
    """Build the numerical semigroup generated by ``raw`` positive integers.

    >>> s = from_generators([4, 6])
    >>> s.generators, s.scale, s.gaps, s.conductor
    ((2, 3), 2, (1,), 2)
    """
    gens = sorted({int(g) for g in raw})
    if not gens:
        raise ValueError("at least one generator is required")
    if gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    scale = gcd(*gens)
    normalized = [g // scale for g in gens]
    # Double the window until its top `multiplicity` bits are all members;
    # every integer past such a run is a member too.  A generator at or past
    # that window is at least conductor + multiplicity, so not minimal.
    m = normalized[0]
    size = min(2 * (normalized[-1] + 1), MAX_WINDOW_BITS)
    while True:
        if size > MAX_WINDOW_BITS or m >= size:
            raise CapabilityError(f"semigroup {','.join(map(str, gens))} needs "
                                  f"a window of more than {MAX_WINDOW_BITS} bits")
        reach, minimal = _reach(normalized, size)
        if reach >> (size - m) == (1 << m) - 1:
            break
        size *= 2
    conductor = (~reach & ((1 << size) - 1)).bit_length()
    # the zero bits below the conductor, read in one C-level pass
    zeros = format(reach, "b")[::-1][:conductor].encode().translate(_ZERO_DIGITS)
    return NumericalSemigroup(tuple(minimal), scale, conductor, zeros)


class MonoidDescriptor(Record):
    """Tagged union over the monoid kinds the tool accepts.

    Exactly one of ``semigroup`` and ``prime`` is set.  Only the finitely
    generated numerical kind supports ideal arithmetic; the p-power cone
    answers whether it is integrally closed and rejects everything else.
    """

    __slots__ = ("semigroup", "prime")

    def __init__(self, semigroup: NumericalSemigroup | None = None,
                 prime: int | None = None):
        if (semigroup is None) == (prime is None):
            raise ValueError("exactly one of semigroup and prime must be given")
        if prime is not None and _prime_factors(prime) != [prime]:
            raise ValueError(f"{prime} is not prime")
        _set(self, "semigroup", semigroup)
        _set(self, "prime", prime)

    @classmethod
    def numerical(cls, sgp: NumericalSemigroup) -> "MonoidDescriptor":
        return cls(semigroup=sgp)

    @classmethod
    def p_power_cone(cls, p: int) -> "MonoidDescriptor":
        return cls(prime=p)

    @property
    def kind(self) -> str:
        return "numerical" if self.semigroup is not None else "p_power_cone"

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
    """Parse a comma-separated list of at least one integer; a blank part,
    as in ``2,,3`` or ``2,3,``, is refused."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"expected a comma-separated integer list, got {text!r}") from exc


def parse_monoid(text: str) -> MonoidDescriptor:
    """Parse ``2,3`` as a numerical semigroup or ``p^inf:2`` as a p-power cone."""
    text = text.strip()
    try:
        if text.startswith("p^inf:"):
            try:
                p = int(text[len("p^inf:"):])
            except ValueError as exc:
                raise ParseError(f"bad p-power cone spec {text!r}") from exc
            return MonoidDescriptor.p_power_cone(p)
        return MonoidDescriptor.numerical(from_generators(parse_int_list(text)))
    except (CapabilityError, ParseError):
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
