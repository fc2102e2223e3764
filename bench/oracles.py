"""Reference answers that share no code or representation with sgclass.

Semigroup membership is a big-integer bitmask closed under adding each
generator; ideals are membership predicates with explicit bounds; antichains
are counted by include/exclude recursion on bitmasks; class numbers come from
the Dirichlet class-number formula with a Kronecker symbol written here.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


# --- numerical semigroups ------------------------------------------------------

def _closure_bits(gens, limit: int) -> int:
    """Bit x is set iff x < limit is a non-negative combination of ``gens``."""
    mask = (1 << limit) - 1
    bits = 1
    for g in gens:
        step = g
        while step < limit:
            bits |= (bits << step) & mask
            step *= 2
    return bits


class Semigroup:
    """Membership of the numerical semigroup generated by coprime ``gens``."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        total = 0
        for g in gens:
            total = gcd(total, g)
        if total != 1:
            raise ValueError(f"oracle needs coprime generators, got {gens}")
        # Some pair must be coprime: the Frobenius number of a coprime pair
        # a, b is a*b - a - b, which bounds the Frobenius number of the set.
        bounds = [a * b for i, a in enumerate(gens) for b in gens[i + 1:]
                  if gcd(a, b) == 1]
        if gens[0] == 1:
            bounds.append(1)
        if not bounds:
            raise ValueError(f"oracle needs a coprime generator pair, got {gens}")
        self.limit = min(bounds) + 1
        self.bits = _closure_bits(gens, self.limit)
        self.gaps = [x for x in range(self.limit) if not (self.bits >> x) & 1]
        self.frobenius = self.gaps[-1] if self.gaps else -1
        self.conductor = self.frobenius + 1
        self.multiplicity = gens[0]
        self.minimal_generators = [
            g for g in gens
            if not (_closure_bits([h for h in gens if h != g], g + 1) >> g) & 1]

    def member(self, x: int) -> bool:
        return x >= self.conductor or (x >= 0 and bool((self.bits >> x) & 1))

    def apery(self, n: int) -> list[int]:
        smallest = {}
        x = 0
        while len(smallest) < n:
            if self.member(x):
                smallest.setdefault(x % n, x)
            x += 1
        return sorted(smallest.values())


@lru_cache(maxsize=None)
def semigroup(gens: tuple[int, ...]) -> Semigroup:
    return Semigroup(gens)


# --- the exhaustive sweep -------------------------------------------------------

@lru_cache(maxsize=None)
def antichain_count(gens: tuple[int, ...], bound: int) -> int:
    """Nonempty antichains of [0, bound] under x <= y iff y - x is a member.

    These are exactly the canonical generating sets the sweep must examine.
    """
    sgp = semigroup(gens)
    n = bound + 1
    # later[i]: the j > i incomparable with i
    later = [sum(1 << j for j in range(i + 1, n) if not sgp.member(j - i))
             for i in range(n)]

    @lru_cache(maxsize=None)
    def count(allowed: int) -> int:
        if not allowed:
            return 1
        low = (allowed & -allowed).bit_length() - 1
        rest = allowed & ~(1 << low)
        return count(rest) + count(rest & later[low])

    return count((1 << n) - 1) - 1


# --- fractional ideals as membership predicates --------------------------------

class SetIdeal:
    """{x : member(x)}, known to be empty below ``lo`` and full from ``hi`` on."""

    def __init__(self, sgp: Semigroup, member, lo: int, hi: int):
        self.sgp, self.member, self.lo, self.hi = sgp, member, lo, hi

    def generators(self) -> list[int]:
        """Members not reachable from a smaller member by a nonzero step."""
        steps = [s for s in range(1, self.hi + self.sgp.multiplicity - self.lo + 1)
                 if self.sgp.member(s)]
        return [x for x in range(self.lo, self.hi + self.sgp.multiplicity)
                if self.member(x)
                and not any(self.member(x - s) for s in steps if x - s >= self.lo)]


def generated(sgp: Semigroup, gens) -> SetIdeal:
    gens = sorted(set(gens))
    return SetIdeal(sgp, lambda x: any(sgp.member(x - e) for e in gens),
                    gens[0], gens[-1] + sgp.conductor)


def ideal_sum(sgp: Semigroup, ygens, zgens) -> SetIdeal:
    return generated(sgp, [y + z for y in ygens for z in zgens])


def ideal_colon(sgp: Semigroup, y: SetIdeal, zgens) -> SetIdeal:
    """(y : z) = every x with x + z inside y, tested on z's generators."""
    zlo = min(zgens)
    return SetIdeal(sgp, lambda x: all(y.member(x + z) for z in zgens),
                    y.lo - zlo, y.hi - zlo)


def ideal_inverse(sgp: Semigroup, ygens) -> SetIdeal:
    return ideal_colon(sgp, generated(sgp, [0]), ygens)


def ideal_v(sgp: Semigroup, ygens) -> SetIdeal:
    return ideal_inverse(sgp, ideal_inverse(sgp, ygens).generators())


# --- imaginary quadratic class numbers -----------------------------------------

def kronecker(a: int, n: int) -> int:
    """The Kronecker symbol (a/n) for n > 0."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def class_number(disc: int) -> int:
    """h(D) = -(w / 2|D|) * sum_{a=1}^{|D|-1} a (D/a) for fundamental D < 0."""
    n = -disc
    w = {3: 6, 4: 4}.get(n, 2)
    total = sum(a * kronecker(disc, a) for a in range(1, n))
    h, rem = divmod(-w * total, 2 * n)
    if rem or h <= 0:
        raise ValueError(f"class-number formula is not integral at {disc}")
    return h


def group_table_problems(forms, table, identity: int, disc: int) -> list[str]:
    """Why ``forms``/``table`` is not the class group at ``disc`` (empty if it is).

    The forms must be distinct reduced forms of discriminant ``disc``, as many
    as the class-number formula says, and the table a commutative Latin square
    whose identity row and column are the identity map.
    """
    h = class_number(disc)
    problems = []
    if len(forms) != h:
        problems.append(f"{len(forms)} forms, class-number formula gives {h}")
    if len(set(forms)) != len(forms):
        problems.append("repeated forms")
    for a, b, c in forms:
        reduced = abs(b) <= a <= c and not (b < 0 and (-b == a or a == c))
        if b * b - 4 * a * c != disc or not reduced:
            problems.append(f"({a},{b},{c}) is not a reduced form of {disc}")
    full = list(range(len(forms)))
    if [sorted(row) for row in table] != [full] * len(forms):
        problems.append("a row is not a permutation")
    if [sorted(col) for col in zip(*table)] != [full] * len(forms):
        problems.append("a column is not a permutation")
    if list(table[identity]) != full or [row[identity] for row in table] != full:
        problems.append("identity row or column is not the identity")
    if any(table[i][j] != table[j][i] for i in full for j in full):
        problems.append("table is not commutative")
    return problems


def expected_structure(table, identity: int) -> str:
    """The label the order and exponent of the table determine."""
    h = len(table)
    if h == 1:
        return "trivial"
    exponent = 1
    for x in range(h):
        k, cur = 1, x
        while cur != identity:
            cur = table[cur][x]
            k += 1
        exponent = exponent * k // gcd(exponent, k)
    if exponent == h:
        return f"Z/{h}Z"
    return f"abelian of order {h} with exponent {exponent}"
