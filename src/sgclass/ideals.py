"""Fractional ideals of a numerical semigroup, as minimal generators and members.

A fractional ideal Y of the monoid G is a set of integers with Y + G inside Y
that is bounded below and eventually contains every integer.  It is stored as
its minimal generators and one int of members, bit i set iff min + i belongs.
Its ones run to infinity, so the int is negative, and equal sets give equal
ints: structural equality is set equality with no bound to canonicalize.
Operations are arithmetic on member bit sets (sum: OR of one summand's members
shifted by the other's generators, colon: AND of shifted members) and one
canonicalizer reads the minimal generators of a bit set B as B & ~OR(B << g)
over the monoid's generators g.  Divisoriality and t-invertibility are judged
on raw bits with no intermediate ideal, from the bits z of (S : Y), the AND of
S's members shifted by Y's generators: divisoriality with z's generator
positions, t-invertibility with S's pseudo-Frobenius numbers alone.
Definitions as in Rosales & Garcia-Sanchez, *Numerical Semigroups* (2009).
``bench/worker.py`` reads ``semigroups._member_bits.cache_info()`` and
``unit_ideal.cache_info()`` on every run and expects ``import sgclass`` to load
``semigroups``, ``ideals`` and ``domains``: both caches and the imports stay.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from .errors import CapabilityError, MismatchError
from .records import Record
from .semigroups import MAX_WINDOW_BITS, NumericalSemigroup, _bit_positions


class FractionalIdeal(Record, hidden=("members",)):
    # members: bit i set iff min + i is a member; negative
    __slots__ = ("monoid", "min_generators", "members")

    @property
    def min(self) -> int:
        return self.min_generators[0]

    @property
    def stable_bound(self) -> int:  # every integer from here on is a member
        return self.min_generators[-1] + self.monoid.conductor

    def contains(self, g: int) -> bool:
        if g < self.min:
            return False
        return bool((self.members >> (g - self.min)) & 1)

    def shift(self, offset: int) -> "FractionalIdeal":
        return FractionalIdeal(self.monoid, tuple(m + offset for m in self.min_generators),
                               self.members)

    def text(self) -> str:
        gens = ",".join(str(m) for m in self.min_generators)
        return f"gens={gens}@sgp={self.monoid.text()}"

    def to_json(self) -> dict:
        return {
            "min": self.min,
            "generators": list(self.min_generators),
            "divisorial": is_divisorial(self),
            "invertible": is_t_invertible(self),
        }


def ideal_from_generators(monoid: NumericalSemigroup, gens) -> FractionalIdeal:
    """The fractional ideal generated by a finite nonempty set of integers."""
    cleaned = sorted({int(g) for g in gens})
    if not cleaned:
        raise ValueError("a fractional ideal needs at least one generator")
    lo, hi = cleaned[0], cleaned[-1] + monoid.conductor
    _require_window(monoid, lo, cleaned[-1])
    gamma = monoid.member_bits(hi - lo)
    bits = 0
    for f in cleaned:
        bits |= gamma << (f - lo)
    return _canonical(monoid, lo, bits | (-1 << (hi - lo)))


def _require_window(monoid: NumericalSemigroup, lo: int, top: int) -> None:
    """Refuse an ideal with generators from lo to top whose member window,
    top + conductor - lo bits, is wider than ``MAX_WINDOW_BITS``."""
    if top + monoid.conductor - lo > MAX_WINDOW_BITS:
        raise CapabilityError(f"generators {lo}..{top} need a window "
                              f"of more than {MAX_WINDOW_BITS} bits")


def _generator_positions(monoid: NumericalSemigroup, bits: int) -> list[int]:
    """The positions of the minimal generators of the ideal whose members are
    the set bits of bits (negative, the set's infinite tail included)."""
    covered = 0
    for g in monoid.generators:
        covered |= bits << g
    return _bit_positions(bits & ~covered)


def _canonical(monoid: NumericalSemigroup, lo: int, bits: int) -> FractionalIdeal:
    """The ideal {lo + i : bit i of bits}."""
    gens = [lo + i for i in _generator_positions(monoid, bits)]
    return FractionalIdeal(monoid, tuple(gens), bits >> (gens[0] - lo))


@lru_cache(maxsize=128)
def unit_ideal(monoid: NumericalSemigroup) -> FractionalIdeal:
    """The monoid itself, viewed as the ideal generated by 0."""
    return ideal_from_generators(monoid, [0])


def _require_same_monoid(y: FractionalIdeal, z: FractionalIdeal) -> NumericalSemigroup:
    if y.monoid != z.monoid:
        raise MismatchError("ideals live over different semigroups")
    return y.monoid


def minkowski_sum(y: FractionalIdeal, z: FractionalIdeal) -> FractionalIdeal:
    """y + z = the join of y + e over z's generators e."""
    monoid = _require_same_monoid(y, z)
    _require_window(monoid, y.min + z.min,
                    y.min_generators[-1] + z.min_generators[-1])
    acc = 0
    for e in z.min_generators:
        acc |= y.members << (e - z.min)
    return _canonical(monoid, y.min + z.min, acc)


def _colon_bits(members: int, gens) -> int:
    """The members of (Y : Z) as bits from min(Y) - gens[0], not canonicalized,
    for Y's member bits and Z's ascending generators."""
    acc = -1
    for e in gens:
        acc &= members >> (e - gens[0])
    return acc


def colon(y: FractionalIdeal, z: FractionalIdeal) -> FractionalIdeal:
    """(y : z) = every g with g + z inside y, the meet of y - e over z's generators e."""
    monoid = _require_same_monoid(y, z)
    return _canonical(monoid, y.min - z.min, _colon_bits(y.members, z.min_generators))


def inverse(y: FractionalIdeal) -> FractionalIdeal:
    return colon(unit_ideal(y.monoid), y)


def v_closure(y: FractionalIdeal) -> FractionalIdeal:
    return inverse(inverse(y))


def t_closure(y: FractionalIdeal) -> FractionalIdeal:
    """The t-closure, the union of the v-closures of the finitely generated
    subideals; it is the v-closure, because y itself is finitely generated
    (Halter-Koch, *Ideal Systems*, 1998)."""
    return v_closure(y)


def _inverse_bits(unit: FractionalIdeal, gens) -> tuple[int, list[int]]:
    """The members z of (S : Y) as bits from -gens[0], for the Y that the
    ascending gens generate, and the positions in z of its minimal
    generators, ascending.  S is ``unit``; no ideal is built."""
    z = _colon_bits(unit.members, gens)
    return z, _generator_positions(unit.monoid, z)


def _divisorial(unit: FractionalIdeal, members: int, positions: list[int]) -> bool:
    """y_v = y for the ideal y with ``members``, from the generator positions
    p of its inverse: y_v = (S : y^-1) has the bits AND(S >> (p - p[0])) from
    y.min - p[0], and y's bits from there are members << p[0]."""
    return _colon_bits(unit.members, positions) == members << positions[0]


def is_divisorial(y: FractionalIdeal) -> bool:
    unit = unit_ideal(y.monoid)
    return _divisorial(unit, y.members, _inverse_bits(unit, y.min_generators)[1])


def is_principal(y: FractionalIdeal) -> bool:
    return len(y.min_generators) == 1


def _pseudo_frobenius(unit: FractionalIdeal) -> list[int]:
    """PF(S), ascending: the gaps f with f + s in S for every nonzero s in S,
    the set bits of ~S & AND(S >> g) over S's generators g, since f + g in S
    for each generator g gives f + s in S for every sum s of them."""
    acc = ~unit.members
    for g in unit.monoid.generators:
        acc &= unit.members >> g
    return _bit_positions(acc)


def _t_invertible(z: int, pf: list[int]) -> bool:
    """(z : z) = S for the member bits z of an ideal, read from any
    minimum: False as soon as some f in ``pf`` = PF(S) has f + z inside z,
    that is (z << f) & ~z == 0.

    (z : z) contains S and nothing negative, since z is bounded below, so
    its elements outside S are gaps and finitely many.  If (z : z) is larger
    than S, let g be its largest element outside S.  For every nonzero s in
    S, g + s lies in (z : z) and is larger than g, so it lies in S: g is in
    PF(S), and g + z lies inside z.  Conversely an f in PF(S) with f + z
    inside z lies in (z : z) and not in S.  A shift of z moves every f + z
    with it, so the verdict does not depend on where the bits of z start."""
    outside = ~z
    for f in pf:
        if not (z << f) & outside:
            return False
    return True


def is_t_invertible(y: FractionalIdeal) -> bool:
    """(y + y^-1)_v = S, the definition, judged as (z : z) = S for z = y^-1.

    Every ideal I has (I_v)^-1 = I^-1, so I_v = S gives I^-1 = S^-1 = S,
    and I^-1 = S gives I_v = (I^-1)^-1 = S: the definition reads
    (S : y + z) = S.  And (S : y + z) = ((S : y) : z) = (z : z), because
    g + y + z lies in S exactly when g + z lies in (S : y) = z.  The judge
    (``_t_invertible``) tests (z : z) = S on the bits of z, read from
    -min y, against S's pseudo-Frobenius numbers, and builds no ideal.

    >>> from sgclass.semigroups import from_generators
    >>> s = from_generators([2, 3])
    >>> is_t_invertible(ideal_from_generators(s, [0, 1]))
    False
    >>> is_t_invertible(ideal_from_generators(s, [0]))
    True
    """
    unit = unit_ideal(y.monoid)
    return _t_invertible(_colon_bits(unit.members, y.min_generators),
                         _pseudo_frobenius(unit))


def class_reduce(y: FractionalIdeal) -> FractionalIdeal:
    """The divisorial class of y as its representative, the v-closure shifted
    to minimum 0.  It is t-invertible exactly when it is trivial: every
    t-invertible ideal of a numerical semigroup is principal
    (``graded.monoid_class_group_status``)."""
    v = v_closure(y)
    return v.shift(-v.min)


def class_is_trivial(rep: FractionalIdeal) -> bool:
    return rep == unit_ideal(rep.monoid)


def _class_keys(monoid: NumericalSemigroup, bound: int):
    """Yield (top, keys) for top 0 and each gap top up to bound, keys being
    the antichains that contain 0 and top, in lexicographic order: the
    normalized classes (minimum 0) whose largest minimal generator is top.
    Every other top has none, so no top past the Frobenius number is visited.
    Candidate sets are gap bit sets: with G the gaps, the elements e that may
    lie between 0 and ``top`` start as those with e and top - e in G, and
    choosing e keeps only G << e."""
    if bound < 0:
        return
    c = monoid.conductor
    window = (1 << c) - 1
    gaps = window ^ monoid.member_bits(c)

    def extend(prefix: tuple[int, ...], top: int, candidates: int, out: list) -> None:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            e = low.bit_length() - 1
            extend(prefix + (e,), top, candidates & (gaps << e), out)
        out.append(prefix + (top,))

    yield 0, [(0,)]
    below = 0  # bit e set iff top - e is a gap, kept to e < c: gaps lie below c
    for top in range(1, min(bound, c - 1) + 1):
        below = ((below << 1) | ((gaps >> top) & 1)) & window
        if below & 1:
            keys = []
            extend((0,), top, below & gaps, keys)
            yield top, keys


def normalized_classes(monoid: NumericalSemigroup, bound: int):
    """Yield the ideal of each class key with top at most ``bound``, in the
    order of ``canonical_generator_sets``: every fractional ideal is a shift
    of exactly one of them, the one with minimum 0.  A key is an antichain
    with minimum 0, so it is its own set of minimal generators, and its
    members are the OR of S's member bits shifted by each generator."""
    unit = unit_ideal(monoid).members
    for top, keys in _class_keys(monoid, bound):
        _require_window(monoid, 0, top)
        for key in keys:
            members = 0
            for f in key:
                members |= unit << f
            yield FractionalIdeal(monoid, key, members)


def judged_classes(monoid: NumericalSemigroup, bound: int):
    """Yield (y, divisorial, t-invertible) for each ideal y of
    ``normalized_classes``, both verdicts from one ``_inverse_bits``: the
    generator positions of its z for ``_divisorial``, z for ``_t_invertible``."""
    unit = unit_ideal(monoid)
    pf = _pseudo_frobenius(unit)
    for y in normalized_classes(monoid, bound):
        z, positions = _inverse_bits(unit, y.min_generators)
        yield y, _divisorial(unit, y.members, positions), _t_invertible(z, pf)


def _shift_blocks(keyed, bound: int):
    """Yield the order of ``canonical_generator_sets`` up to ``bound`` as
    blocks (first, end, groups), from the (top, keys) lists of
    ``_class_keys``.  The antichains with maximum t and minimum s are the
    class keys with maximum t - s shifted by s, so each top t lists its own
    keys, then the keys of each earlier top k that has keys, shifted by
    t - k.  Every top in [first, end), from one key top to the next, so lists
    the same groups (k, keys) in the same order, latest k first."""
    for i, (first, _) in enumerate(keyed):
        end = keyed[i + 1][0] if i + 1 < len(keyed) else bound + 1
        yield first, end, keyed[i::-1]


def canonical_generator_sets(monoid: NumericalSemigroup, bound: int):
    """Yield every minimal generating set with generators in [0, bound].

    These are exactly the antichains of the divisibility order of the monoid:
    sets where no two elements differ by a nonzero member.  Order: smallest
    maximum first, then lexicographic, so the sweep is deterministic.  Each
    antichain is a class key shifted, so the walk lists the keys of each top
    with keys, shifted up to every later top; it builds no ideal.
    """
    for first, end, groups in _shift_blocks(list(_class_keys(monoid, bound)), bound):
        for top in range(first, end):
            for k, keys in groups:
                for key in keys:
                    yield tuple(g + top - k for g in key)


def class_key(gens: tuple[int, ...]) -> tuple[int, ...]:
    """The minimal generators of the shift to minimum 0 of the ideal that the
    antichain ``gens`` generates: equal keys mean shifted ideals."""
    return tuple(g - gens[0] for g in gens)


def search_nonprincipal_t_invertible(monoid: NumericalSemigroup, bound: int,
                                     progress=None) -> FractionalIdeal | None:
    """Sweep every canonical ideal with generators in [0, bound].

    Returns the first non-principal t-invertible ideal in the deterministic
    enumeration order, or None when the sweep is exhaustive and empty-handed.
    Every t-invertible ideal of a numerical semigroup is principal
    (``graded.monoid_class_group_status``), so a found ideal is a bug in the
    kernel that judges it: the sweep checks the judge of ``is_t_invertible``
    against that theorem.
    Each class is judged once, at its key (``_class_keys``), on the bits of
    its inverse against S's pseudo-Frobenius numbers (``_t_invertible``); it
    reads no generator of the inverse, and its shifts are counted, not built:
    t-invertibility is shift-invariant, a theorem and not a shortcut, since
    inverse(y + n) = inverse(y) - n makes (y + n) + inverse(y + n) equal
    y + inverse(y), and so its v-closure.  A key comes before its shifts in
    the order, so the first witness is a key, and it is the only ideal the
    sweep builds.
    ``progress(examined, generators)`` is called every 250 antichains and
    once with None at the end; the calls are found by index in the blocks of
    ``_shift_blocks`` and stop at the witness.  A sweep costs one judgment
    per class, whatever the bound, and one step per progress call.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    unit = unit_ideal(monoid)
    members, pf = unit.members, _pseudo_frobenius(unit)
    keyed, witness = [], None
    for top, keys in _class_keys(monoid, bound):
        _require_window(monoid, 0, top)
        witness = next((key for key in keys if len(key) > 1
                        and _t_invertible(_colon_bits(members, key), pf)), None)
        keyed.append((top, keys if witness is None else keys[:keys.index(witness) + 1]))
        if witness is not None:
            break
    if progress is not None:
        _replay_progress(keyed, bound, witness is not None, progress)
    return None if witness is None else ideal_from_generators(monoid, witness)


def _replay_progress(keyed, bound: int, found: bool, progress) -> None:
    """Call ``progress(n, antichain)`` for every 250th antichain n of the
    sweep's order, then ``progress(count, None)`` unless a witness ends the
    sweep: its walk then stops at the witness, the last of the first group of
    the last top in ``keyed``.  Inside a block every top lists the same
    groups, so the n-th antichain is found by division, not walked."""
    blocks = list(_shift_blocks(keyed, bound))
    if found:
        first, _, groups = blocks[-1]
        blocks[-1] = first, first + 1, groups[:1]
    examined = 0
    for first, end, groups in blocks:
        starts = list(accumulate((len(keys) for _, keys in groups), initial=0))
        size = starts.pop()
        for n in range(examined // 250 * 250 + 250, examined + (end - first) * size + 1, 250):
            step, i = divmod(n - examined - 1, size)
            g = bisect_right(starts, i) - 1
            k, keys = groups[g]
            progress(n, tuple(e + first + step - k for e in keys[i - starts[g]]))
        examined += (end - first) * size
    if not found:
        progress(examined, None)
