"""Exact arithmetic in the parameters q, t.

Coefficients of Macdonald P-polynomials live in Q(q,t), but every denominator
that occurs in the alcove-walk formula or the nonattacking-filling formula is
a product of binomials 1 - q^a t^b.  Keeping denominators as multisets of such
factors turns exact reduction into a sequence of exact-division tests and
avoids general multivariate gcd.

Three layers:

  * Laurent polynomials in (q, t) over the integers, as sparse dicts mapping
    exponent pairs (a, b) to nonzero coefficients.  Negative exponents are
    allowed: individual walk terms carry t raised to a half-difference of
    Coxeter lengths, which can be negative.
  * RationalQT: a Laurent numerator over a multiset of binomial factors, kept
    in the canonical form where no factor divides the numerator exactly.
  * SymFun: a finite map from monomial content vectors to RationalQT
    coefficients, plus an accumulator used to collect formula terms per
    content over a fixed common denominator.  The accumulator keeps each
    content's lifted sum as one packed Python int (Kronecker substitution):
    q^a t^b is a signed digit at slot a * span + (b - t_lo) of a
    ``PackedWindow``.  The window is fixed once per computation from bounds
    that each formula proves next to its terms (q >= 0, a t range and a term
    count: ``ramyip.walk_window``, ``fillings.filling_window``): ``span``
    covers the t range plus the largest t degree a lift can add, so no row
    wraps into the next, and the digit width covers the term count times the
    lifts' growth, so no digit overflows.  Sums of packed ints, and products
    with a binomial (a shift and a subtraction), are therefore exactly the
    dict arithmetic, done at C speed.  Each distinct sum is unpacked and
    reduced once: the contents of one S_n orbit end with equal sums, since
    P_lambda is symmetric, and share one reduced coefficient object.
    ``PackedWindow.lift`` is the one lift to the shared denominator and
    ``PackedWindow.offset`` the one placement of a monomial, checked
    against the window: the accumulator and the per-class check in
    ``compression`` both lift and place through them.

Every term of both formulas has the shape

    q^a t^b * prod_{f in D} (1 - t) / (1 - q^{f_a} t^{f_b})

for a sub-multiset D of a fixed denominator, so a term is passed around
"bare": the monomial q^a t^b plus the multiset D, with the factor
(1 - t)^|D| left implicit.  ``term_value`` turns one bare term into its
reduced RationalQT; ``ContentAccumulator`` sums many of them.  It builds
the lift of each pending D once, shifts it once per distinct monomial, and
adds the shifted copy into every content that holds that monomial over D, so
a sum costs one big-int addition per (D, content, monomial) entry.

All values are treated as immutable; every operation returns fresh objects,
so they are safe to share across worker processes and between contents.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .chain import InternalInvariantError

Monomial = tuple[int, int]            # (a, b) standing for q^a * t^b
Laurent = dict[Monomial, int]         # sparse, zero coefficients never stored
DenomFactor = tuple[int, int]         # (a, b) standing for 1 - q^a t^b

ONE_MINUS_T: DenomFactor = (0, 1)     # the factor every bare term leaves implicit


class PoleError(ZeroDivisionError):
    """A denominator factor 1 - q^a t^b vanishes at the evaluation point."""


def l_one() -> Laurent:
    return {(0, 0): 1}


def _check_factor(f: DenomFactor) -> None:
    a, b = f
    if a < 0 or b < 0 or (a, b) == (0, 0):
        raise ValueError(f"invalid denominator factor {f!r}")


def _add_product_into(slot: Laurent, f: Laurent, g: Laurent) -> None:
    """slot += f * g in place, dropping coefficients that cancel."""
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            m = (a1 + a2, b1 + b2)
            s = slot.get(m, 0) + c1 * c2
            if s:
                slot[m] = s
            else:
                slot.pop(m, None)


def _add_into(slot: Laurent, num: Laurent) -> None:
    """slot += num in place, dropping coefficients that cancel."""
    for m, c in num.items():
        s = slot.get(m, 0) + c
        if s:
            slot[m] = s
        else:
            slot.pop(m, None)


def l_add(f: Laurent, g: Laurent) -> Laurent:
    out = dict(f)
    _add_into(out, g)
    return out


def l_mul(f: Laurent, g: Laurent) -> Laurent:
    if len(f) > len(g):
        f, g = g, f
    out: Laurent = {}
    _add_product_into(out, f, g)
    return out


def l_eval(f: Laurent, q0: Fraction, t0: Fraction) -> Fraction:
    total = Fraction(0)
    for (a, b), c in f.items():
        total += c * q0**a * t0**b
    return total


def l_div_binomial(f: Laurent, a: int, b: int) -> Laurent | None:
    """Exact quotient of f by 1 - q^a t^b, or None if it does not divide.

    Exponents are grouped into classes modulo the step (a, b), each class a
    dict from the step count m to its coefficient; within a class the
    division is the one-variable identity
    (sum c_i u^{m_i}) / (1 - u) = sum_j (prefix sum up to j) u^j,
    exact iff each class's coefficients sum to zero.
    """
    _check_factor((a, b))
    classes: dict[Monomial, dict[int, int]] = {}
    for (x, y), c in f.items():
        m = x // a if a else y // b
        key = (x - m * a, y - m * b)
        terms = classes.get(key)
        if terms is None:
            classes[key] = {m: c}
        else:
            terms[m] = c
    out: Laurent = {}
    for (kx, ky), terms in classes.items():
        if sum(terms.values()):
            return None
        prefix = 0
        for j in range(min(terms), max(terms)):
            prefix += terms.get(j, 0)
            if prefix:
                out[(kx + j * a, ky + j * b)] = prefix
    return out


# ---------------------------------------------------------------------------
# Rational functions with structured denominators


class RationalQT:
    """A Laurent numerator over a multiset of factors 1 - q^a t^b.

    Zero is represented with an empty denominator.  Equality is semantic:
    cross-multiplication of numerators against the multiset difference of the
    denominators, so two reduced values built along different routes compare
    equal exactly when they are the same rational function.  An object is
    equal to itself without that work, as the contents of one orbit share
    one coefficient object.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Iterable[DenomFactor] = ()):
        num = {m: c for m, c in num.items() if c}
        den = tuple(sorted(den)) if num else ()
        for f in den:
            _check_factor(f)
        self.num = num
        self.den = den

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RationalQT):
            return NotImplemented
        mine, theirs = Counter(self.den), Counter(other.den)
        lift_self = _factors_product(theirs - mine)
        lift_other = _factors_product(mine - theirs)
        return l_mul(self.num, lift_self) == l_mul(other.num, lift_other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RationalQT({rational_str(self)})"


def _factors_product(factors: Counter[DenomFactor]) -> Laurent:
    out = l_one()
    for (a, b), mult in factors.items():
        _check_factor((a, b))
        for _ in range(mult):
            out = _mul_binomial(out, a, b)
    return out


def _mul_binomial(f: Laurent, a: int, b: int) -> Laurent:
    """f * (1 - q^a t^b): f minus its shift by (a, b)."""
    out = {m: c for m, c in f.items() if c}
    for (x, y), c in list(out.items()):
        m = (x + a, y + b)
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def rational_zero() -> RationalQT:
    return RationalQT({})


def rational_one() -> RationalQT:
    return RationalQT(l_one())


def rational_reduce(f: RationalQT) -> RationalQT:
    """Strip every denominator factor that divides the numerator exactly.

    Factors are tried once each, in sorted order.  A factor that does not
    divide the numerator P does not divide P/g either (P = g * (P/g)), so
    retrying it after a later division would fail again: the result is the
    one a restart after every division gives, a deterministic function of
    the input representation.
    """
    num = f.num
    remaining = []
    for a, b in f.den:
        quot = l_div_binomial(num, a, b)
        if quot is None:
            remaining.append((a, b))
        else:
            num = quot
    return RationalQT(num, remaining)


def term_value(num: Laurent, den: Counter[DenomFactor]) -> RationalQT:
    """The reduced value of the bare term num * (1-t)^|den| / prod(den)."""
    lifted = l_mul(num, _factors_product(Counter({ONE_MINUS_T: sum(den.values())})))
    return rational_reduce(RationalQT(lifted, den.elements()))


def rational_add(f: RationalQT, g: RationalQT) -> RationalQT:
    """Exact sum over the multiset-lcm common denominator, reduced."""
    if not f:
        return rational_reduce(g)
    if not g:
        return rational_reduce(f)
    fc, gc = Counter(f.den), Counter(g.den)
    lcm = fc | gc
    num = l_add(
        l_mul(f.num, _factors_product(lcm - fc)),
        l_mul(g.num, _factors_product(lcm - gc)),
    )
    return rational_reduce(RationalQT(num, lcm.elements()))


def rational_eval_at(f: RationalQT, q0: Fraction, t0: Fraction) -> Fraction:
    """Exact value at (q0, t0); raises PoleError on a vanishing factor."""
    q0, t0 = Fraction(q0), Fraction(t0)
    value = l_eval(f.num, q0, t0)
    for a, b in f.den:
        d = 1 - q0**a * t0**b
        if d == 0:
            raise PoleError(f"factor 1 - q^{a} t^{b} vanishes at ({q0}, {t0})")
        value /= d
    return value


# ---------------------------------------------------------------------------
# Canonical text rendering


def _power_str(sym: str, e: int) -> str:
    return sym if e == 1 else f"{sym}^{e}"


def monomial_str(a: int, b: int) -> str:
    parts = []
    if a:
        parts.append(_power_str("q", a))
    if b:
        parts.append(_power_str("t", b))
    return "*".join(parts) if parts else "1"


def laurent_str(f: Laurent) -> str:
    if not f:
        return "0"
    chunks: list[str] = []
    for (a, b) in sorted(f):
        c = f[(a, b)]
        mono = monomial_str(a, b)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(chunks)


def rational_str(f: RationalQT) -> str:
    num = laurent_str(f.num)
    if not f.den:
        return num
    factors = [f"(1 - {monomial_str(a, b)})" for a, b in f.den]
    den = factors[0] if len(factors) == 1 else "(" + "*".join(factors) + ")"
    return f"({num})/{den}"


# ---------------------------------------------------------------------------
# Symmetric-function accumulators keyed by content vectors

Content = tuple[int, ...]
SymFun = dict[Content, RationalQT]    # all keys share the same coordinate sum


def symfun_add_term(P: SymFun, content: Content, coef: RationalQT) -> SymFun:
    """Return P with coef added at x^content; zero coefficients are pruned."""
    content = tuple(content)
    if any(c < 0 for c in content):
        raise ValueError(f"negative entry in content vector {content}")
    if P:
        degree = sum(next(iter(P)))
        if sum(content) != degree or len(content) != len(next(iter(P))):
            raise ValueError(
                f"content {content} does not match ambient degree {degree}"
            )
    out = dict(P)
    new = rational_add(out.get(content, rational_zero()), coef)
    if new:
        out[content] = new
    else:
        out.pop(content, None)
    return out


def symfun_str(P: SymFun) -> str:
    """P as text; each distinct coefficient object is formatted once."""
    if not P:
        return "0"
    shown: dict[int, str] = {}      # id of a coefficient of P -> its text
    terms = []
    for content in sorted(P, reverse=True):
        coef = P[content]
        cs = shown.get(id(coef))
        if cs is None:
            cs = shown[id(coef)] = _coefficient_str(coef)
        xpart = f"x[{','.join(map(str, content))}]"
        terms.append(f"{cs}*{xpart}" if cs else xpart)
    return " + ".join(terms)


def _coefficient_str(coef: RationalQT) -> str:
    """A coefficient as it prefixes ``*x[...]``; empty for 1."""
    if coef.den:
        return rational_str(coef)
    if coef.num == l_one():
        return ""
    if len(coef.num) == 1:
        ((a, b),) = coef.num
        if coef.num[(a, b)] > 0:
            return laurent_str(coef.num)
    return f"({laurent_str(coef.num)})"


def coefficient_json_obj(coef: RationalQT) -> dict:
    """``num`` and ``den`` of one ``monomials`` entry of ``compute --out json``."""
    return {
        "num": [[a, b, coef.num[(a, b)]] for (a, b) in sorted(coef.num)],
        "den": [[a, b] for (a, b) in coef.den],
    }


_DIGIT_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}   # memoryview.cast codes


def _digit_bits(bound: int) -> int:
    """Smallest digit width whose signed digits hold every |c| <= bound."""
    for bits in _DIGIT_FORMATS:
        if bound < 1 << (bits - 1):
            return bits
    return 64 * -(-(bound.bit_length() + 1) // 64)


def _unpack_digits(value: int, bits: int) -> Iterator[tuple[int, int]]:
    """(slot, coefficient) of every nonzero signed ``bits``-wide digit.

    Adding half the digit range to every slot makes all digits non-negative,
    so one ``to_bytes`` and one ``memoryview.cast`` read them all in linear
    time; peeling digits off with ``>>`` would be quadratic.
    """
    width = bits // 8
    nslots = -(-abs(value).bit_length() // bits) + 1
    half = 1 << (bits - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * nslots, "little")
    raw = (value + bias).to_bytes(nslots * width, "little")
    fmt = _DIGIT_FORMATS.get(bits) if sys.byteorder == "little" else None
    if fmt is not None:
        digits = memoryview(raw).cast(fmt).tolist()
    else:
        digits = [int.from_bytes(raw[i:i + width], "little")
                  for i in range(0, len(raw), width)]
    for slot_idx, d in enumerate(digits):
        if d != half:
            yield slot_idx, d - half


class PackedWindow(NamedTuple):
    """A Kronecker packing of Laurent polynomials into one Python int.

    q^a t^b is the signed digit at slot ``a * span + (b - t_lo)``, each slot
    ``bits`` wide.  Packing is a ring map for exponents inside the window, so
    sums and products of packed ints are the dict arithmetic, and two packed
    ints are equal exactly when their polynomials are, as long as no row
    wraps into the next and no digit overflows.  ``bounded`` is the one
    constructor: it fixes the window once, before any term is packed, from
    proven bounds on the numerators, and ``offset`` (the slot of every
    monomial that is packed) and ``check_weight`` hold every numerator to
    those bounds.
    """

    factors: tuple[DenomFactor, ...]    # the shared denominator, sorted
    t_lo: int                           # numerators have q^a t^b with a >= 0
    t_hi: int                           # and t_lo <= b <= t_hi
    span: int                           # slots per power of q
    bits: int                           # digit width
    budget: int                         # the least weight that does not fit

    @classmethod
    def bounded(cls, factors: Iterable[DenomFactor], t_lo: int, t_hi: int,
                weight: int) -> "PackedWindow":
        """The window for numerators inside ``t_lo .. t_hi`` of total ``weight``.

        Every numerator is lifted to the shared denominator ``factors`` by
        one factor per element of it: the element itself when the term's own
        denominator lacks it, ``1 - t`` in its place otherwise.  So a lift
        adds at most ``sum(max(b, 1))`` to the t exponent, and ``span``
        covers ``t_lo`` up to ``t_hi`` plus that degree: no row wraps.  Each
        of the K factors at most doubles a coefficient's l1 norm, so a lifted
        sum of numerators whose coefficients total ``weight`` in absolute
        value has every coefficient below ``weight * 2^K``, and ``bits``
        keeps ``2^(bits-1)`` above that: no digit overflows.  ``budget`` is
        ``2^(bits-1-K)``, the least total weight that would not fit.
        """
        factors = tuple(sorted(factors))
        lift_tdeg = sum(max(b, 1) for _a, b in factors)
        bits = _digit_bits(max(weight, 1) << len(factors))
        return cls(factors, t_lo, t_hi, t_hi + lift_tdeg - t_lo + 1, bits,
                   1 << (bits - 1 - len(factors)))

    def offset(self, a: int, b: int) -> int:
        """The bit offset of q^a t^b's slot; raises outside the window.

        This is the one place a monomial is placed, so every numerator that
        is packed has been held to the window's bounds.
        """
        if a < 0 or not self.t_lo <= b <= self.t_hi:
            raise InternalInvariantError(
                f"numerator q^{a} t^{b} outside the packed window "
                f"(q >= 0, t in {self.t_lo}..{self.t_hi})")
        return self.bits * (a * self.span + b - self.t_lo)

    def pack(self, num: Laurent, lift: int) -> tuple[int, int]:
        """``num * lift`` packed, and the weight of ``num``.

        ``lift`` is a packed lift (see ``lift``); each monomial of ``num``
        shifts it to its slot (``offset``), and only a coefficient other
        than 1 multiplies it.
        """
        offset = self.offset
        value = weight = 0
        for (a, b), c in num.items():
            shifted = lift << offset(a, b)
            value += shifted if c == 1 else shifted * c
            weight += abs(c)
        return value, weight

    def lift(self, den: dict[DenomFactor, int]) -> int:
        """``(1-t)^|den| * prod(factors - den)``, packed.

        This lifts a bare term over ``den`` to the shared denominator: one
        factor per element of ``factors``, the element itself where ``den``
        lacks it and ``1 - t`` where ``den`` holds it.  Raises ``ValueError``
        when ``den`` is not a sub-multiset of ``factors``.
        """
        span, bits = self.span, self.bits
        left = dict(den)
        value = 1
        for f in self.factors:
            if left.get(f):
                left[f] -= 1
                value -= value << bits                       # 1 - t
            else:
                value -= value << bits * (f[0] * span + f[1])
        if any(left.values()):
            raise ValueError(
                f"term denominator {sorted(Counter(den).elements())} is not part "
                f"of the shared denominator {list(self.factors)}")
        return value

    def unpack(self, value: int) -> Laurent:
        """The polynomial of a packed int, as a dict."""
        t_lo, span = self.t_lo, self.span
        return {(i // span, t_lo + i % span): c
                for i, c in _unpack_digits(value, self.bits)}

    def rational(self, value: int) -> RationalQT:
        """A packed numerator over the shared factors, unreduced."""
        return RationalQT(self.unpack(value), self.factors)

    def check_weight(self, weight: int) -> None:
        if weight >= self.budget:
            raise InternalInvariantError(
                f"coefficients summing to {weight} overflow the packed "
                f"window's budget {self.budget}")


class ContentAccumulator:
    """Collects bare formula terms per content over a window's shared denominator.

    ``add(content, num, den)`` takes a bare term: a numerator ``num`` (the
    monomial q^a t^b for both formulas) standing for
    ``num * (1-t)^|den| / prod(den)``, where ``den`` is a sub-multiset of the
    shared denominator ``window.factors``.  Nothing is multiplied out on
    ``add``: numerators are summed into a group keyed by ``den`` and
    ``content``.  The group of each ``den`` object is memoised by identity
    until the next flush, so callers that pass one shared multiset for many
    terms freeze it into a key once; ``den`` must not be changed after it is
    passed.  ``flush`` builds each group's lift once, ``(1-t)^|den|`` times
    the binomials of the shared denominator that ``den`` lacks
    (``PackedWindow.lift``), and shifts it once per distinct monomial of the
    group: every content holding that monomial adds the one shifted copy,
    times its coefficient when that is not 1.  ``finalize`` flushes first,
    and ``add_lifted`` adds a sum packed in the same window, such as a
    shard's (``parallel._merge_into``).

    Each content's lifted sum is one integer packed in ``window`` (``packed``),
    a ``PackedWindow`` fixed at construction from the formula's proven
    bounds (``ramyip.walk_window``, ``fillings.filling_window``).  A lift is
    built by ``x -= x << shift`` per binomial, and a numerator monomial adds
    the lift shifted to its slot, all C-level integer arithmetic.  Each
    flush checks every numerator monomial against the window the first time
    its group shifts to it (``PackedWindow.offset``), and the running weight
    of the flushed coefficients, ``|c|`` summed over every (group, content,
    monomial) entry, against the budget, so a digit never wraps unnoticed.
    Sums stay packed until ``finalize``; they are the same integers whatever
    the term order, flush points or sharding.  ``finalize`` unpacks and
    reduces each distinct sum once, and the contents that carry it (an
    orbit, for a symmetric expansion) share the one reduced object.
    """

    def __init__(self, window: PackedWindow):
        self.window = window
        self.den = Counter(window.factors)     # the shared denominator
        self.packed: dict[Content, int] = {}
        self.weight = 0         # sum of |coefficient| over the flushed numerators
        self._groups: dict[frozenset, dict[Content, Laurent]] = {}
        # the group of each ``den`` object passed to ``add`` since the last
        # flush; holding the object keeps its id from being reused meanwhile
        self._den_groups: dict[int, tuple[Counter, dict[Content, Laurent]]] = {}

    def add(self, content: Content, num: Laurent, den: Counter[DenomFactor]) -> None:
        memo = self._den_groups.get(id(den))
        if memo is None:
            key = frozenset(den.items())
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = {}
            self._den_groups[id(den)] = (den, group)
        else:
            group = memo[1]
        slot = group.get(content)
        if slot is None:
            group[content] = dict(num)
            return
        for m, c in num.items():
            c += slot.get(m, 0)
            if c:
                slot[m] = c
            else:
                slot.pop(m, None)

    def flush(self) -> None:
        """Lift every pending (den, content) group into the per-content sums.

        Each group's lift is built once and shifted once per distinct
        monomial of the group; the group's contents share those shifted
        lifts, and only a coefficient other than 1 multiplies one.
        """
        window, packed, weight = self.window, self.packed, self.weight
        offset = window.offset
        for key, group in self._groups.items():
            lift = window.lift(dict(key))
            shifted: dict[Monomial, int] = {}
            for content, num in group.items():
                value = packed.get(content, 0)
                for m, c in num.items():
                    s = shifted.get(m)
                    if s is None:
                        s = shifted[m] = lift << offset(*m)
                    value += s if c == 1 else s * c
                    weight += abs(c)
                packed[content] = value
        window.check_weight(weight)
        self.weight = weight
        self._groups.clear()
        self._den_groups.clear()

    def add_lifted(self, content: Content, value: int) -> None:
        """Add a lifted sum packed in this accumulator's window."""
        self.packed[content] = self.packed.get(content, 0) + value

    def finalize(self) -> SymFun:
        """Unpack and reduce each distinct sum once; this empties the accumulator.

        ``P_lambda`` is symmetric, so all contents of one S_n orbit carry the
        same lifted sum.  A memo that lives for this call maps each packed
        value to its reduced ``RationalQT``, and contents whose sums are equal
        share that one (immutable) object.  The result is the per-content
        reduction all the same: ``unpack`` is a function of the int and
        ``rational_reduce`` of its input.  Symmetry only decides how often the
        memo hits; an asymmetric sum misses it and is reduced on its own.
        Each packed sum is popped as it is consumed, so beside the reduced
        expansion only the distinct lifted sums are held.
        """
        self.flush()
        out: SymFun = {}
        packed, window = self.packed, self.window
        reduced: dict[int, RationalQT] = {}
        for content in sorted(packed):
            value = packed.pop(content)
            if not value:
                continue
            coef = reduced.get(value)
            if coef is None:
                coef = reduced[value] = rational_reduce(window.rational(value))
            out[content] = coef
        return out
