"""Cantor-normal-form ordinals below epsilon_0 and the fast-growing family f_a.

The function family is the exponential scale
    f_0(n) = 2^n,   f_{a+1}(n) = 2^{f_a(n)},   f_lam(n) = max_{k<=n} f_{lam[k]}(n)
indexed by ordinals in Cantor normal form.  Values explode immediately, so
results are either Exact big integers or symbolic power towers
Tower(height, top) = 2^2^...^top with `height` twos, produced whenever the
exact bit size would exceed cap_bits.  Canonical towers peel the top while it
is a power of two, so e.g. 2^(2^256) prints as a height-4 tower topped by 3;
comparison is by height, then top, which is sound for values produced under
one cap (and towers are never compared across caps).  A report gives an
Exact value as a decimal int while it has at most 4,300 digits, the most
Python converts to decimal text by default, and as {"exact_hex": "0x..."}
beyond: hex() has no digit limit and takes time linear in the value's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import List, Optional, Tuple

DEFAULT_CAP_BITS = 2**20
_DECIMAL_BOUND = 10**4300  # the least int of 4,301 digits


class OrdinalParseError(ValueError):
    pass


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Sum of w^exponent * coeff terms, exponents strictly decreasing."""

    terms: Tuple[Tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        prev = None
        for exp, coeff in self.terms:
            if coeff < 1:
                raise ValueError("coefficients must be >= 1")
            if prev is not None and not exp < prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def __lt__(self, other: "Ordinal") -> bool:
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return e1 < e2
            if c1 != c2:
                return c1 < c2
        return len(self.terms) < len(other.terms)

    def natural_value(self) -> Optional[int]:
        if self.is_zero:
            return 0
        if len(self.terms) == 1 and self.terms[0][0].is_zero:
            return self.terms[0][1]
        return None

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise ValueError("only successors have predecessors")
        head, (exp, coeff) = self.terms[:-1], self.terms[-1]
        if coeff == 1:
            return Ordinal(head)
        return Ordinal(head + ((exp, coeff - 1),))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            n = exp.natural_value()
            if n == 0:
                parts.append(str(coeff))
                continue
            if n == 1:
                base = "w"
            elif n is not None:
                base = f"w^{n}"
            else:
                inner = str(exp)
                base = f"w^{inner}" if _is_simple_exponent(exp) else f"w^({inner})"
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)


def _is_simple_exponent(exp: Ordinal) -> bool:
    # printable without parentheses: a single term with coefficient 1
    return len(exp.terms) == 1 and exp.terms[0][1] == 1


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))


def nat(n: int) -> Ordinal:
    return Ordinal(((ZERO, n),)) if n else ZERO


OMEGA = Ordinal(((ONE, 1),))


def ord_parse(text: str) -> Ordinal:
    """Parse sums of w^<ordinal>*<coeff> terms (sugar: w, w*k, w^k, numerals).

    Terms must already be in canonical order; non-decreasing exponents are
    rejected, not sorted.
    """
    parser = _OrdParser(text.replace(" ", ""))
    o = parser.parse_ordinal()
    if parser.pos != len(parser.text):
        raise OrdinalParseError(f"trailing garbage at index {parser.pos}")
    return o


class _OrdParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_ordinal(self) -> Ordinal:
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.parse_term())
        flat: List[Tuple[Ordinal, int]] = []
        for exp, coeff in terms:
            if coeff == 0:
                if len(terms) > 1:
                    raise OrdinalParseError("zero term in a sum")
                continue
            if flat and not exp < flat[-1][0]:
                raise OrdinalParseError("terms not in strictly decreasing exponent order")
            flat.append((exp, coeff))
        return Ordinal(tuple(flat))

    def parse_term(self) -> Tuple[Ordinal, int]:
        ch = self.peek()
        if ch.isdigit():
            return ZERO, self.parse_nat()
        if ch != "w":
            raise OrdinalParseError(f"expected term at index {self.pos}")
        self.pos += 1
        exp = ONE
        if self.peek() == "^":
            self.pos += 1
            exp = self.parse_exponent()
        coeff = 1
        if self.peek() == "*":
            self.pos += 1
            coeff = self.parse_nat()
            if coeff < 1:
                raise OrdinalParseError("coefficient must be >= 1")
        return exp, coeff

    def parse_exponent(self) -> Ordinal:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            o = self.parse_ordinal()
            if self.peek() != ")":
                raise OrdinalParseError(f"expected ')' at index {self.pos}")
            self.pos += 1
            return o
        if ch.isdigit():
            return nat(self.parse_nat())
        if ch == "w":
            self.pos += 1
            exp = ONE
            if self.peek() == "^":
                self.pos += 1
                exp = self.parse_exponent()
            return Ordinal(((exp, 1),))
        raise OrdinalParseError(f"expected exponent at index {self.pos}")

    def parse_nat(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise OrdinalParseError(f"expected numeral at index {start}")
        return int(self.text[start : self.pos])


def ord_compare(a: Ordinal, b: Ordinal) -> str:
    return "<" if a < b else (">" if b < a else "=")


def fundamental(lam: Ordinal, k: int) -> Ordinal:
    """k-th member of the standard fundamental sequence of a limit ordinal.

    (g+w)[k] = g+k; (g+w*(m+1))[k] = g+w*m+k; (g+w^(b+1))[k] = g+w^b*k;
    (g+w^l)[k] = g+w^(l[k]) for limit l.  Recursion is on the last CNF term.
    """
    if not lam.is_limit:
        raise ValueError("fundamental sequences exist only for limit ordinals")
    head, (exp, coeff) = lam.terms[:-1], lam.terms[-1]
    gamma = head if coeff == 1 else head + ((exp, coeff - 1),)
    if exp == ONE:
        tail = ((ZERO, k),) if k else ()
    elif exp.is_successor:
        tail = ((exp.predecessor(), k),) if k else ()
    else:
        tail = ((fundamental(exp, k), 1),)
    # the tail exponent is strictly below exp, hence below gamma's last exponent
    return Ordinal(tuple(gamma) + tail)


# ---------------------------------------------------------------------------
# tower-valued naturals

@dataclass(frozen=True)
class TowerInt:
    """Exact natural, or 2^2^...^top with `height` twos once past cap_bits."""

    exact: Optional[int] = None
    height: int = 0
    top: Optional[int] = None

    @staticmethod
    def of(n: int) -> "TowerInt":
        return TowerInt(exact=n)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def as_dict(self) -> dict:
        if self.is_exact:
            if self.exact < _DECIMAL_BOUND:
                return {"exact": self.exact}
            return {"exact_hex": hex(self.exact)}
        return {"tower": self.height, "top": self.top}

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.exact)
        return "2^" * self.height + str(self.top)


def _canonical_tower(height: int, top: int) -> TowerInt:
    # peel while the top is a power of two so equal values share one form
    while top > 0 and top & (top - 1) == 0:
        height += 1
        top = top.bit_length() - 1
    return TowerInt(height=height, top=top)


def tower_pow2(x: TowerInt, cap_bits: int) -> TowerInt:
    """2^x under the cap: exact when the result fits in cap_bits bits."""
    if x.is_exact:
        if x.exact + 1 <= cap_bits:
            return TowerInt.of(1 << x.exact)
        return _canonical_tower(1, x.exact)
    return TowerInt(height=x.height + 1, top=x.top)


def tower_cmp(a: TowerInt, b: TowerInt) -> int:
    """Compare tower values produced under one cap: towers always exceed exacts;
    tower vs tower goes by height, then top."""
    if a.is_exact and b.is_exact:
        return (a.exact > b.exact) - (a.exact < b.exact)
    if a.is_exact:
        return -1
    if b.is_exact:
        return 1
    if a.height != b.height:
        return 1 if a.height > b.height else -1
    return (a.top > b.top) - (a.top < b.top)


def fgh_eval(alpha: Ordinal, n: int, cap_bits: int = DEFAULT_CAP_BITS,
             _memo: Optional[dict] = None) -> TowerInt:
    """Evaluate f_alpha(n) by the base/successor/limit rules."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if _memo is None:
        _memo = {}
    key = (alpha, n)
    if key in _memo:
        return _memo[key]
    if alpha.is_zero:
        val = tower_pow2(TowerInt.of(n), cap_bits)
    elif alpha.is_successor:
        val = tower_pow2(fgh_eval(alpha.predecessor(), n, cap_bits, _memo), cap_bits)
    else:
        val = None
        for k in range(0, n + 1):
            cand = fgh_eval(fundamental(alpha, k), n, cap_bits, _memo)
            if val is None or tower_cmp(cand, val) > 0:
                val = cand
    _memo[key] = val
    return val


def dominance_check(alpha: Ordinal, beta: Ordinal, points: List[int],
                    cap_bits: int = DEFAULT_CAP_BITS) -> dict:
    """Pointwise comparison of f_alpha vs f_beta at the given points.

    No universal claim is made: the report lists the first tested point where
    f_beta strictly exceeds f_alpha and whether that holds at every tested
    point from there on.
    """
    if not alpha < beta:
        raise ValueError("dominance check requires alpha < beta")
    memo: dict = {}
    rows = []
    first_crossing = None
    holds_after = True
    for p in sorted(points):
        va = fgh_eval(alpha, p, cap_bits, memo)
        vb = fgh_eval(beta, p, cap_bits, memo)
        c = tower_cmp(vb, va)
        rel = ">" if c > 0 else ("=" if c == 0 else "<")
        if c > 0 and first_crossing is None:
            first_crossing = p
        if first_crossing is not None and c <= 0:
            holds_after = False
        rows.append({"n": p, "f_alpha": va.as_dict(), "f_beta": vb.as_dict(), "beta_vs_alpha": rel})
    return {
        "alpha": str(alpha),
        "beta": str(beta),
        "cap_bits": cap_bits,
        "points": rows,
        "first_crossing": first_crossing,
        "strict_from_crossing_on": holds_after if first_crossing is not None else False,
        "note": "eventual dominance is reported at tested points only",
    }
