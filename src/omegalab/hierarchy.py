"""Cantor-normal-form ordinals below epsilon_0 and the fast-growing family f_a.

The function family is the exponential scale
    f_0(n) = 2^n,   f_{a+1}(n) = 2^{f_a(n)},   f_lam(n) = max_{k<=n} f_{lam[k]}(n)
with the standard fundamental sequences (g+w^(b+1))[k] = g+w^b*k and
(g+w^mu)[k] = g+w^(mu[k]).  An Ordinal is the tuple of its (exponent,
coefficient) terms, exponents strictly decreasing, so tuple order is ordinal
order.  fgh_eval, tested against this definition, uses the closed form:
f_a(n) is 2^x applied 1 + a[w:=n] times to n; a[w:=n] puts n for w, 0^0 = 1.
- The max is at k = n: for a limit lam and k < n, lam[k+1] reaches lam[k]
  by steps b+1 -> b and mu -> mu[j], j <= n ([0] steps if lam = g+w^(b+1);
  if lam = g+w^mu, mu[k+1] ->* mu[k] lifted through w^(.), index 1 lifting a
  successor step), and no step lowers f_.(n): 2^x >= x, and the max gives
  f_mu(n) >= f_{mu[j]}(n).
- What is left is the slow-growing hierarchy, G_0 = 0, G_{b+1} = G_b + 1,
  G_lam(n) = G_{lam[n]}(n), and G_a(n) = a[w:=n] by induction (Cichon and
  Wainer, "The slow-growing and the Grzegorczyk hierarchies", JSL 48, 1983;
  Wainer, "Slow growing versus fast growing", JSL 54, 1989).

A value is a TowerInt(height, top): the exact natural top at height 0, else
the tower 2^2^...^top of `height` twos, once the exact bit size would exceed
cap_bits.  Towers peel the top while it is a power of two, so 2^(2^256) is
the height-4 tower topped by 3.  Values are compared only at one n and cap,
where each is 2^x iterated over n, so tuple order is value order; across
bases it is not: under cap 2^20, (2, 20) is 2^(2^20) yet ranks above
(1, 2^20+1).  An exact value prints in decimal while it has at most 4,300
digits, the most Python converts to decimal text by default, and in hex
beyond ({"exact_hex": "0x..."} in a report): hex() has no digit limit and
takes time linear in the value's size.  A height prints only in decimal, so
one of 10^4300 or more is refused with ValueError.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

DEFAULT_CAP_BITS = 2**20
_DECIMAL_BOUND = 10**4300  # the least int of 4,301 digits
_TOO_TALL = "f_alpha(n) is a tower of 10^4300 or more twos, too tall to print"


class OrdinalParseError(ValueError):
    pass


class Ordinal(NamedTuple("Ordinal", [("terms", Tuple[Tuple["Ordinal", int], ...])])):
    """Sum of w^exponent * coeff terms, exponents strictly decreasing.

    Tuple order is Cantor-normal-form order: the first differing term decides
    by exponent, then by coefficient, and a proper prefix is the smaller.
    """

    __slots__ = ()

    def __new__(cls, terms: Tuple[Tuple["Ordinal", int], ...] = ()) -> "Ordinal":
        for i, (exp, coeff) in enumerate(terms):
            if coeff < 1:
                raise ValueError("coefficients must be >= 1")
            if i and not exp < terms[i - 1][0]:
                raise ValueError("exponents must be strictly decreasing")
        return tuple.__new__(cls, (tuple(terms),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        parts = []
        for exp, coeff in self.terms:
            if exp.is_zero:
                parts.append(str(coeff))
                continue
            # an exponent prints bare when it is a numeral or one term w^e
            (e, c), *rest = exp.terms
            base = ("w" if exp == ONE else f"w^{exp}" if not rest and (e.is_zero or c == 1)
                    else f"w^({exp})")
            parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts) or "0"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))


def nat(n: int) -> Ordinal:
    return Ordinal(((ZERO, n),)) if n else ZERO


def ord_parse(text: str) -> Ordinal:
    """Parse sums of w^<ordinal>*<coeff> terms (sugar: w, w*k, w^k, numerals).

    Terms must already be in canonical order; non-decreasing exponents are
    rejected, not sorted.  Syntax errors are reported before order errors.
    """
    text = text.replace(" ", "")
    o, i = _sum(text, 0)
    if i != len(text):
        raise OrdinalParseError(f"trailing garbage at index {i}")
    return o


def _numeral(s: str, i: int) -> Tuple[int, int]:
    j = i
    while s[j : j + 1].isdigit():
        j += 1
    if j == i:
        raise OrdinalParseError(f"expected numeral at index {i}")
    return int(s[i:j]), j


def _sum(s: str, i: int) -> Tuple[Ordinal, int]:
    """The '+'-separated terms from index i, each a numeral or w<exponent>*<coeff>;
    returns the ordinal and the index after it."""
    terms: List[Tuple[Ordinal, int]] = []
    while True:
        if s[i : i + 1].isdigit():
            exp, (coeff, i) = ZERO, _numeral(s, i)
        elif s[i : i + 1] == "w":
            exp, i = _exponent(s, i + 1)
            coeff = 1
            if s[i : i + 1] == "*":
                coeff, i = _numeral(s, i + 1)
                if coeff < 1:
                    raise OrdinalParseError("coefficient must be >= 1")
        else:
            raise OrdinalParseError(f"expected term at index {i}")
        terms.append((exp, coeff))
        if s[i : i + 1] != "+":
            break
        i += 1
    for k, (exp, coeff) in enumerate(terms):
        if coeff == 0 and len(terms) > 1:
            raise OrdinalParseError("zero term in a sum")
        if k and not exp < terms[k - 1][0]:
            raise OrdinalParseError("terms not in strictly decreasing exponent order")
    return Ordinal(tuple(t for t in terms if t[1])), i


def _exponent(s: str, i: int) -> Tuple[Ordinal, int]:
    """The exponent of the w just before index i: 1 unless '^' follows, then a
    numeral, a parenthesized sum, or a w-power with coefficient 1."""
    if s[i : i + 1] != "^":
        return ONE, i
    i += 1
    ch = s[i : i + 1]
    if ch == "(":
        o, i = _sum(s, i + 1)
        if s[i : i + 1] != ")":
            raise OrdinalParseError(f"expected ')' at index {i}")
        return o, i + 1
    if ch.isdigit():
        n, i = _numeral(s, i)
        return nat(n), i
    if ch == "w":
        exp, i = _exponent(s, i + 1)
        return Ordinal(((exp, 1),)), i
    raise OrdinalParseError(f"expected exponent at index {i}")


# ---------------------------------------------------------------------------
# tower-valued naturals

class TowerInt(NamedTuple):
    """The exact natural top (height 0), or 2^2^...^top with `height` twos."""

    height: int
    top: int

    @staticmethod
    def of(n: int) -> "TowerInt":
        return TowerInt(0, n)

    @property
    def is_exact(self) -> bool:
        return self.height == 0

    @property
    def exact(self) -> Optional[int]:
        return None if self.height else self.top

    def as_dict(self) -> dict:
        if self.height:
            return {"tower": self.height, "top": self.top}
        return {"exact": self.top} if self.top < _DECIMAL_BOUND else {"exact_hex": hex(self.top)}

    def __str__(self) -> str:
        return "2^" * self.height + (str(self.top) if self.top < _DECIMAL_BOUND else hex(self.top))


def tower_pow2(x: TowerInt, cap_bits: int) -> TowerInt:
    """2^x under the cap: exact when the result fits in cap_bits bits."""
    if x.height:
        return TowerInt(x.height + 1, x.top)
    if x.top + 1 <= cap_bits:
        return TowerInt.of(1 << x.top)
    # peel while the top is a power of two so equal values share one form
    height, top = 1, x.top
    while top > 0 and top & (top - 1) == 0:
        height, top = height + 1, top.bit_length() - 1
    return TowerInt(height, top)


def _slow_growing(alpha: Ordinal, n: int) -> int:
    """G_alpha(n) = alpha[w:=n], the sum of c*n^(e[w:=n]) over the terms w^e*c."""
    total = 0
    for exp, coeff in alpha.terms:
        e = _slow_growing(exp, n)
        if n > 1 and e * (n.bit_length() - 1) >= _DECIMAL_BOUND.bit_length():
            raise ValueError(_TOO_TALL)  # n^e >= 2^(e*(bitlen(n)-1)) passes the bound
        total += coeff * n**e
    return total


def fgh_eval(alpha: Ordinal, n: int, cap_bits: int = DEFAULT_CAP_BITS) -> TowerInt:
    """f_alpha(n): 2^x applied 1 + alpha[w:=n] times to n, the steps left once
    the value is a tower raising its height all at once."""
    if n < 0:
        raise ValueError("n must be a natural number")
    val, steps = TowerInt.of(n), 1 + _slow_growing(alpha, n)
    while steps and val.is_exact:
        val, steps = tower_pow2(val, cap_bits), steps - 1
    if val.height + steps >= _DECIMAL_BOUND:
        raise ValueError(_TOO_TALL)
    return TowerInt(val.height + steps, val.top)


def dominance_check(alpha: Ordinal, beta: Ordinal, points: List[int],
                    cap_bits: int = DEFAULT_CAP_BITS) -> dict:
    """Pointwise comparison of f_alpha vs f_beta at the given points.

    No universal claim is made: the report lists the first tested point where
    f_beta strictly exceeds f_alpha and whether that holds at every tested
    point from there on.
    """
    if not alpha < beta:
        raise ValueError("dominance check requires alpha < beta")
    rows = []
    first_crossing = None
    holds_after = True
    for p in sorted(points):
        va = fgh_eval(alpha, p, cap_bits)
        vb = fgh_eval(beta, p, cap_bits)
        rel = ">" if vb > va else ("=" if vb == va else "<")
        if rel == ">" and first_crossing is None:
            first_crossing = p
        if first_crossing is not None and rel != ">":
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
