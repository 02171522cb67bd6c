"""Exact bit-sequence and dyadic-rational arithmetic, plus prefix-code checks.

Bit strings are plain Python strings over '0'/'1' (empty string is the empty
sequence, earliest-read bit first).  All probability masses in this package
are dyadic rationals num/2^exp kept in canonical form so that equality is
structural and comparisons are exact; there is deliberately no float path.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Optional, Tuple

BitString = str  # '0'/'1' characters only


class InvariantError(RuntimeError):
    """An identity or inequality the theory guarantees failed on computed
    values: a defect in this package, never bad input."""


class BitParseError(ValueError):
    def __init__(self, text: str, index: int):
        self.index = index
        super().__init__(f"invalid bit character {text[index]!r} at index {index}")


def bs_parse(text: str) -> BitString:
    """Validate and return a bit string; any non-'0'/'1' character is an error."""
    for i, ch in enumerate(text):
        if ch not in "01":
            raise BitParseError(text, i)
    return text


def bit_strings(n: int) -> Iterable[BitString]:
    """Each n-bit string, in lex order, made as it is read."""
    return map("".join, product(*["01"] * n))


def is_prefix_free(members: Iterable[BitString]) -> Tuple[bool, Optional[Tuple[BitString, BitString]]]:
    """True iff no member is a proper prefix of another; else one witness pair.

    Sorting makes any violating pair adjacent, so the scan is linear after the
    sort instead of quadratic; the members are distinct, so a prefix is proper.
    """
    ordered = sorted(set(members))
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return False, (a, b)
    return True, None


class Dyadic(NamedTuple("Dyadic", [("num", int), ("exp", int)])):
    """Exact num/2^exp with num >= 0.

    Canonical form: num is odd or zero, or exp is zero.  Construction always
    reduces, so == is structural equality of values.
    """

    __slots__ = ()

    def __new__(cls, num: int, exp: int) -> "Dyadic":
        return tuple.__new__(cls, cls.__post_init__(num, exp))

    @staticmethod
    def __post_init__(num: int, exp: int) -> Tuple[int, int]:
        """(num, exp) checked and reduced to canonical form.  bench/spans.py
        counts constructions by wrapping this name, so __new__ calls it
        through the class."""
        if num < 0 or exp < 0:
            raise ValueError("dyadic rational must be nonnegative with natural exponent")
        if num == 0:
            return 0, 0
        tz = min(exp, (num & -num).bit_length() - 1)  # trailing zeros of num, capped
        return num >> tz, exp - tz

    @staticmethod
    def zero() -> "Dyadic":
        return Dyadic(0, 0)

    @staticmethod
    def one() -> "Dyadic":
        return Dyadic(1, 0)

    @staticmethod
    def pow2(k: int) -> "Dyadic":
        """2^-k for k >= 0."""
        return Dyadic(1, k)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic(self.num * (1 << (e - self.exp)) + other.num * (1 << (e - other.exp)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        n = self.num * (1 << (e - self.exp)) - other.num * (1 << (e - other.exp))
        if n < 0:
            raise ValueError("dyadic subtraction went negative")
        return Dyadic(n, e)

    def _cmp_key(self, other: "Dyadic") -> Tuple[int, int]:
        e = max(self.exp, other.exp)
        return self.num * (1 << (e - self.exp)), other.num * (1 << (e - other.exp))

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    @staticmethod
    def parse(text: str) -> "Dyadic":
        num_s, _, exp_s = text.partition("/2^")
        if not exp_s:
            raise ValueError(f"expected 'num/2^exp', got {text!r}")
        return Dyadic(int(num_s), int(exp_s))


def kraft_sum(members: Iterable[BitString]) -> Dyadic:
    """Exact sum of 2^-|p| over the (deduplicated) members, summed as an
    integer numerator over 2^m, m the length of the longest member."""
    members = set(members)
    m = max(map(len, members), default=0)
    return Dyadic(sum(1 << (m - len(p)) for p in members), m)


def dyadic_bits(d: Dyadic, k: int) -> BitString:
    """First k binary-expansion digits of d, for 0 <= d < 1.

    Terminating expansions are padded with zeros; d = 1 is rejected rather
    than expanded as 0.111... (no machine here has halting probability 1).
    """
    if d < Dyadic.zero() or d >= Dyadic.one():
        raise ValueError(f"dyadic_bits requires 0 <= d < 1, got {d}")
    if k < 0:
        raise ValueError(f"dyadic_bits requires k >= 0, got {k}")
    return format((d.num << k) >> d.exp, f"0{k}b") if k else ""

