"""Bit strings, dyadic rationals, prefix codes."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from omegalab.bits import (
    BitParseError,
    Dyadic,
    bs_parse,
    dyadic_bits,
    is_prefix_free,
    kraft_sum,
)

bitstrings = st.text(alphabet="01", max_size=24)


def test_parse_identity_cases():
    assert bs_parse("") == ""
    assert bs_parse("0101") == "0101"


def test_parse_error_names_index():
    with pytest.raises(BitParseError) as exc:
        bs_parse("01a")
    assert exc.value.index == 2


def test_prefix_free_examples():
    assert is_prefix_free(["0", "10", "11"]) == (True, None)
    ok, witness = is_prefix_free(["0", "01"])
    assert not ok and witness == ("0", "01")
    assert is_prefix_free([]) == (True, None)


def test_kraft_examples():
    assert kraft_sum(["0", "10", "110"]) == Dyadic(7, 3)
    assert kraft_sum(["0", "1"]) == Dyadic.one()
    assert kraft_sum([]) == Dyadic.zero()


def _random_prefix_free(draw, depth=0):
    # leaves of a random binary tree form a prefix-free set
    if depth >= 6 or not draw(st.booleans()):
        return [""]
    left = _random_prefix_free(draw, depth + 1)
    right = _random_prefix_free(draw, depth + 1)
    return ["0" + w for w in left] + ["1" + w for w in right]


@st.composite
def prefix_free_sets(draw):
    return _random_prefix_free(draw)


@given(prefix_free_sets())
def test_kraft_inequality_on_tree_codes(members):
    assert is_prefix_free(members)[0]
    total = kraft_sum(members)
    assert total <= Dyadic.one()
    # full binary trees hit the bound exactly
    assert total == Dyadic.one()


@given(prefix_free_sets(), st.integers(0, 30))
def test_kraft_strict_after_removal(members, seed):
    if len(members) > 1:
        members = members[: len(members) - 1 - seed % (len(members) - 1)] or members[:1]
        if is_prefix_free(members)[0]:
            assert kraft_sum(members) <= Dyadic.one()


dyadics = st.builds(Dyadic, st.integers(0, 2**40), st.integers(0, 48))


@given(dyadics, dyadics, dyadics)
def test_dyadic_addition_exact_and_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(dyadics, dyadics)
def test_dyadic_comparison_matches_fractions(a, b):
    fa, fb = Fraction(a.num, 2**a.exp), Fraction(b.num, 2**b.exp)
    assert (a < b) == (fa < fb)
    assert (a == b) == (fa == fb)


def test_canonical_form():
    assert Dyadic(4, 4) == Dyadic(1, 2)
    assert Dyadic(0, 17) == Dyadic.zero()
    assert str(Dyadic(6, 4)) == "3/2^3"
    assert Dyadic.parse("7/2^3") == Dyadic(7, 3)


def _expansion_oracle(d: Dyadic, k: int) -> str:
    # independent long-division oracle over exact fractions
    f = Fraction(d.num, 2**d.exp)
    out = []
    for _ in range(k):
        f *= 2
        if f >= 1:
            out.append("1")
            f -= 1
        else:
            out.append("0")
    return "".join(out)


def test_dyadic_bits_examples():
    assert dyadic_bits(Dyadic(1, 1), 3) == "100"
    assert dyadic_bits(Dyadic(7, 3), 3) == "111"
    # derived by the long-division oracle
    assert _expansion_oracle(Dyadic(5, 4), 4) == "0101"
    assert dyadic_bits(Dyadic(5, 4), 4) == "0101"


def test_dyadic_bits_domain():
    with pytest.raises(ValueError):
        dyadic_bits(Dyadic.one(), 3)
    with pytest.raises(ValueError):
        dyadic_bits(Dyadic(3, 1), 2)


@given(st.integers(0, 2**20 - 1), st.integers(0, 20).map(lambda e: 20), st.integers(1, 30))
def test_dyadic_bits_matches_oracle(num, exp, k):
    d = Dyadic(num, exp)
    assert dyadic_bits(d, k) == _expansion_oracle(d, k)


@given(st.integers(0, 2**20 - 1), st.integers(1, 30))
def test_dyadic_bits_reinterpretation_close(num, k):
    d = Dyadic(num, 20)
    approx = Dyadic(int(dyadic_bits(d, k), 2), k)  # the bits read back as 0.b1...bk
    assert approx <= d
    assert d - approx < Dyadic.pow2(k)


def test_canonical_form_large_exponent():
    assert Dyadic(3 << 100000, 100005) == Dyadic(3, 5)
    assert Dyadic(1 << 200000, 100000) == Dyadic(1 << 100000, 0)  # exp stops at zero
    d = Dyadic(5 << 7, 10**6)
    assert (d.num, d.exp) == (5, 10**6 - 7)
