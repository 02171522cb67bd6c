"""Ordinals in Cantor normal form and the fast-growing function family."""

import hashlib
import itertools

import pytest

from omegalab.hierarchy import (
    DEFAULT_CAP_BITS,
    Ordinal,
    OrdinalParseError,
    TowerInt,
    ZERO,
    dominance_check,
    fgh_eval,
    nat,
    ord_parse,
    tower_pow2,
)


def _less_one(terms):
    """The terms of an ordinal with one w^e taken off its last term."""
    head, (exp, coeff) = terms[:-1], terms[-1]
    return head if coeff == 1 else head + ((exp, coeff - 1),)


def _is_limit(a: Ordinal) -> bool:
    return bool(a.terms) and not a.terms[-1][0].is_zero


def fundamental(lam: Ordinal, k: int) -> Ordinal:
    """k-th member of the standard fundamental sequence of a limit ordinal.

    (g+w)[k] = g+k; (g+w*(m+1))[k] = g+w*m+k; (g+w^(b+1))[k] = g+w^b*k;
    (g+w^l)[k] = g+w^(l[k]) for limit l.  Recursion is on the last CNF term.
    """
    if not _is_limit(lam):
        raise ValueError("fundamental sequences exist only for limit ordinals")
    gamma, exp = _less_one(lam.terms), lam.terms[-1][0]
    if _is_limit(exp):
        tail = ((fundamental(exp, k), 1),)
    else:  # w = w^(0+1), so (g+w)[k] = g+w^0*k = g+k
        tail = ((Ordinal(_less_one(exp.terms)), k),) if k else ()
    # the tail exponent is strictly below exp, hence below gamma's last exponent
    return Ordinal(gamma + tail)


def _reference_fgh(alpha: Ordinal, n: int, cap_bits: int = DEFAULT_CAP_BITS, memo=None) -> TowerInt:
    """f_alpha(n) by the definition: the c successor steps of alpha = beta + c
    in a loop, and for a limit beta the max of f_{beta[k]}(n) over k <= n,
    memoized per (ordinal, n); the library's closed form is checked against it."""
    memo = {} if memo is None else memo
    if (alpha, n) not in memo:
        beta, steps = alpha, 0
        if alpha.terms and not _is_limit(alpha):
            beta, steps = Ordinal(alpha.terms[:-1]), alpha.terms[-1][1]
        if beta.is_zero:  # f_c(n) is 2^n under c more successor steps
            val, steps = TowerInt.of(n), steps + 1
        else:
            val = max(_reference_fgh(fundamental(beta, k), n, cap_bits, memo) for k in range(n + 1))
        while steps and val.is_exact:
            val, steps = tower_pow2(val, cap_bits), steps - 1
        memo[alpha, n] = TowerInt(val.height + steps, val.top)
    return memo[alpha, n]


def test_parse_examples():
    assert ord_parse("w*2+3").terms == ((nat(1), 2), (ZERO, 3))
    assert ord_parse("w^w") == Ordinal(((ord_parse("w"), 1),))
    assert ord_parse("0") == ZERO
    assert str(ord_parse("w^(w+1)*2+w*3+1")) == "w^(w+1)*2+w*3+1"


def test_parse_rejects_non_canonical():
    with pytest.raises(OrdinalParseError):
        ord_parse("1+w")
    with pytest.raises(OrdinalParseError):
        ord_parse("w+w")
    with pytest.raises(OrdinalParseError):
        ord_parse("w*0")
    with pytest.raises(OrdinalParseError):
        ord_parse("w^")


def test_compare_examples():
    assert ord_parse("w") > ord_parse("5")
    assert ord_parse("w*2+1") > ord_parse("w*2")
    assert ord_parse("w^w") > ord_parse("w*9")
    assert ord_parse("w+3") == ord_parse("w+3")
    assert ord_parse("w^2") < ord_parse("w^w")


def test_fundamental_examples():
    assert fundamental(ord_parse("w"), 3) == nat(3)
    assert fundamental(ord_parse("w*2"), 4) == ord_parse("w+4")
    assert fundamental(ord_parse("w^2"), 2) == ord_parse("w*2")
    assert fundamental(ord_parse("w^w"), 2) == ord_parse("w^2")
    assert fundamental(ord_parse("w^w+w"), 5) == ord_parse("w^w+5")
    with pytest.raises(ValueError):
        fundamental(ord_parse("w+1"), 3)
    with pytest.raises(ValueError):
        fundamental(ZERO, 3)


def test_fundamental_is_increasing_and_below():
    for text in ["w", "w*2", "w*5", "w^2", "w^3+w^2*2", "w^w", "w^(w^w)", "w^(w+1)"]:
        lam = ord_parse(text)
        prev = None
        for k in range(0, 6):
            cur = fundamental(lam, k)
            assert cur < lam
            if prev is not None:
                assert prev < cur
            prev = cur


def test_fgh_base_values():
    assert fgh_eval(ZERO, 3).exact == 8  # 2^n at the base
    assert fgh_eval(nat(1), 2).exact == 16
    assert fgh_eval(nat(2), 3).exact == 2**256
    assert fgh_eval(ord_parse("w"), 2).exact == 65536
    assert fgh_eval(ord_parse("w+1"), 1).exact == 16


def _tower_max(vals):
    best = vals[0]
    for v in vals[1:]:
        if v > best:
            best = v
    return best


def test_fgh_limit_rule_matches_explicit_formulas():
    # f_w(n) = max_{k<=n} f_k(n) and f_{2w}(n) = max_{k<=n} f_{w+k}(n)
    for n in (0, 1, 2):
        direct = _tower_max([fgh_eval(nat(k), n) for k in range(n + 1)])
        assert fgh_eval(ord_parse("w"), n) == direct
    for n in (0, 1, 2):
        direct = _tower_max(
            [fgh_eval(ord_parse(f"w+{k}") if k else ord_parse("w"), n)
             for k in range(n + 1)]
        )
        assert fgh_eval(ord_parse("w*2"), n) == direct


def test_fgh_successor_rule_exact():
    for alpha in ["0", "1", "2", "w", "w+1"]:
        a = ord_parse(alpha)
        for n in (0, 1, 2):
            fa = fgh_eval(a, n)
            fs = fgh_eval(_succ(a), n)
            if fa.is_exact and fs.is_exact:
                assert fs.exact == 2**fa.exact


def _succ(a: Ordinal) -> Ordinal:
    if a.terms and a.terms[-1][0].is_zero:
        exp, coeff = a.terms[-1]
        return Ordinal(a.terms[:-1] + ((exp, coeff + 1),))
    return Ordinal(a.terms + ((ZERO, 1),))


def test_fgh_monotone_in_n_where_exact():
    for alpha in ["0", "1", "w", "w+1", "w*2"]:
        a = ord_parse(alpha)
        prev = None
        for n in range(0, 4):
            v = fgh_eval(a, n)
            if prev is not None and prev.is_exact and v.is_exact:
                assert prev.exact < v.exact
            prev = v


# ordinals up to two levels of exponents, and the long successor chains
_GRID_ORDINALS = [
    "0", "1", "2", "w", "w+1", "w+2", "w*2", "w*2+1", "w*2+2", "w^2", "w^2+1", "w^2+2",
    "w^2+w", "w^2+w*2", "w^2*2", "w^2*2+1", "w^2*2+w", "w^2*2+w*2", "w^3", "w^3+w^2+w+1",
    "w^3*2+w", "w^w", "w^(w+1)", "w^(w*2)", "2000", "w+2000",
]
_GRID_CAPS = (1, 8, 256, DEFAULT_CAP_BITS)


def test_closed_form_equals_the_definition_on_a_grid():
    rows = [(a, n, cap) for a in _GRID_ORDINALS for n in range(4) for cap in _GRID_CAPS]
    assert len(rows) == 416
    for text, n, cap in rows:
        a = ord_parse(text)
        assert fgh_eval(a, n, cap) == _reference_fgh(a, n, cap), (text, n, cap)


def test_each_step_of_a_fundamental_sequence_raises_f_at_n():
    # the lemma behind the closed form: for a limit lam and k < n,
    # f_{lam[k]}(n) <= f_{lam[k+1]}(n), so the limit rule's max is at k = n
    limits = ["w", "w*2", "w^2", "w^2+w", "w^3", "w^w", "w^w+w^2", "w^(w+1)", "w^(w*2)"]
    for text in limits:
        lam = ord_parse(text)
        for n in range(1, 4):
            for cap in (8, DEFAULT_CAP_BITS):
                memo = {}
                vals = [_reference_fgh(fundamental(lam, k), n, cap, memo) for k in range(n + 1)]
                assert vals == sorted(vals), (text, n, cap)


def test_tower_representation():
    v = fgh_eval(nat(3), 3)
    assert not v.is_exact and (v.height, v.top) == (4, 3)
    assert v.as_dict() == {"tower": 4, "top": 3}
    # 2^(2^256) canonicalizes by peeling powers of two off the top
    t = tower_pow2(TowerInt.of(2**256), cap_bits=1024)
    assert (t.height, t.top) == (4, 3)
    assert TowerInt.of(10**100) < t < TowerInt(height=5, top=3)
    # f_5(1) = 2^(2^65536) peels down to top 0; each further step adds a 2
    assert fgh_eval(nat(5), 1) == TowerInt(height=7, top=0)
    assert fgh_eval(nat(6), 1) == TowerInt(height=8, top=0)


def test_exact_values_print_in_decimal_up_to_4300_digits():
    assert TowerInt.of(10**4300 - 1).as_dict() == {"exact": 10**4300 - 1}
    assert TowerInt.of(10**4300).as_dict() == {"exact_hex": hex(10**4300)}


def test_a_height_too_tall_to_print_is_refused():
    # a height prints in decimal, and 10^4300 is the least int of 4,301 digits;
    # f_w(n) is 2^x applied n + 1 times to n, a tower of n + 1 twos over n
    n = 10**4300 - 2
    assert fgh_eval(ord_parse("w"), n) == TowerInt(10**4300 - 1, n)
    with pytest.raises(ValueError, match="too tall to print"):
        fgh_eval(ord_parse("w"), n + 1)
    with pytest.raises(ValueError, match="too tall to print"):  # before 2^(2^65536) is built
        fgh_eval(ord_parse("w^w^w^w^w^1"), 2)


def test_cap_bits_boundary():
    # 2^256 has 257 bits: exact at the default cap, symbolic below it
    assert fgh_eval(nat(2), 3, cap_bits=DEFAULT_CAP_BITS).is_exact
    small = fgh_eval(nat(2), 3, cap_bits=256)
    assert not small.is_exact


def test_dominance_report():
    rep = dominance_check(ZERO, nat(1), [1, 2, 3])
    assert [r["beta_vs_alpha"] for r in rep["points"]] == [">", ">", ">"]
    assert rep["first_crossing"] == 1 and rep["strict_from_crossing_on"]
    rep = dominance_check(ord_parse("w"), ord_parse("w+1"), [1, 2, 3])
    assert rep["first_crossing"] == 1 and rep["strict_from_crossing_on"]
    with pytest.raises(ValueError):
        dominance_check(ord_parse("w"), ord_parse("w"), [1])
    with pytest.raises(ValueError):
        dominance_check(ord_parse("w+1"), ord_parse("w"), [1])


def test_str_prints_exact_values_past_4300_digits_in_hex():
    v = fgh_eval(nat(4), 1)  # 2^65536: 19,729 decimal digits
    assert str(v) == hex(2**65536) and v.as_dict() == {"exact_hex": hex(2**65536)}
    assert str(TowerInt.of(10**4300 - 1)) == str(10**4300 - 1)
    assert str(TowerInt(height=2, top=5)) == "2^2^5"


def test_tuple_order_is_ordinal_and_value_order():
    texts = ["0", "1", "2", "w", "w+1", "w*2", "w^2", "w^2+w", "w^w", "w^(w+1)", "w^w^w"]
    ords = [ord_parse(t) for t in texts]
    assert sorted(reversed(ords)) == ords
    values = [TowerInt.of(0), TowerInt.of(2**64), TowerInt(1, 65), TowerInt(1, 99), TowerInt(2, 3)]
    assert sorted(reversed(values)) == values
    assert all(a < b for a, b in zip(values, values[1:]))


def _parse_rows(alphabet, max_len):
    rows = []
    for length in range(1, max_len + 1):
        for chars in itertools.product(alphabet, repeat=length):
            s = "".join(chars)
            try:
                rows.append((s, str(ord_parse(s))))
            except ValueError as e:
                rows.append((s, type(e).__name__, str(e)))
    return rows


def test_parser_is_frozen_on_every_short_string():
    # every string of 1-5 characters over the grammar's symbols, with the
    # printed ordinal or the error raised first; frozen before the parser
    # became two recursive-descent functions
    rows = _parse_rows("w^*+()0123", 5)
    assert len(rows) == 111_110
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "7d8f0281537cfb6e076578a7098cdb15d676a04e5cf93b1ee3523c9fd235bf84")


def test_fgh_values_are_frozen_on_every_short_ordinal():
    # the 73 ordinals that strings of 1-3 characters parse to, at n = 0..3
    # under a small and the default cap; frozen before TowerInt became
    # (height, top)
    ords = sorted({str(ord_parse(r[0])) for r in _parse_rows("w^*+()0123", 3) if len(r) == 2})
    assert len(ords) == 73
    rows = [(o, n, cap, fgh_eval(ord_parse(o), n, cap).as_dict())
            for o in ords for n in range(4) for cap in (64, DEFAULT_CAP_BITS)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "d42ae4aeae5102d0bbe69b36612d34ee84799312a3726f274630d940ece9cf62")
