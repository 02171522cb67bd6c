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
    fundamental,
    nat,
    ord_parse,
    tower_pow2,
)


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
    memo = {}
    for n in (0, 1, 2):
        direct = _tower_max([fgh_eval(nat(k), n, _memo=memo) for k in range(n + 1)])
        assert fgh_eval(ord_parse("w"), n, _memo=memo) == direct
    for n in (0, 1, 2):
        direct = _tower_max(
            [fgh_eval(ord_parse(f"w+{k}") if k else ord_parse("w"), n, _memo=memo)
             for k in range(n + 1)]
        )
        assert fgh_eval(ord_parse("w*2"), n, _memo=memo) == direct


def test_fgh_successor_rule_exact():
    memo = {}
    for alpha in ["0", "1", "2", "w", "w+1"]:
        a = ord_parse(alpha)
        for n in (0, 1, 2):
            fa = fgh_eval(a, n, _memo=memo)
            fs = fgh_eval(_succ(a), n, _memo=memo)
            if fa.is_exact and fs.is_exact:
                assert fs.exact == 2**fa.exact


def _succ(a: Ordinal) -> Ordinal:
    if a.is_successor:
        exp, coeff = a.terms[-1]
        return Ordinal(a.terms[:-1] + ((exp, coeff + 1),))
    return Ordinal(a.terms + ((ZERO, 1),))


def test_fgh_monotone_in_n_where_exact():
    memo = {}
    for alpha in ["0", "1", "w", "w+1", "w*2"]:
        a = ord_parse(alpha)
        prev = None
        for n in range(0, 4):
            v = fgh_eval(a, n, _memo=memo)
            if prev is not None and prev.is_exact and v.is_exact:
                assert prev.exact < v.exact
            prev = v


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
