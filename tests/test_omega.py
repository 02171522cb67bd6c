"""Halting-probability engine: capped sums, the oracle, block normality."""

import pytest

from omegalab.bits import Dyadic, dyadic_bits
from omegalab.complexity import STRUCTURAL, Ensemble, enumerate_halting, explicit_records
from omegalab.omega import (
    OracleResult,
    borel_normality,
    decided_halting_set,
    omega_exact_capped,
    omega_lower_bound,
    oracle_halting_from_omega,
)


def test_lower_bound_examples():
    assert omega_lower_bound(Ensemble("sd", 15, 100)).mass == Dyadic.zero()
    lo = omega_lower_bound(Ensemble("sd", 16, 100))
    assert lo.mass == Dyadic.pow2(16) and lo.contributing == 1
    assert omega_lower_bound(Ensemble("total", 0, 100)).mass == Dyadic.zero()
    with pytest.raises(ValueError):
        omega_lower_bound(Ensemble("c2", 16, 100))


def test_exact_capped_values():
    assert omega_exact_capped(15).mass == Dyadic.zero()
    ex24 = omega_exact_capped(24)
    assert ex24.mass == Dyadic.pow2(16) and ex24.contributing == 1
    # 2^-16 + 2*2^-25, by hand
    assert omega_exact_capped(25).mass == Dyadic(257, 24)


def test_exact_agrees_with_lower_bound_at_structural_budget():
    ex = omega_exact_capped(24)
    lo = omega_lower_bound(Ensemble("total", 24, 3))  # 3 subexpressions suffice for 3-char prefixes
    assert ex.mass == lo.mass
    assert ex.mass == omega_lower_bound(Ensemble("total", 24, 10**4)).mass


def test_monotone_in_cap():
    values = [omega_exact_capped(L).mass for L in (15, 16, 20, 24, 25, 32)]
    for a, b in zip(values, values[1:]):
        assert a <= b
    assert all(v <= Dyadic.one() for v in values)


def test_double_monotonicity_grid():
    values = {}
    for L in (16, 20, 24):
        for B in (1, 10, 100):
            values[L, B] = omega_lower_bound(Ensemble("total", L, B)).mass
    for L1, B1 in values:
        for L2, B2 in values:
            if L1 <= L2 and B1 <= B2:
                assert values[L1, B1] <= values[L2, B2]


def test_oracle_trivial_and_exact():
    res = oracle_halting_from_omega("", Ensemble("total", 24, STRUCTURAL))
    assert not res.tripped and res.halting_set == ()
    res = oracle_halting_from_omega("0" * 12, Ensemble("total", 24, STRUCTURAL))
    assert not res.tripped and res.halting_set == decided_halting_set(24, 12)
    kbits = dyadic_bits(omega_exact_capped(24).mass, 16)
    res = oracle_halting_from_omega(kbits, Ensemble("total", 24, STRUCTURAL))
    assert not res.tripped
    assert res.halting_set == decided_halting_set(24, 16)
    assert len(res.halting_set) == 1


def test_oracle_completeness_l25():
    val = omega_exact_capped(25).mass
    for k in (16, 20, 25):
        res = oracle_halting_from_omega(dyadic_bits(val, k), Ensemble("total", 25, STRUCTURAL))
        assert not res.tripped
        assert res.halting_set == decided_halting_set(25, k)


def test_oracle_corrupted_bits_trip_guard():
    res = oracle_halting_from_omega("0" * 11 + "1", Ensemble("total", 24, STRUCTURAL))
    assert res.tripped and "exhausted" in res.reason
    with pytest.raises(ValueError):
        oracle_halting_from_omega("0" * 30, Ensemble("total", 24, STRUCTURAL))  # k exceeds the cap
    with pytest.raises(ValueError, match="guard >= 0"):
        oracle_halting_from_omega("1", Ensemble("total", 24, STRUCTURAL), guard=-1)


def test_oracle_kbits_must_be_a_bit_string():
    # int(kbits, 2) alone reads "0_1" as 1 and ignores the spaces
    ens = Ensemble("total", 24, STRUCTURAL)
    for kbits in ("0_1", "  1", "1 "):
        with pytest.raises(ValueError, match=f"bit string, got {kbits!r}"):
            oracle_halting_from_omega(kbits, ens)
    res = oracle_halting_from_omega("0" * 15 + "1", ens)  # the first 16 bits of capped omega
    assert not res.tripped and res.halting_set == decided_halting_set(24, 16)


def test_oracle_needs_the_decidable_ensemble():
    for ens in (Ensemble("sd", 24, 10**4), Ensemble("total", 24, 10**4)):
        with pytest.raises(ValueError, match="total at the structural budget"):
            oracle_halting_from_omega("0", ens)


def _dovetail(kbits, records, guard):
    # the oracle taken member by member, as it ran before counted records:
    # every program listed, sorted in dovetail order, added one by one
    target = Dyadic(int(kbits or "0", 2), len(kbits))
    acc, spent, halted = Dyadic.zero(), 0, []
    if acc >= target:
        return OracleResult(False, None, (), acc, 0), None
    for rec in records:
        spent += rec.steps
        if spent > guard:
            return OracleResult(True, "step guard exhausted", (), acc, spent), rec
        acc = acc + Dyadic.pow2(rec.size_bits)
        if rec.size_bits <= len(kbits):
            halted.append(rec.program_bits)
        if acc >= target:
            return OracleResult(False, None, tuple(sorted(halted, key=lambda b: (len(b), b))), acc, spent), rec
    return OracleResult(True, "ensemble exhausted below target (kbits inconsistent)", (), acc, spent), None


@pytest.mark.parametrize("c_cap", [5, 6, 7])
def test_oracle_equals_a_member_by_member_dovetail(c_cap):
    # every k <= L, with consistent kbits, kbits one ulp low and random kbits,
    # under guards that trip early and late: all five fields agree
    import random

    L = 8 * c_cap + 7
    ens = Ensemble("total", L, STRUCTURAL, c_cap)
    records = sorted(enumerate_halting(ens), key=lambda r: (r.steps, r.size_bits, r.program_bits))
    # the members of counted records: each one's own program and the members listed beside it
    counted = {r.program_bits for r in records} - {r.program_bits for r in explicit_records(ens) if r.count == 1}
    value = omega_exact_capped(L).mass
    rng = random.Random(c_cap)
    stops = {"tripped": 0, "counted": 0}
    for k in range(L + 1):
        consistent = dyadic_bits(value, k)
        cases = [consistent, "".join(rng.choice("01") for _ in range(k))]
        if "1" in consistent:
            cases.append(format(int(consistent, 2) - 1, f"0{k}b"))  # one ulp low
        for kbits in cases:
            for guard in (0, 1, 3, 50, 500, 10**8):
                expected, last = _dovetail(kbits, records, guard)
                assert oracle_halting_from_omega(kbits, ens, guard) == expected, (k, kbits, guard)
                stops["tripped"] += expected.tripped
                stops["counted"] += last is not None and last.program_bits in counted and last.size_bits > k
    assert stops["tripped"] and stops["counted"]  # guard trips, and stops inside a counted record


def test_normality_examples():
    assert borel_normality("000000", 1, "0.1")["verdict"] == "fail"
    assert borel_normality("01010101", 1, "0.1")["verdict"] == "pass"
    rep = borel_normality("01010101", 2, "0.1")
    assert rep["verdict"] == "fail"
    assert rep["frequencies"]["01"]["count"] == 4
    assert rep["blocks"] == 4


def test_normality_domain_errors():
    with pytest.raises(ValueError):
        borel_normality("01", 0, "0.1")
    with pytest.raises(ValueError):
        borel_normality("0", 2, "0.1")


def test_conversion_failure_mass_reported():
    ex = omega_exact_capped(32)
    assert ex.conv_fail_mass > Dyadic.zero()  # (qa)-style programs halt without output
    assert ex.conv_fail_mass <= ex.mass


def test_kraft_check_raises_on_fabricated_records(monkeypatch):
    from omegalab import complexity, omega
    from omegalab.bits import InvariantError
    from omegalab.complexity import HaltRecord

    # "0", "1" and "00" are not prefix-free: their Kraft sum is 5/4
    fake = [HaltRecord("0", "", None, 1, 1), HaltRecord("1", "1", None, 1, 1),
            HaltRecord("00", None, None, 1, 2)]
    monkeypatch.setattr(complexity, "_store", {})
    monkeypatch.setattr(complexity, "_sweep", lambda *args: list(fake))
    monkeypatch.setattr(omega, "build_table", complexity.build_table.__wrapped__)  # bypass the memo
    with pytest.raises(InvariantError, match="Kraft"):
        omega_lower_bound(Ensemble("sd", 2, 100))
