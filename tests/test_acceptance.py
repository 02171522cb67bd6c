"""Acceptance criteria, one test per criterion, exact at desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The tolerances are zero wherever the criteria say so; the
reports asserted bit-identical are compared as rendered bytes.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omegalab
from spec import PAIR_ALPHABET
from omegalab.bits import Dyadic, dyadic_bits, is_prefix_free
from omegalab.complexity import (
    STRUCTURAL,
    Ensemble,
    build_table,
    check_chain_rule,
    check_coding,
    complexity_upper,
)
from omegalab.hierarchy import dominance_check, fgh_eval, nat, ord_parse
from omegalab.incompleteness import (
    UnsoundFASError,
    bundled_omega_fas,
    bundled_sound_fas,
    bundled_unsound_fas,
    elegance_ceiling_experiment,
    omega_bits_ceiling_experiment,
)
from omegalab.omega import decided_halting_set, omega_exact_capped, omega_lower_bound
from omegalab.reports import emit_json, omega_report

BUDGET = 10**4


def criterion(n, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                detail = fn(*a, **kw)
            except BaseException:
                print(f"criterion {n:2d}: FAIL - {summary}")
                raise
            print(f"criterion {n:2d}: PASS - {summary}" + (f" ({detail})" if detail else ""))

        return wrapper

    return deco


@criterion(1, "c2 max complexity of n-bit strings is n+1 for n in 1..8")
def test_criterion_1_c2_max_complexity():
    for n in range(1, 9):
        table = build_table(Ensemble("c2", n + 1, BUDGET))
        hs = []
        for i in range(1 << n):
            x = format(i, f"0{n}b")
            res = complexity_upper(Ensemble("c2", n + 1, BUDGET), x)
            assert res.found and res.exact, (n, x)
            hs.append(res.h_upper)
        assert max(hs) == n + 1, n
    return "exact, zero tolerance"


@criterion(2, "counting bound |{x : H(x) < m}| < 2^m on c2 for m in 1..9")
def test_criterion_2_counting_bound():
    table = build_table(Ensemble("c2", 9, BUDGET))
    counts = []
    for m in range(1, 10):
        count = sum(1 for e in table.entries.values() if e.h_upper < m)
        assert count < 2**m, m
        counts.append(count)
    return f"counts {counts}"


@criterion(3, "sd domain is prefix-free over all bit strings of length <= 26")
def test_criterion_3_prefix_free_domain(domain_members):
    members = domain_members("sd", 26, BUDGET)
    ok, witness = is_prefix_free(members)
    assert ok, witness
    return f"{len(members)} domain members"


_reports = {}


def _criterion4_report() -> str:
    grid = []
    for L in (16, 18, 20, 22, 24):
        for B in (10**2, 10**3, 10**4):
            approx = omega_lower_bound(Ensemble("total", L, B))
            grid.append({"L": L, "B": B, "value": str(approx.mass)})
    return emit_json({"grid": grid})


@criterion(4, "omega lower bounds are monotone on the (L, B) grid and <= 1")
def test_criterion_4_omega_monotone():
    values = {}
    for L in (16, 18, 20, 22, 24):
        for B in (10**2, 10**3, 10**4):
            values[L, B] = omega_lower_bound(Ensemble("total", L, B)).mass
            assert values[L, B] <= Dyadic.one()
    for (L1, B1), v1 in values.items():
        for (L2, B2), v2 in values.items():
            if L1 <= L2 and B1 <= B2:
                assert v1 <= v2, ((L1, B1), (L2, B2))
    _reports["c4"] = _criterion4_report()
    return f"omega(total, 24, 10^4) = {values[24, 10**4]}"


@criterion(5, "capped exact omega equals the lower bound at the structural budget")
def test_criterion_5_capped_agreement():
    exact = omega_exact_capped(24)
    b_star = 24 // 8  # one step per subexpression; 3-character prefixes at most
    lower = omega_lower_bound(Ensemble("total", 24, b_star))
    assert exact.mass == lower.mass
    assert exact.contributing == lower.contributing
    return f"value {exact.mass} at B* = {b_star}"


@criterion(6, "omega-bit oracle recovers the decided halting set for k <= 16")
def test_criterion_6_oracle_completeness():
    from omegalab.omega import oracle_halting_from_omega

    # capped omega at L = 24 is 1/2^16: only k = 16 makes the oracle dovetail
    exact = omega_exact_capped(24)
    for k in range(0, 17):
        kbits = dyadic_bits(exact.mass, k)
        res = oracle_halting_from_omega(kbits, Ensemble("total", 24, STRUCTURAL))
        assert not res.tripped, k
        direct = decided_halting_set(24, k)
        assert res.halting_set == direct, k
    assert res.halting_set, "at k = 16 the oracle finds a halting program"
    return "set equality for every k in 0..16"


def _criterion7_report() -> str:
    return emit_json(check_coding(Ensemble("sd", 24, BUDGET)))


@criterion(7, "coding direction: prob(x) >= 2^-h(x) exactly on the sd sweep")
def test_criterion_7_coding_direction():
    rep = check_coding(Ensemble("sd", 24, BUDGET))
    columns, rows = rep["entries"]
    assert rows, "sweep produced no outputs"
    for row in rows:
        row = dict(zip(columns, row))
        prob = Dyadic.parse(row["prob"])
        assert prob >= Dyadic.pow2(row["h_upper"])
        assert row["defect"] >= 0
    again = check_coding(Ensemble("sd", 24, BUDGET))
    assert emit_json(rep) == emit_json(again), "rerun must be bit-identical"
    _reports["c7"] = _criterion7_report()
    return f"max defect {rep['max_defect']}"


def _criterion8_report() -> str:
    pairs = list(itertools.product(PAIR_ALPHABET, PAIR_ALPHABET))
    return emit_json(check_chain_rule(Ensemble("sd", 96, BUDGET), pairs))


@criterion(8, "subadditivity direction h(x,y) <= h(x) + h(y|x*) + K for |x|,|y| <= 2")
def test_criterion_8_chain_rule():
    pairs = list(itertools.product(PAIR_ALPHABET, PAIR_ALPHABET))
    rep = check_chain_rule(Ensemble("sd", 96, BUDGET), pairs)
    assert not rep["skipped"], rep["skipped"]
    assert len(rep["pairs"]) == 49
    for row in rep["pairs"]:
        assert row["composed_verified"], row
        assert row["h_xy"] <= row["h_x"] + row["h_y_given_xstar"] + rep["K"], row
    _reports["c8"] = emit_json(rep)
    return f"K = {rep['K']} bits, max |d| = {rep['max_abs_d']}"


@criterion(9, "fast-growing hierarchy exact values and dominance reports")
def test_criterion_9_fgh():
    assert fgh_eval(nat(0), 3).exact == 8
    assert fgh_eval(nat(1), 2).exact == 16
    assert fgh_eval(ord_parse("w"), 2).exact == 65536
    assert fgh_eval(ord_parse("w+1"), 1).exact == 16
    assert fgh_eval(nat(2), 3).exact == 2**256
    tower = fgh_eval(nat(3), 3, cap_bits=2**20)
    assert not tower.is_exact and (tower.height, tower.top) == (4, 3)
    for a, b in [("0", "1"), ("w", "w+1")]:
        rep = dominance_check(ord_parse(a), ord_parse(b), [1, 2, 3])
        assert rep["first_crossing"] == 1 and rep["strict_from_crossing_on"], (a, b)
    return "all exact, zero tolerance"


@criterion(10, "Berry/elegance ceiling: sound system consistent, unsound aborts and executes")
def test_criterion_10_berry_ceiling():
    budget = 10**7
    sound = elegance_ceiling_experiment(bundled_sound_fas(), budget)
    assert sound["verdict"] == "soundness-consistent"
    assert sound["max_elegant_size"] <= sound["threshold"]
    assert sound["berry_run"]["outcome"] == "out_of_budget"

    with pytest.raises(UnsoundFASError) as exc:
        elegance_ceiling_experiment(bundled_unsound_fas(), budget)
    rep = exc.value.report
    assert rep["verdict"] == "unsound"
    assert rep["false_theorem"]["index"] == 0
    assert len(rep["false_theorem"]["program_bits"]) > rep["threshold"]
    assert rep["berry_run"]["outcome"] == "halted"
    assert rep["berry_run"]["output"] == rep["false_theorem"]["output"]
    return (
        f"sound: max {sound['max_elegant_size']} <= T {sound['threshold']}; "
        f"unsound: P replicated output {rep['berry_run']['output']!r}"
    )


@criterion(11, "omega-bits ceiling: 8/8 correct; flipped variant aborts at its index")
def test_criterion_11_omega_bits():
    rep = omega_bits_ceiling_experiment(bundled_omega_fas(L=24, nbits=8), None, 10**6)
    assert rep["verdict"] == "all-correct" and rep["count_correct"] == 8
    with pytest.raises(UnsoundFASError) as exc:
        omega_bits_ceiling_experiment(bundled_omega_fas(L=24, nbits=8, flip_index=5), None, 10**6)
    assert exc.value.report["flipped_index"] == 5
    return f"count - N = {rep['count_minus_n']}"


def _sd7_report() -> str:
    # up to 7 characters sd runs 134 prefixes, where criteria 4, 7 and 8 run 16
    return emit_json(omega_report(omega_lower_bound(Ensemble("sd", 63, BUDGET, c_cap=7))))


_FRESH_REPORTS = """if True:
    import json, sys
    import test_acceptance as t
    json.dump({"c4": t._criterion4_report(), "c7": t._criterion7_report(), "c8": t._criterion8_report(),
               "sd7": t._sd7_report()}, sys.stdout)
"""


@criterion(12, "criteria 4, 7, 8 and an sd c_cap 7 sweep's reports are byte-identical under PYTHONHASHSEED 0 and 4242")
def test_criterion_12_hash_seed_determinism():
    # a set of strings iterates in an order the hash seed picks, so a report
    # that leaned on it would differ between fresh processes; this process's
    # own reports, under its seed, are compared too where made
    path = os.pathsep.join(filter(None, [str(Path(__file__).parent), str(Path(omegalab.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen([sys.executable, "-c", _FRESH_REPORTS], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed), text=True)
             for seed in ("0", "4242")]
    (zero, err0), (seed4242, err4242) = (proc.communicate() for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0] and (err0, err4242) == ("", ""), (err0, err4242)
    zero, seed4242 = json.loads(zero), json.loads(seed4242)
    for name, report in zero.items():
        assert report == seed4242[name], f"{name} differs between PYTHONHASHSEED 0 and 4242"
        assert _reports.get(name, report) == report, f"{name} differs between this process and a fresh one"
    return "byte-identical in two fresh processes"
