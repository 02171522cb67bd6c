"""The three machines: blank-endmarker c2, self-delimiting sd, total restriction."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import spec
from omegalab.complexity import (Ensemble, algorithmic_probability, check_chain_rule, check_coding, joint_complexity,
                                 relative_complexity)
from omegalab.bits import is_prefix_free
from omegalab.machines import (
    STRUCTURAL,
    Program,
    continue_run,
    covers,
    in_domain,
    output_of,
    pair_output_of,
    program_from_text,
    run_c2,
    run_sd,
    run_machine,
    run_total,
    split_program_bits,
    structural_budget,
)
from omegalab.omega import omega_lower_bound
from omegalab.sexpr import parse, to_bits
from omegalab.vm import FAULTED, HALTED, RunOutcome, eval_expr


def test_program_size_additive():
    p = Program(parse("(r)"), "10")
    assert p.size_bits == 24 + 2
    assert p.bits == to_bits(parse("(r)")) + "10"
    with pytest.raises(ValueError):
        Program("a", "")


def test_c2_zero_branch():
    out = run_c2("0101", 10)
    assert out.halted and "".join(out.value) == "101" and out.steps == 1
    out = run_c2("0", 10)
    assert out.halted and out.value == ()


def test_c2_edge_cases():
    assert run_c2("", 10).kind == "faulted"
    assert run_c2("1", 10).kind == "faulted"  # nothing to decode
    # derived by hand-trace: (qa) evaluates to the atom a, which is not a bit list
    out = run_c2("1" + to_bits(parse("(qa)")), 10)
    assert out.kind == "faulted" and out.reason.startswith("conversion")
    # trailing bits after a complete expression are a decode fault
    assert run_c2("1" + to_bits(parse("(q())")) + "0", 10).kind == "faulted"


def test_c2_one_branch_runs_general_fragment():
    out = run_c2("1" + to_bits(parse("(q(01))")), 100)
    assert out.halted and "".join(out.value) == "01"
    # payload channel is empty on c2
    assert run_c2("1" + to_bits(parse("(r)")), 100).kind == "faulted"


def test_c2_zero_branch_halts_for_all_suffixes():
    for n in range(0, 10):
        for i in range(1 << n):
            suffix = format(i, f"0{n}b") if n else ""
            out = run_c2("0" + suffix, 10)
            assert out.halted and "".join(out.value) == suffix


def test_sd_domain_examples():
    out = run_sd(Program(parse("(r)"), "1"), 100)
    assert out.halted and output_of(out) == "1"  # single bit atom wraps
    # under-consumption is a payload overrun for domain purposes
    out = run_sd(Program(parse("(r)"), "10"), 100)
    assert out.kind == "faulted" and out.reason == "payload-overrun"
    out = run_sd(Program(parse("(q())"), ""), 100)
    assert out.halted and output_of(out) == ""


def test_total_machine():
    out = run_total(Program(parse("(c(r)(q()))"), "0"), 100)
    assert out.halted and output_of(out) == "0"
    assert run_total(Program(parse("(y(lf(lxx)))"), ""), 100).reason == "fragment"
    assert run_total(Program(parse("(q())"), "1"), 100).reason == "payload-overrun"
    assert structural_budget(parse("(c(r)(q()))")) == 7


def test_structural_budget_is_the_subexpression_count():
    def count(e):
        return 1 if isinstance(e, str) else 1 + sum(count(x) for x in e)

    for e in spec.trees(5, atoms=True):
        assert structural_budget(e) == count(e)
    deep = parse("(q" + "(" * 900 + ")" * 900 + ")")  # past the host recursion limit as a recursive count
    assert structural_budget(deep) == 902


def test_total_resolves_the_structural_budget():
    p = Program(parse("(c(r)(q()))"), "1")
    assert run_total(p, STRUCTURAL) == run_total(p, 7) == run_total(p, 10**4)
    assert run_total(Program(parse("(c(r)(c(r)(q())))"), "1"), STRUCTURAL).reason == "payload-underrun"
    assert run_total(Program(parse("(lxx)"), ""), STRUCTURAL).reason == "fragment"


def test_in_domain_examples():
    bits = to_bits(parse("(q())"))
    assert in_domain("sd", bits, 100)
    assert not in_domain("sd", bits + "0", 100)
    assert not in_domain("sd", "1" * 24, 100)
    with pytest.raises(ValueError):
        in_domain("c2", bits, 100)


def test_output_conventions():
    out = run_sd(Program(parse("(qa)"), ""), 100)
    assert out.halted and output_of(out) is None  # unconvertible but in domain
    out = run_sd(Program(parse("(q(()()))"), ""), 100)
    assert pair_output_of(out) == ("", "")


def _halted(v):
    return RunOutcome(HALTED, value=v)


def test_value_conversions():
    assert output_of(_halted(("0", "1", "1"))) == "011"
    assert output_of(_halted(())) == ""
    assert output_of(_halted(("a",))) is None
    assert run_c2("1" + to_bits(parse("(q0)")), 10).reason == "conversion: value is not a list"
    assert pair_output_of(_halted((("0", "1"), ("1",)))) == ("01", "1")
    assert pair_output_of(_halted(((), ()))) == ("", "")
    assert pair_output_of(_halted(("0", "1", "1"))) is None


# -- the output conventions against the spec


def _list_of(items):
    expr = ("q", ())
    for item in reversed(items):
        expr = ("c", item, expr)
    return expr


# expressions of the general fragment whose values are built from the atoms 0,
# 1 and a, a closure (lxx) and a y-wrapper (y(lf(lxx))), nested in lists
_VALUE_EXPRS = st.recursive(
    st.sampled_from([("q", "0"), ("q", "1"), ("q", "a"), ("l", "x", "x"), ("y", ("l", "f", ("l", "x", "x")))]),
    lambda items: st.lists(items, max_size=3).map(_list_of),
    max_leaves=10,
)


@settings(max_examples=300)
@given(_VALUE_EXPRS)
@example(_list_of([_list_of([("q", "0"), ("q", "1")]), _list_of([])]))  # a pair output
def test_conversion_matches_the_spec(expr):
    out = eval_expr(expr, 10**4)
    assert out.halted
    v = out.value
    assert output_of(out) == spec.output(v)
    assert pair_output_of(out) == spec.pair(v)
    c2 = run_c2("1" + to_bits(expr), 10**4)
    if spec.bits_of(v) is None:  # c2 names what the value is not
        why = "a flat list of bit atoms" if isinstance(v, tuple) else "a list"
        assert c2 == RunOutcome(FAULTED, steps=out.steps, reason=f"conversion: value is not {why}")
    else:
        assert c2 == RunOutcome(HALTED, value=tuple(spec.bits_of(v)), steps=out.steps)


def _raw_domain_scan(machine: str, max_len: int, budget: int):
    members = []
    for n in range(0, max_len + 1):
        for i in range(1 << n):
            bits = format(i, f"0{n}b") if n else ""
            if in_domain(machine, bits, budget):
                members.append(bits)
    return members


def test_structural_scan_equals_raw_scan(domain_members):
    # the factorized scan is provably exhaustive; cross-check it bit by bit
    raw = _raw_domain_scan("sd", 18, 1000)
    assert raw == domain_members("sd", 18, 1000)


def test_domain_prefix_free_and_extension_dead(domain_members):
    members = domain_members("sd", 26, 10**4)
    ok, witness = is_prefix_free(members)
    assert ok, witness
    for m in members:
        assert not in_domain("sd", m + "0", 10**4)
        assert not in_domain("sd", m + "1", 10**4)


@pytest.mark.parametrize("machine, prefix, first, longer, budget", [
    ("sd", "(c(r)(c(r)(q())))", "", ["0", "01", "011"], 100),  # an underrun, resumed
    ("sd", "(c(r)(c(s)(q())))", "1", ["10", "11"], 100),  # an aux underrun, continued with no aux
    ("total", "(c(r)(c(r)(q())))", "1", ["10", "101"], STRUCTURAL),
    ("sd", "(c(r)(q()))", "1", ["1", "10"], 100),  # halted: a longer payload overruns
    ("sd", "(c(r)(q()))", "10", ["101"], 100),  # an overrun stands
    ("sd", "(c(r)(c(r)(q())))", "", ["11"], 2),  # out of budget before the read
    ("total", "(c(r)((lxx)(q())))", "", ["1"], 100),  # the fragment fault stands
    ("sd", "(c(r)(h(q())))", "", ["1"], 100),  # a fault after the read
])
def test_continue_run_gives_run_machine_on_the_longer_program(machine, prefix, first, longer, budget):
    out = run_machine(machine, Program(parse(prefix), first), budget)
    for payload in longer:
        p = Program(parse(prefix), payload)
        got, fresh = continue_run(out, p), run_machine(machine, p, budget)
        assert (type(got), tuple(got)) == (type(fresh), tuple(fresh)), payload


def test_split_program_bits_roundtrip():
    p = Program(parse("(c(r)(q()))"), "0")
    assert split_program_bits(p.bits) == p


def test_program_text_roundtrip():
    for p in (Program(parse("(c(r)(q()))"), "0"), Program(parse("()"), ""), Program(parse("(r)"), "101")):
        assert program_from_text(str(p)) == p
    with pytest.raises(ValueError, match="index 1"):
        program_from_text("(r)|0x")
    with pytest.raises(ValueError):
        program_from_text("a|0")  # an atom is no program prefix


def test_covers_truth_table():
    # a budget B covers a run of k steps when B >= k; STRUCTURAL covers every
    # run, and only STRUCTURAL covers STRUCTURAL
    table = {B: [covers(B, steps) for steps in (0, 1, 4, 5, STRUCTURAL)] for B in (0, 1, 4, STRUCTURAL)}
    assert table == {0: [True, False, False, False, False], 1: [True, True, False, False, False],
                     4: [True, True, True, False, False], STRUCTURAL: [True, True, True, True, True]}


_C2 = Ensemble("c2", 4, 10)


@pytest.mark.parametrize("call", [
    lambda: run_machine("c2", Program(parse("(q0)")), 10),
    lambda: in_domain("c2", "0", 10),
    lambda: omega_lower_bound(_C2),
    lambda: algorithmic_probability(_C2, "0"),
    lambda: joint_complexity(_C2, "0", "1"),
    lambda: relative_complexity(_C2, "0", ""),
    lambda: check_coding(_C2),
    lambda: check_chain_rule(_C2, [("01010", "1")]),
], ids=["run_machine", "in_domain", "omega_lower_bound", "algorithmic_probability", "joint_complexity",
        "relative_complexity", "check_coding", "check_chain_rule"])
def test_every_prefix_free_quantity_refuses_c2_alike(call):
    # c2's domain is not prefix-free (0 and 01 both halt), so no Kraft sum,
    # coding theorem or chain rule holds for it; machines states the refusal once
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).endswith("needs a prefix-free machine (sd or total), got 'c2'")
