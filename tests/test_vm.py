"""Evaluator semantics: primitives, budgets, faults, the total fragment."""

import pytest
from hypothesis import given, settings, strategies as st

from omegalab.complexity import gen_exprs
from omegalab.machines import Program, run_total, subexpr_count
from omegalab.sexpr import ALPHABET, parse, print_sexpr
from omegalab.vm import (
    ConversionError,
    eval_expr,
    value_to_bitstring,
    value_to_pair,
)


def run(text, budget=100, payload="", aux=None):
    return eval_expr(parse(text), budget, payload, aux)


def test_quote():
    out = run("(qa)", budget=10)
    assert out.halted and out.value == "a" and out.payload_consumed == 0


def test_head_of_quoted_list():
    out = run("(h(q(ab)))", budget=10)
    assert out.halted and out.value == "a"


def test_budget_zero():
    assert run("(qa)", budget=0).kind == "out_of_budget"
    assert run("()", budget=0).halted  # the empty list costs no steps


def test_truthiness_and_if():
    assert run("(i(q())(q0)(q1))").value == "1"  # empty list is false
    assert run("(i(qa)(q0)(q1))").value == "0"  # atoms are true
    assert run("(i(q(x))(q0)(q1))").value == "0"  # nonempty lists are true


def test_equality_and_atom_test():
    assert run("(e(qa)(qa))").value == "1"
    assert run("(e(qa)(qb))").value == ()
    assert run("(e(q(ab))(q(ab)))").value == "1"
    assert run("(a(qa))").value == "1"
    assert run("(a(q()))").value == ()


def test_cons_head_tail():
    assert run("(c(q0)(q(1)))").value == ("0", "1")
    assert run("(h(q(abc)))").value == "a"
    assert run("(t(q(abc)))").value == ("b", "c")
    assert run("(h(q()))").kind == "faulted"
    assert run("(c(q0)(qa))").kind == "faulted"  # no improper lists


def test_payload_channel():
    out = run("(c(r)(q()))", payload="0")
    assert out.halted and out.value == ("0",) and out.payload_consumed == 1
    assert run("(r)", payload="").reason == "payload-underrun"


def test_aux_channel():
    out = run("(s)", aux="1")
    assert out.halted and out.value == "1" and out.aux_consumed == 1
    assert run("(s)").reason == "aux-underrun"
    assert run("(s)", aux="").reason == "aux-underrun"


def test_unbound_atom_faults():
    assert run("(ha)").kind == "faulted"  # bare atom argument is unbound
    assert run("a").kind == "faulted"


def test_lambda_and_application():
    out = run("((lx(cx(q())))(q1))")
    assert out.halted and out.value == ("1",)
    # shadowing is lexical
    out = run("((lx((lz(cx(cz(q()))))(q0)))(q1))")
    assert out.value == ("1", "0")


def test_lambda_param_restrictions():
    assert run("((lq(qq))(qa))").kind == "faulted"  # primitive names not bindable


def test_fixed_point_recursion():
    # walk a list to its end
    out = run("((y(lf(lx(ix(f(tx))(q())))))(q(abc)))", budget=1000)
    assert out.halted and out.value == ()
    # y of a non-closure faults
    assert run("(y(qa))").kind == "faulted"


def test_closures_are_not_data():
    assert run("(e(lxx)(lxx))").kind == "faulted"
    assert run("(a(lxx))").kind == "faulted"
    assert run("(h((lx(cx(q())))(lzz)))").halted  # but they may ride inside lists


def test_fragment_total_rejects_l_and_y():
    def total(text, payload=""):
        return run_total(Program(parse(text), payload), 100)

    assert total("(lxx)").reason == "fragment"
    assert total("(y(lf(lxx)))").reason == "fragment"
    assert total("(q(l))").reason == "fragment"  # syntactic, even under quote
    assert total("(c(r)(q()))", payload="0").halted


def test_determinism():
    a = run("(c(r)(c(s)(q())))", payload="1", aux="0")
    b = run("(c(r)(c(s)(q())))", payload="1", aux="0")
    assert a == b


def test_budget_monotonicity_on_samples():
    for text, payload in [("(qa)", ""), ("(c(r)(q()))", "1"), ("(e(q(ab))(q(ab)))", "")]:
        base = run(text, budget=10**4, payload=payload)
        assert base.halted
        for extra in (0, 1, 7, 100):
            again = run(text, budget=base.steps + extra, payload=payload)
            assert again.halted and again.value == base.value and again.steps == base.steps
        assert run(text, budget=base.steps - 1, payload=payload).kind == "out_of_budget"


def test_total_fragment_structural_budget_exhaustive():
    # every l/y-free expression of print length <= 6 settles within one step
    # per subexpression (never out of budget)
    for e in gen_exprs(6, lists_only=False, alphabet=ALPHABET.replace("l", "").replace("y", "")):
        bound = subexpr_count(e)
        out = eval_expr(e, bound, "0" * 8, "0" * 8)
        assert out.kind != "out_of_budget", print_sexpr(e)
        assert out.steps <= bound


@settings(max_examples=200)
@given(st.integers(0, 10**6))
def test_total_fragment_budget_randomized_larger(seed):
    import random

    rng = random.Random(seed)

    def grow(depth):
        if depth > 4 or rng.random() < 0.3:
            return rng.choice(ALPHABET)
        return tuple(grow(depth + 1) for _ in range(rng.randrange(0, 4)))

    e = tuple(grow(0) for _ in range(rng.randrange(0, 4)))
    if "l" in print_sexpr(e) or "y" in print_sexpr(e):
        return
    bound = subexpr_count(e)
    out = eval_expr(e, bound, "01" * 8, "10" * 8)
    assert out.kind != "out_of_budget"
    assert out.steps <= bound


def test_value_conversions():
    assert value_to_bitstring(("0", "1", "1")) == "011"
    assert value_to_bitstring(()) == ""
    with pytest.raises(ConversionError):
        value_to_bitstring(("a",))
    with pytest.raises(ConversionError):
        value_to_bitstring("0")
    assert value_to_pair((("0", "1"), ("1",))) == ("01", "1")
    assert value_to_pair(((), ())) == ("", "")
    with pytest.raises(ConversionError):
        value_to_pair(("0", "1", "1"))
