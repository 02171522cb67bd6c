"""Evaluator semantics: primitives, budgets, faults, the total fragment, and
the cycle check, against the spec's plain recursive reference evaluator."""

import re
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

import spec
from omegalab.machines import Program, run_total, structural_budget
from omegalab.progs import LOOP
from omegalab.sexpr import ALPHABET, parse, print_sexpr, to_bits
from omegalab.vm import FAULTED, Underrun, eval_expr, resume


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
    # the same closure or y-wrapper on both sides faults too
    for text in ("((lf(eff))(lxx))", "((lg(egg))(y(lf(lxx))))"):
        assert run(text).reason == "type: equality on non-data value"
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
    for e in spec.trees(6, spec.TOTAL_ALPHABET, atoms=True):
        bound = structural_budget(e)
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
    bound = structural_budget(e)
    out = eval_expr(e, bound, "01" * 8, "10" * 8)
    assert out.kind != "out_of_budget"
    assert out.steps <= bound


# -- reference evaluator ---------------------------------------------------
# eval_expr must agree with spec.reference_eval, which has no cycle check, on
# every outcome.

def _vm_view(out):
    cls = out.reason.split(":")[0] if out.reason else None
    return out.kind, spec.plain(out.value), out.payload_consumed, out.aux_consumed, out.steps, cls


def _agree(expr, budget, payload="", aux=None):
    got = _vm_view(eval_expr(expr, budget, payload, aux))
    assert got == spec.reference_eval(expr, budget, payload, aux), (print_sexpr(expr), budget, payload, aux)
    return got


def test_reference_agrees_on_every_sd_prefix_up_to_5_characters():
    for e in spec.trees(5):
        for aux in (None, "1"):
            pending = [""]
            while pending:
                payload = pending.pop()
                *_, steps, cls = _agree(e, 10, payload, aux)
                if steps:
                    _agree(e, steps - 1, payload, aux)
                if cls == "payload-underrun" and len(payload) < 3:
                    pending += [payload + "0", payload + "1"]


def _guest_runs():
    from omegalab import progs
    from omegalab.incompleteness import build_berry_program, bundled_fas

    w1, w2 = to_bits(parse("(r)")) + "0", to_bits(parse("(c(s)(c(s)(q())))"))
    yield progs.pair_composer(), w1 + to_bits(parse("(q(01))")), None
    yield progs.pair_composer(), w1 + w2, None
    yield progs.replay_prefix(), "", to_bits(parse("(c(r)(q()))")) + "1"
    for name in ("sound", "unsound"):
        P, _ = build_berry_program(bundled_fas(name))
        yield P.prefix, P.payload, None


def test_reference_agrees_on_the_guest_programs():
    runs = list(_guest_runs())
    for prefix, payload, aux in runs:
        for budget in (0, 1, 2, 50, 700, 3000):
            _agree(prefix, budget, payload, aux)
    for prefix, payload, aux in runs[:3]:  # the composers and replay halt
        assert _agree(prefix, 10**5, payload, aux)[0] == "halted"
    # the sound Berry run enters _scan's LOOP before 10^4 steps; the fast VM
    # ends it at a repeat, the reference goes round to the budget
    prefix, payload, _ = runs[3]
    assert _agree(prefix, 30000, payload)[0] == "out_of_budget"


@pytest.mark.parametrize("text, budget, kind, steps", [
    ("(()())", 10, "faulted", 1),  # applying a non-function is charged, then faults
    ("((q0)(q1))", 2, "out_of_budget", 2),
    ("((y(lf(y(lg(lxx)))))(q0))", 100, "halted", 11),  # an unfolded y-wrapper may yield another
    ("(q)", 10, "faulted", 1),  # a malformed form is charged before it faults
])
def test_application_corners_follow_the_docstring(text, budget, kind, steps):
    assert _agree(parse(text), budget)[::4] == (kind, steps)


# (program, payload, aux, reason, steps, payload read, aux read): every fault
# reason eval_expr gives, verbatim, since bench/spans.py classifies by the text.
# The unbound atoms stand in each operand position: the argument of h, t, a,
# y, c, e and i, and the function and the argument of an application, a
# let's ((l p B) A) among them.  () and bound atoms stand in the operand
# positions of c, e and i that take them where they stand: the operands of c
# and e, at entry and after a frame for the first, and the condition of i.
FAULTS = [
    ("b", "", None, "type: unbound atom 'b'", 0, 0, 0),
    ("(hb)", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("(tb)", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("(ab)", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("(yb)", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("(c(r)b)", "1", None, "type: unbound atom 'b'", 2, 1, 0),
    ("(e(q0)b)", "", None, "type: unbound atom 'b'", 2, 0, 0),
    ("(ib(q0)(q1))", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("(cb(q()))", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("(eb(q0))", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("((lx(cxb))(q0))", "", None, "type: unbound atom 'b'", 4, 0, 0),
    ("((lx(ixbx))(q0))", "", None, "type: unbound atom 'b'", 4, 0, 0),
    ("((lxx)(hb))", "", None, "type: unbound atom 'b'", 2, 0, 0),
    ("(b(q()))", "", None, "type: unbound atom 'b'", 0, 0, 0),
    ("(bd)", "", None, "type: unbound atom 'b'", 0, 0, 0),
    ("((lx(bx))(q0))", "", None, "type: unbound atom 'b'", 3, 0, 0),
    ("((lxx)b)", "", None, "type: unbound atom 'b'", 1, 0, 0),
    ("((lf(fg))(lxx))", "", None, "type: unbound atom 'g'", 3, 0, 0),
    ("((lf(fg))(y(lxx)))", "", None, "type: unbound atom 'g'", 4, 0, 0),
    ("((lf((lxx)g))(lxx))", "", None, "type: unbound atom 'g'", 4, 0, 0),
    ("(b)", "", None, "type: application takes exactly one argument", 0, 0, 0),
    ("((lxx)(q0)(q1))", "", None, "type: application takes exactly one argument", 0, 0, 0),
    ("(h)", "", None, "type: h takes 1 argument(s)", 1, 0, 0),
    ("(r(q0))", "", None, "type: r takes 0 argument(s)", 1, 0, 0),
    ("(i(q0))", "", None, "type: i takes 3 argument(s)", 1, 0, 0),
    ("(c(q0))", "", None, "type: c takes 2 argument(s)", 1, 0, 0),
    ("(y)", "", None, "type: y takes 1 argument(s)", 1, 0, 0),
    ("(lqx)", "", None, "type: lambda parameter must be a non-primitive atom", 1, 0, 0),
    ("(l(q0)x)", "", None, "type: lambda parameter must be a non-primitive atom", 1, 0, 0),
    ("((lqx)(q0))", "", None, "type: lambda parameter must be a non-primitive atom", 1, 0, 0),
    ("((lx)(q0))", "", None, "type: l takes 2 argument(s)", 1, 0, 0),
    ("(c(r)(r))", "1", None, "payload-underrun", 3, 1, 0),
    ("(s)", "", None, "aux-underrun", 1, 0, 0),
    ("((lx(cx(q())))(r))", "", None, "payload-underrun", 2, 0, 0),
    ("((lx(c(s)x))(s))", "", "1", "aux-underrun", 5, 0, 1),
    ("(c(s)(c(s)(q())))", "", "1", "aux-underrun", 4, 0, 1),
    ("(c()(r))", "", None, "payload-underrun", 2, 0, 0),
    ("((lx(cx(r)))(q()))", "", None, "payload-underrun", 5, 0, 0),
    ("(c(r)())", "", None, "payload-underrun", 2, 0, 0),
    ("((lx(c(r)x))(q()))", "", None, "payload-underrun", 5, 0, 0),
    ("(e()(r))", "", None, "payload-underrun", 2, 0, 0),
    ("((lx(ex(r)))(q0))", "", None, "payload-underrun", 5, 0, 0),
    ("(e(r)())", "", None, "payload-underrun", 2, 0, 0),
    ("((lx(e(r)x))(q1))", "", None, "payload-underrun", 5, 0, 0),
    ("(i()(qa)(r))", "", None, "payload-underrun", 2, 0, 0),
    ("((lx(ix(r)(qa)))(q0))", "", None, "payload-underrun", 5, 0, 0),
    ("((lx(ix(qa)(r)))(q()))", "", None, "payload-underrun", 5, 0, 0),
    ("((lx(cxx))(r))", "", None, "payload-underrun", 2, 0, 0),
    ("((lf((lv(efv))(r)))(lxx))", "", None, "payload-underrun", 5, 0, 0),
    ("(c(q0)(q1))", "", None, "type: cons onto a non-list", 3, 0, 0),
    ("((lx(cxx))(q0))", "", None, "type: cons onto a non-list", 4, 0, 0),
    ("(e(lxx)(q0))", "", None, "type: equality on non-data value", 3, 0, 0),
    ("((lf(eff))(lxx))", "", None, "type: equality on non-data value", 4, 0, 0),
    ("(e(q0)(y(lxx)))", "", None, "type: equality on non-data value", 4, 0, 0),
    ("(h(q()))", "", None, "type: head of a non-list or empty list", 2, 0, 0),
    ("((lx(hx))(q0))", "", None, "type: head of a non-list or empty list", 4, 0, 0),
    ("(t(q()))", "", None, "type: tail of a non-list or empty list", 2, 0, 0),
    ("((lx(tx))(r))", "1", None, "type: tail of a non-list or empty list", 4, 1, 0),
    ("(a(lxx))", "", None, "type: atom test on non-data value", 2, 0, 0),
    ("((lx(ax))(y(lxx)))", "", None, "type: atom test on non-data value", 5, 0, 0),
    ("(y(q0))", "", None, "type: fixed point of a non-closure", 2, 0, 0),
    ("((lx(yx))(q()))", "", None, "type: fixed point of a non-closure", 4, 0, 0),
    ("((lf(f(q0)))(y(q0)))", "", None, "type: fixed point of a non-closure", 3, 0, 0),
    ("((q0)(q1))", "", None, "type: value is not applicable", 3, 0, 0),
    ("((lx(x(q0)))(s))", "", "1", "type: value is not applicable", 5, 0, 1),
    ("((y(lf(q0)))(q1))", "", None, "type: value is not applicable", 7, 0, 0),
]


@pytest.mark.parametrize("text, payload, aux, reason, steps, p_read, a_read", FAULTS)
def test_fault_reasons_are_pinned_verbatim(text, payload, aux, reason, steps, p_read, a_read):
    out = run(text, 100, payload, aux)
    assert out == (FAULTED, None, p_read, a_read, steps, reason)
    assert _agree(parse(text), 100, payload, aux)[-1] == reason.split(":")[0]


def test_fault_table_holds_every_reason():
    # the unbound-atom and arity reasons name an atom and a primitive; the
    # other eleven are fixed texts, thirteen reasons in all
    shapes = {re.sub(r"unbound atom '.'", "unbound atom", re.sub(r"\w takes \d", "p takes n", f[3]))
              for f in FAULTS}
    assert len(shapes) == 13, sorted(shapes)


def _forms_with_lambdas():
    leaves = st.sampled_from(["x", "z", "0", "b", (), ("r",), ("s",), ("q", ("0", "1"))])

    def extend(kids):
        return st.one_of(
            st.tuples(st.just("l"), st.sampled_from(["x", "z"]), kids),
            st.tuples(kids, kids),  # application
            st.tuples(st.sampled_from("qieachty"), st.lists(kids, max_size=3)).map(
                lambda hk: (hk[0],) + tuple(hk[1])),
        )
    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_forms_with_lambdas(), st.sampled_from([0, 5, 40, 400]))
def test_reference_agrees_on_drawn_forms_with_lambdas(expr, budget):
    _agree(expr, budget, "0110", "1")


@pytest.mark.parametrize("text, payload", [
    ("((lx(hx))(q(01)))", ""),  # lambda step, argument, application, body
    ("((lx((lzz)x))(r))", "1"),  # a let in a let's body, its argument an atom
    ("((lx((lf(fx))(lzz)))(q0))", ""),  # a let's argument a closure, applied in its body
    # c, e and i in a let's body, their () and atom operands where they stand
    ("((lx(c()(cx())))(r))", "1"),  # () and a bound atom, at entry
    ("((lx(c(r)x))(q()))", "1"),  # a bound atom after a frame for the first operand
    ("((lx(e()x))(r))", "0"),
    ("((lx(e(r)x))(q1))", "1"),
    ("((lx(ix(qa)(r)))(q()))", "1"),  # a condition bound to () takes the else branch
])
def test_a_let_ends_as_the_reference_at_every_budget(text, payload):
    # each budget ends the run at a step of its own: a let's lambda step, its
    # argument, its application, its body
    expr = parse(text)
    full = _agree(expr, 100, payload)
    assert full[0] == "halted"
    for budget in range(full[4]):
        assert _agree(expr, budget, payload)[::4] == ("out_of_budget", budget)


# -- cycle check -------------------------------------------------------------

Y_LOOP = parse("((y(lf(lx(fx))))(q0))")
LET_LOOP = parse("((y(lf(lx((lz(fz))x))))(q0))")  # a let's application each turn
READING_LOOP = parse("((lv(i(r)(vv)(vv)))(lv(i(r)(vv)(vv))))")  # reads one payload bit a turn
AUX_LOOP = parse("((lv(i(s)(vv)(vv)))(lv(i(s)(vv)(vv))))")  # and one aux bit
GROWING = parse("((lv(c(q0)(vv)))(lv(c(q0)(vv))))")  # the stack grows every turn


@pytest.mark.parametrize("expr, payload, aux", [
    (LOOP, "", None),
    (("c", LOOP, ("q", ())), "", None),  # the loop under a pending cons
    (Y_LOOP, "", None),
    (LET_LOOP, "", None),
    (READING_LOOP, "01" * 20, None),
    (AUX_LOOP, "", "10" * 20),
    (GROWING, "", None),
], ids=["loop", "loop-under-cons", "y-loop", "let-loop", "reading-loop", "aux-loop", "growing"])
def test_cycle_check_agrees_with_the_reference(expr, payload, aux):
    for budget in (0, 1, 7, 100, 3000):
        _agree(expr, budget, payload, aux)


def test_cycle_check_cuts_no_run_short():
    out = eval_expr(READING_LOOP, 3000, "01" * 20)
    assert (out.kind, out.reason, out.payload_consumed) == ("faulted", "payload-underrun", 40)
    out = eval_expr(AUX_LOOP, 3000, "", "10" * 20)
    assert (out.kind, out.reason, out.aux_consumed) == ("faulted", "aux-underrun", 40)
    out = eval_expr(GROWING, 3000)
    assert (out.kind, out.steps) == ("out_of_budget", 3000)


@pytest.mark.parametrize("text, value", [
    ("((lf(c(f(q0))(c(f(q0))(q()))))(lxx))", ("0", "0")),  # the same call on a deeper stack
    ("((lf(e(f(q0))(f(q0))))(lxx))", "1"),  # the same call at the same depth, new continuation
])
def test_same_call_in_a_new_context_is_no_repeat(text, value):
    out = _agree(parse(text), 100)
    assert out[:2] == ("halted", value)


def test_repeating_state_ends_at_once():
    # a missed repeat would run on toward 10**12 steps: the timer fails it
    def stop(*_):
        raise TimeoutError("the repeat was not seen within 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    try:
        for expr in (LOOP, LET_LOOP):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 5)
            out = eval_expr(expr, 10**12)
            signal.setitimer(signal.ITIMER_REAL, 0)
            assert (out.kind, out.steps, out.payload_consumed, out.aux_consumed) == ("out_of_budget", 10**12, 0, 0)
            assert time.perf_counter() - start < 1.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_quoted_list_is_one_value_for_the_whole_run():
    # each turn passes (q(ab)) again; its run-time form is built once, so the
    # argument is the same object and the repeat is seen
    start = time.perf_counter()
    out = eval_expr(parse("((y(lf(lx(f(q(ab))))))(q0))"), 10**7)
    assert (out.kind, out.steps) == ("out_of_budget", 10**7)
    assert time.perf_counter() - start < 1.0


# -- continuing a run ----------------------------------------------------------
# resume continues an underrun on a longer payload, with the same aux, and its
# outcome is eval_expr's on them, field by field, its type included.

def _fields(out):
    return type(out), out.kind, spec.plain(out.value), out.payload_consumed, out.aux_consumed, out.steps, out.reason


def _continued_agree(expr, budget, payload, aux):
    """Run expr with an empty payload and aux loaded, then continue each
    payload underrun with one more bit, checking every continued run against
    a fresh one; the number of runs continued."""
    p = ""
    out, runs = eval_expr(expr, budget, p, aux), 0
    while out.reason == "payload-underrun" and len(p) < len(payload):
        p = payload[:len(p) + 1]
        out, runs = resume(out, p), runs + 1
        assert _fields(out) == _fields(eval_expr(expr, budget, p, aux)), (print_sexpr(expr), budget, p, aux)
    return runs


@pytest.mark.parametrize("text, payload, aux, reason, steps, p_read, a_read",
                         [f for f in FAULTS if f[3].endswith("underrun")])
def test_an_underrun_fault_continues_as_a_fresh_run(text, payload, aux, reason, steps, p_read, a_read):
    # an aux underrun is an Underrun too; continued on its own aux, it
    # underruns again, as a fresh run does
    expr = parse(text)
    out = eval_expr(expr, 100, payload, aux)
    assert isinstance(out, Underrun) and out == (FAULTED, None, p_read, a_read, steps, reason)
    for more in ("", "0", "1", "01", "110"):
        p = payload + more
        assert _fields(resume(out, p)) == _fields(eval_expr(expr, 100, p, aux)), p
    if reason == "payload-underrun":
        assert _continued_agree(expr, 100, payload + "0110", aux) > 0


def test_a_reading_loop_continues_bit_by_bit():
    # each continued run keeps the cycle check's mark and snapshot
    for budget in (1, 7, 100):
        _continued_agree(READING_LOOP, budget, "01" * 20, None)
    assert _continued_agree(READING_LOOP, 3000, "01" * 20, None) == 40


def test_branches_continued_from_one_underrun_are_independent():
    expr = parse("((lx(c(r)(c(r)(c(q(ab))x))))(q(ab)))")  # quoted lists before and after the reads
    root = eval_expr(expr, 100, "", "")
    for p in ("0", "1", "0", "01", "10", "11", "1"):
        assert _fields(resume(root, p)) == _fields(eval_expr(expr, 100, p, ""))
    assert resume(root, "11").value == ("1", "1", ("a", "b"), "a", "b")


def test_a_run_continues_only_on_a_payload_that_extends_its_own():
    out = run("(c(r)(c(s)(c(r)(q()))))", 100, "1", "0")
    assert out.reason == "payload-underrun"
    assert resume(out, "10").value == ("1", "0", "0")
    for p in ("00", "", "0"):
        with pytest.raises(ValueError):
            resume(out, p)


@settings(max_examples=300, deadline=None)
@given(_forms_with_lambdas(), st.sampled_from([0, 5, 40, 400]))
def test_continued_runs_agree_on_drawn_forms_with_lambdas(expr, budget):
    _continued_agree(expr, budget, "0110", "1")


# -- run-time lists ------------------------------------------------------------
# Inside a run a nonempty list is a (head, tail) pair; what a run returns is
# always in expression form again.

def _nested(depth, leaf):
    """A list nested depth deep in its heads: ((...(leaf)...))."""
    x = leaf
    for _ in range(depth):
        x = (x,)
    return x


def _unnest(v):
    """(depth, leaf) of a value built by _nested, walked without recursion."""
    depth = 0
    while isinstance(v, tuple):
        assert len(v) == 1, v[:2]
        v, depth = v[0], depth + 1
    return depth, v


def test_equality_on_deep_data_needs_no_host_recursion():
    # the tuples are equal but distinct objects, so no identity test settles them
    a, b, c = _nested(10**4, "a"), _nested(10**4, "a"), _nested(10**4, "b")
    assert eval_expr(("e", ("q", a), ("q", b)), 10)[:2] == ("halted", "1")
    assert eval_expr(("e", ("q", a), ("q", c)), 10)[:2] == ("halted", ())


def test_deep_value_goes_in_by_quote_and_comes_out_as_an_expression():
    out = eval_expr(("h", ("q", (_nested(10**4, "a"),))), 10)
    assert (out.kind, out.steps) == ("halted", 2)
    assert _unnest(out.value) == (10**4, "a")


def test_long_list_through_equality_tail_and_cons():
    xs, ys = ("0",) * 10**5, tuple("0" for _ in range(10**5))
    out = eval_expr(("e", ("t", ("c", ("q", "1"), ("q", xs))), ("q", ys)), 10)
    assert (out.kind, out.value, out.steps) == ("halted", "1", 6)
    assert eval_expr(("e", ("q", xs), ("t", ("q", ys))), 10).value == ()
    out = eval_expr(("c", ("q", "1"), ("q", xs)), 10)
    assert out.halted and type(out.value) is tuple and out.value == ("1",) + xs


def _data():
    atoms = st.sampled_from(["0", "1", "a", "z"])
    return st.recursive(atoms | st.just(()), lambda kids: st.lists(kids, max_size=4).map(tuple),
                        max_leaves=16)


@settings(max_examples=100, deadline=None)
@given(_data(), _data(), st.lists(_data(), max_size=4).map(tuple))
def test_list_primitives_return_expression_tuples(x, a, b):
    # the pair form of a nonempty list never equals its expression tuple, so
    # equality with the expected value shows no pair left the run
    cases = [(("q", x), x), (("c", ("q", a), ("q", b)), (a,) + b)]
    if isinstance(x, tuple) and x:
        cases += [(("t", ("q", x)), x[1:]), (("h", ("q", x)), x[0])]
    for expr, value in cases:
        out = eval_expr(expr, 10)
        assert out.halted and out.value == value, (expr, out)
        assert _agree(expr, 10)[:2] == ("halted", value)
