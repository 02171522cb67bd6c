"""Guest-level program constructions: the machine interpreting itself."""

import pytest
from hypothesis import example, given, settings, strategies as st

from omegalab import progs
from omegalab.complexity import STRUCTURAL, Ensemble, enumerate_halting
from omegalab.incompleteness import build_berry_program, bundled_sound_fas, bundled_unsound_fas
from omegalab.machines import (
    Program,
    output_of,
    pair_output_of,
    run_machine,
    run_sd,
    split_program_bits,
)
from omegalab.progs import (
    GUEST_BUDGET,
    LOOP,
    NIL,
    SRC_AUX,
    SRC_NONE,
    ap,
    ap2,
    hd,
    lam,
    let,
    pair2,
    pair_composer,
    padded_quote_enumerator,
    padded_quote_program,
    quote_pair_program,
    q,
    quote_program,
    replay_program,
    tl,
    verify_pair,
)
from omegalab.sexpr import CHAR_BITS, parse, print_sexpr, to_bits
from omegalab.vm import eval_expr


def test_loop_diverges():
    out = eval_expr(LOOP, 5000)
    assert out.kind == "out_of_budget"


def test_quote_programs():
    assert output_of(run_sd(quote_program("0110"), 100)) == "0110"
    assert pair_output_of(run_sd(quote_pair_program("0", ""), 100)) == ("0", "")
    assert quote_pair_program("", "").size_bits == 72


def test_plain_composer_on_simple_witnesses():
    comp = pair_composer()
    for (w1, x), (w2, y) in [
        ((to_bits(parse("()")), ""), (to_bits(parse("()")), "")),
        ((to_bits(parse("(r)")) + "0", "0"), (to_bits(parse("(q(01))")), "01")),
        ((to_bits(parse("(q(11))")), "11"), (to_bits(parse("(r)")) + "1", "1")),
    ]:
        composed = Program(comp, w1 + w2)
        assert verify_pair("sd", composed, x, y)


def test_composed_equals_host_on_whole_small_domain():
    # cross-validate the guest interpreter against the host machine on every
    # domain program up to 33 bits (paired with the empty-output program)
    empty = to_bits(parse("()"))
    comp = pair_composer()
    for rec in enumerate_halting(Ensemble("total", 33, STRUCTURAL, c_cap=4)):
        if rec.output is None:
            continue
        composed = Program(comp, rec.program_bits + empty)
        assert verify_pair("sd", composed, rec.output, ""), rec.program_bits


def test_aux_composer_feeds_first_program_bits():
    comp = pair_composer()
    w1 = to_bits(parse("(r)")) + "0"
    # the second program reads two aux bits: the first two bits of w1 ("00")
    p2 = to_bits(parse("(c(s)(c(s)(q())))"))
    composed = Program(comp, w1 + p2)
    assert verify_pair("sd", composed, "0", w1[:2])


def test_replay_reproduces_aux_program():
    rp = replay_program()
    for text, payload, expect in [
        ("(q(01))", "", "01"),
        ("(r)", "1", "1"),
        ("(c(r)(c(r)(q())))", "10", "10"),
        ("()", "", ""),
    ]:
        aux = to_bits(parse(text)) + payload
        out = run_sd(rp, 10**6, aux=aux)
        assert output_of(out) == expect, text


def test_replay_is_a_domain_program():
    # no payload reads at all: in the domain with the empty payload
    out = run_sd(replay_program(), 10**6, aux=to_bits(parse("(q())")))
    assert out.halted and out.payload_consumed == 0


def test_padded_enumerator_matches_padded_program():
    for pad in (0, 1, 17, 300):
        enum = padded_quote_enumerator(pad)
        out = eval_expr(enum, 10**6)
        assert out.halted
        (theorem,) = out.value
        assert theorem[0] == "e"
        claimed = "".join(theorem[1:])
        target = padded_quote_program(pad)
        assert claimed == target.bits
        assert output_of(run_machine("total", target, 10**5)) == "00"


def test_length_test_equals_the_host():
    # the driver's scan over the one claim (e bits) halts with the bits when
    # its length test passes and reaches LOOP otherwise; T = 0..40 covers
    # every residue of T mod 8, and lengths 0..40 lists shorter than 8 bits
    # and |bits| = T and T + 1
    for n in range(41):
        bits = ("0110100110010110" * 4)[n % 7:n % 7 + n]
        theorems = q((("e",) + tuple(bits),))
        for T in range(41):
            out = eval_expr(let(progs._scan_binds(T), ap("k", theorems)), 10**4)
            want = ("halted", tuple(bits)) if n > T else ("out_of_budget", None)
            assert (out.kind, out.value) == want, (n, T)


def test_composer_is_a_fixed_prefix():
    # sizes are measured constants: stable across calls
    k1 = 8 * len(print_sexpr(pair_composer()))
    k2 = 8 * len(print_sexpr(pair_composer()))
    assert k1 == k2
    assert split_program_bits(Program(pair_composer(), "").bits).prefix == pair_composer()


def test_lam_rejects_bad_parameters():
    for p in ("q", "ab", ""):
        with pytest.raises(ValueError, match="bad parameter"):
            lam(p, NIL)


# replay_prefix's bindings, returning the guest's node value instead of u's bits
GUEST_VALUE = let(progs._interpreter() + [
    ("f", SRC_AUX),
    ("d", ap2("v", "f", NIL)),
    ("g", ap2(ap2("m", "f", SRC_NONE), hd("d"), pair2(hd(tl("d")), NIL))),
], hd("g"))


def _as_node(value):
    """Host value -> guest node: an atom is its 8-bit code as a list of bits."""
    if isinstance(value, str):
        return tuple(CHAR_BITS[value])
    return tuple(_as_node(x) for x in value)


def _check_guest_equals_host(p: Program):
    host = run_sd(p, 10**4)
    if not host.halted:
        return False
    guest = eval_expr(GUEST_VALUE, 10**6, aux=p.bits)
    assert guest.halted, str(p)
    assert guest.value == _as_node(host.value), str(p)
    assert guest.aux_consumed == len(p.bits), str(p)  # the same payload bits read
    return True


def test_guest_equals_host_on_small_total_domain():
    records = enumerate_halting(Ensemble("total", 47, STRUCTURAL, c_cap=5))
    assert len(records) == 31
    for rec in records:
        assert _check_guest_equals_host(split_program_bits(rec.program_bits))


_data = st.recursive(
    st.sampled_from(list("01qieachtr") + [()]),
    lambda items: st.lists(items, max_size=3).map(tuple),
    max_leaves=4,
)
_quoted_lists = st.lists(_data, min_size=1, max_size=3).map(lambda items: ("q", tuple(items)))


def _forms(e):
    """Forms over q i e a c h t r, mostly of the right arity, and often with a
    list where h, t and c need one."""
    lists = st.one_of(_quoted_lists, st.tuples(st.just("c"), e, st.one_of(_quoted_lists, e)))
    return st.one_of(
        st.tuples(st.just("i"), e, e, e),
        st.tuples(st.just("e"), e, e),
        lists,
        st.tuples(st.sampled_from("aht"), st.one_of(lists, e)),
        st.lists(e, max_size=3).map(lambda args: ("q",) + tuple(args)),
    )


_guest_exprs = st.recursive(
    st.one_of(st.just(()), st.just(("r",)), _data.map(lambda d: ("q", d))), _forms, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_guest_exprs, st.text("01", max_size=4))
@example(parse("(t(q(01)))"), "")
@example(parse("(h(c(r)(q(1))))"), "0")
@example(parse("(c(a(q(0)))(c(a(q()))(q())))"), "")
@example(parse("(i(e(r)(q1))(q(1))(q(0)))"), "1")
def test_guest_equals_host_where_the_host_halts(prefix, payload):
    _check_guest_equals_host(Program(prefix, payload))


def test_guest_errors_fault_fast():
    # a second witness that faults on the host faults in the guest too,
    # instead of running the composed program out of its budget
    w1, w2 = to_bits(parse("()")), to_bits(parse("(h())"))
    out = run_sd(Program(pair_composer(), w1 + w2), GUEST_BUDGET)
    assert out.kind == "faulted" and out.steps < 10**4


# sizes in bits of the guest programs that carry the paper's constants:
# K (the aux pair composer) and the sound and unsound Berry thresholds T
FROZEN_GUEST_CONSTANTS = {"K": 11376, "T_sound": 14744, "T_unsound": 15160}


def test_frozen_guest_constants():
    # the replay prefix's size, which relative_complexity reads without building it
    assert progs.REPLAY_SIZE_BITS == len(progs.replay_bits()) == 9632
    sizes = {
        "K": 8 * len(print_sexpr(pair_composer())),
        "T_sound": build_berry_program(bundled_sound_fas())[1],
        "T_unsound": build_berry_program(bundled_unsound_fas())[1],
    }
    assert sizes == FROZEN_GUEST_CONSTANTS
