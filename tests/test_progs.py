"""Guest-level program constructions: the machine interpreting itself."""

import pytest

from omegalab.complexity import STRUCTURAL, enumerate_halting
from omegalab.machines import (
    Program,
    output_of,
    pair_output_of,
    run_machine,
    run_sd,
    split_program_bits,
)
from omegalab.progs import (
    LOOP,
    NIL,
    lam,
    pair_composer,
    padded_quote_enumerator,
    padded_quote_program,
    quote_pair_program,
    quote_program,
    replay_program,
    verify_pair,
)
from omegalab.sexpr import parse, print_sexpr, to_bits
from omegalab.vm import eval_expr


def test_loop_diverges():
    out = eval_expr(LOOP, 5000)
    assert out.kind == "out_of_budget"


def test_quote_programs():
    assert output_of(run_sd(quote_program("0110"), 100)) == "0110"
    assert pair_output_of(run_sd(quote_pair_program("0", ""), 100)) == ("0", "")
    assert quote_pair_program("", "").size_bits == 72


def test_plain_composer_on_simple_witnesses():
    comp = pair_composer(with_aux=False)
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
    comp = pair_composer(with_aux=False)
    for rec in enumerate_halting("total", 33, STRUCTURAL, c_cap=4):
        if rec.output is None:
            continue
        composed = Program(comp, rec.program_bits + empty)
        assert verify_pair("sd", composed, rec.output, ""), rec.program_bits


def test_aux_composer_feeds_first_program_bits():
    comp = pair_composer(with_aux=True)
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


def test_composer_is_a_fixed_prefix():
    # sizes are measured constants: stable across calls
    k1 = 8 * len(print_sexpr(pair_composer(with_aux=True)))
    k2 = 8 * len(print_sexpr(pair_composer(with_aux=True)))
    assert k1 == k2
    assert split_program_bits(Program(pair_composer(False), "").bits).prefix == pair_composer(False)


def test_lam_rejects_bad_parameters():
    for p in ("q", "ab", ""):
        with pytest.raises(ValueError, match="bad parameter"):
            lam(p, NIL)
