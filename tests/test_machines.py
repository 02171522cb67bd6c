"""The three machines: blank-endmarker c2, self-delimiting sd, total restriction."""

import itertools

import pytest

from omegalab.complexity import scan_domain
from omegalab.bits import is_prefix_free
from omegalab.machines import (
    Program,
    in_domain,
    output_of,
    pair_output_of,
    program_from_text,
    run_c2,
    run_sd,
    run_total,
    split_program_bits,
    structural_budget,
)
from omegalab.sexpr import parse, to_bits


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


def _raw_domain_scan(machine: str, max_len: int, budget: int):
    members = []
    for n in range(0, max_len + 1):
        for i in range(1 << n):
            bits = format(i, f"0{n}b") if n else ""
            if in_domain(machine, bits, budget):
                members.append(bits)
    return members


def test_structural_scan_equals_raw_scan():
    # the factorized scan is provably exhaustive; cross-check it bit by bit
    raw = _raw_domain_scan("sd", 18, 1000)
    assert raw == scan_domain("sd", 18, 1000)


def test_domain_prefix_free_and_extension_dead():
    members = scan_domain("sd", 26, 10**4)
    ok, witness = is_prefix_free(members)
    assert ok, witness
    for m in members:
        assert not in_domain("sd", m + "0", 10**4)
        assert not in_domain("sd", m + "1", 10**4)


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
