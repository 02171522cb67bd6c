"""Formal systems, the Berry construction, ceilings, diagonalization."""

import pytest

from omegalab import incompleteness
from omegalab.incompleteness import (
    BUNDLED_FAS_NAMES,
    BerryConstructionError,
    Elegant,
    EleganceVerdict,
    MalformedTheoremError,
    OmegaBit,
    Program,
    ToyFAS,
    UnsoundFASError,
    apply_function_program,
    build_berry_program,
    bundled_fas,
    bundled_function_family,
    bundled_omega_fas,
    bundled_sound_fas,
    decode_theorem,
    diagonalize_total,
    elegance_oracle,
    elegance_ceiling_experiment,
    fas_theorems,
    omega_bits_ceiling_experiment,
)
from omegalab.machines import output_of, run_machine
from omegalab.sexpr import parse, to_bits


def test_theorem_codec():
    t = Elegant("0110")
    assert decode_theorem(t.encode(), 0) == t
    o = OmegaBit(3, "0")
    assert o.encode() == ("o", ("1", "1", "1"), "0")
    assert decode_theorem(o.encode(), 0) == o
    for bad in [(), ("x",), ("e",), ("e", "a"), ("o", (), "0"), ("o", ("1",), "a"), "e"]:
        with pytest.raises(MalformedTheoremError):
            decode_theorem(bad, 7)
    try:
        decode_theorem(("e",), 4)
    except MalformedTheoremError as exc:
        assert exc.position == 4


def test_fas_theorems_budget_monotone():
    fas = bundled_sound_fas()
    assert fas_theorems(fas, 0) == []
    full = fas_theorems(fas, 10**6)
    assert len(full) == 7
    prev = []
    for b in (0, 1, 10, 100):
        cur = fas_theorems(fas, b)
        assert cur[: len(prev)] == prev
        prev = cur
    assert fas_theorems(fas, 1) == full  # the quote enumerator halts in one step


def test_fas_complexity_upper_and_padding():
    fas = bundled_sound_fas()
    n = fas.n_bits
    assert n == fas.enumerator.size_bits
    # a semantically identical but longer enumerator has strictly larger N
    padded = ToyFAS(
        enumerator=Program(("h", ("c", fas.enumerator.prefix, ("q", ()))), fas.enumerator.payload),
        machine=fas.machine,
    )
    assert fas_theorems(padded, 10) == fas_theorems(fas, 10)
    assert padded.n_bits > n


def test_empty_theorem_fas():
    empty = ToyFAS(enumerator=Program(parse("(q())"), ""), machine="total")
    assert fas_theorems(empty, 10) == []
    assert empty.n_bits == 40  # 5 characters


def test_elegance_oracle_verdicts():
    assert elegance_oracle(to_bits(parse("()"))).status == "confirmed"
    assert elegance_oracle(to_bits(parse("(r)")) + "0").status == "confirmed"
    v = elegance_oracle(to_bits(parse("(q())")))  # 40 bits for output "": () is smaller
    assert v.status == "refuted" and v.counterexample == to_bits(parse("()"))
    # non-producing programs are refuted outright, as are bits that do not
    # decode, a payload left unread and a prefix outside the total fragment
    for bits in (to_bits(parse("(qa)")), "0101", to_bits(parse("(r)")) + "01", to_bits(parse("(l)"))):
        assert elegance_oracle(bits) == EleganceVerdict(status="refuted"), bits


def test_bundled_fas_names():
    assert BUNDLED_FAS_NAMES == ("sound", "unsound", "omega8", "omega8-flipped")
    assert bundled_fas("omega8-flipped").name == "omega-bits-flip5"
    with pytest.raises(ValueError, match=r"^unknown bundled formal system 'x'; have \('sound', "):
        bundled_fas("x")


def test_berry_threshold_properties():
    fas = bundled_sound_fas()
    P, T = build_berry_program(fas)
    assert P.size_bits <= T
    # least fixed point: T-1 no longer covers its own program
    from omegalab.progs import berry_driver

    P2 = Program(berry_driver(fas.enumerator.prefix, T - 1), fas.enumerator.payload)
    assert T - 1 < P2.size_bits
    # padding the system by one character moves the threshold by at most 8 + slack
    padded = ToyFAS(
        enumerator=Program(("h", ("c", fas.enumerator.prefix, ("q", ()))), fas.enumerator.payload),
        machine=fas.machine,
    )
    _, T2 = build_berry_program(padded)
    grows = padded.n_bits - fas.n_bits
    assert T < T2 <= T + grows + 8


@pytest.mark.parametrize("driver", [
    lambda real, enum, t: real(enum, 0),  # its size does not grow with T: T - 1 covers P(T - 1)
    lambda real, enum, t: real(enum, 2 * t),  # 2T's numeral is a bit longer than T's: |P(T)| = T + 8
], ids=["fixed", "twice-T"])
def test_berry_construction_refuses_a_driver_off_its_closed_form(monkeypatch, driver):
    real = incompleteness.berry_driver
    monkeypatch.setattr(incompleteness, "berry_driver", lambda enum, t: driver(real, enum, t))
    with pytest.raises(BerryConstructionError):
        build_berry_program(bundled_sound_fas())


def test_berry_construction_refuses_a_program_one_bit_over_its_threshold(monkeypatch):
    # the sound system's P meets its threshold exactly; one payload bit more
    # on P(T) alone makes |P| = T + 1
    fas = bundled_sound_fas()
    P, T = build_berry_program(fas)
    assert P.size_bits == T
    monkeypatch.setattr(incompleteness, "Program", lambda prefix, payload: Program(
        prefix, payload + "0" if prefix == P.prefix else payload))
    with pytest.raises(BerryConstructionError):
        build_berry_program(fas)


def test_sound_ceiling_experiment():
    rep = elegance_ceiling_experiment(bundled_sound_fas(), budget=2 * 10**5)
    assert rep["verdict"] == "soundness-consistent"
    assert rep["max_elegant_size"] == 56
    assert rep["max_elegant_size"] <= rep["threshold"]
    assert rep["berry_run"]["outcome"] == "out_of_budget"


def test_unsound_ceiling_experiment_aborts_and_executes_contradiction():
    from omegalab.incompleteness import bundled_unsound_fas

    fas = bundled_unsound_fas()
    with pytest.raises(UnsoundFASError) as exc:
        elegance_ceiling_experiment(fas, budget=10**7)
    rep = exc.value.report
    assert rep["verdict"] == "unsound"
    assert rep["false_theorem"]["index"] == 0
    claimed = rep["false_theorem"]["program_bits"]
    assert len(claimed) > rep["threshold"]
    assert len(rep["false_theorem"]["counterexample"]) < len(claimed)
    # the Berry program actually finds the claim and reproduces its output
    assert rep["berry_run"]["outcome"] == "halted"
    assert rep["berry_run"]["output"] == rep["false_theorem"]["output"] == "00"
    assert rep["berry_run"]["steps"] <= 450_000  # deterministic: 318,193


def test_omega_bits_experiment():
    rep = omega_bits_ceiling_experiment(bundled_omega_fas(L=24, nbits=8), None, 10**5)
    assert rep["verdict"] == "all-correct"
    assert rep["count_correct"] == 8
    assert rep["count_minus_n"] == 8 - rep["n_bits"]
    with pytest.raises(UnsoundFASError) as exc:
        omega_bits_ceiling_experiment(bundled_omega_fas(L=24, nbits=8, flip_index=5), None, 10**5)
    assert exc.value.report["flipped_index"] == 5


def test_omega_bits_scattered_indices():
    # claims need not be initial: index 16 of the L=24 ensemble is the 1 bit
    fas = ToyFAS(
        enumerator=Program(("q", (OmegaBit(16, "1").encode(), OmegaBit(3, "0").encode())), ""),
        machine="total",
        ensemble_L=24,
        name="scattered",
    )
    rep = omega_bits_ceiling_experiment(fas, None, 10**5)
    assert rep["verdict"] == "all-correct" and rep["count_correct"] == 2


def test_omega_bits_no_claims():
    fas = ToyFAS(enumerator=Program(parse("(q())"), ""), machine="total", ensemble_L=24)
    rep = omega_bits_ceiling_experiment(fas, None, 10**5)
    assert rep["count_correct"] == 0


def test_diagonalize_formula_matches_arithmetic_example():
    # constant-output programs with values 2, 4, 6: F(2) = 1 + max(2,4,6) = 7
    family = [
        Program(parse("(q(10))"), ""),
        Program(parse("(q(100))"), ""),
        Program(parse("(q(110))"), ""),
    ]
    assert diagonalize_total(family, 2) == (7, [2, 4, 6])
    assert diagonalize_total(family, 1) == (5, [2, 4])
    assert diagonalize_total([], 5) == (1, [])


def test_diagonalize_bundled_family():
    family = bundled_function_family()
    assert [apply_function_program(p, 5) for p in family] == [5, 10, 20]
    assert diagonalize_total(family, 2) == (1 + max(2, 4, 8), [2, 4, 8])
    for n in range(0, 8):
        F, _ = diagonalize_total(family, n)
        for i in range(min(n, len(family) - 1) + 1):
            assert F != apply_function_program(family[i], n)


def test_function_program_conventions():
    family = bundled_function_family()
    with pytest.raises(ValueError):
        apply_function_program(family[0], 2**16)  # numeral too wide
    with pytest.raises(ValueError):
        apply_function_program(Program(parse("(y(lf(lxx)))"), ""), 1)  # not total


def test_sound_claims_are_what_they_say():
    # spot-check the frozen claims by hand, independently of the oracle
    fas = bundled_sound_fas()
    thms = fas_theorems(fas, 10)
    for t in thms:
        from omegalab.machines import split_program_bits, run_total

        prog = split_program_bits(t.program_bits)
        out = output_of(run_total(prog, 10**4))
        assert out is not None
    sizes = sorted(len(t.program_bits) for t in thms)
    assert sizes == [16, 25, 25, 56, 56, 56, 56]
