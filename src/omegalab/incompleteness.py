"""Toy formal axiomatic systems and the ceilings they cannot cross.

A formal system is modeled as a theorem enumerator: a Program whose halted
value is a list of theorem records.  Its complexity is the enumerator's size
in bits, reported as an upper bound N (true minimal enumerator size is
itself uncomputable).  Two theorem shapes exist on the wire:

    (e b1 ... bk)    "the program with these k bits is elegant on machine
                      total" (no smaller program has the same output)
    (o (1 ... 1) b)  "bit <unary index, 1-based> of the capped halting
                      probability is b"

Soundness is checked, not assumed: desk scale permits an exhaustive
brute-force elegance oracle below the sweep cap, which the in-principle
argument never has.  The Berry construction is executable: build_berry_program
composes a fixed driver with the system's own enumerator and embeds the least
threshold T >= the built program's own size (in closed form), so a sound
system can never exhibit a provably elegant program above T, and an unsound
one gets its oversized claim run and reproduced.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .bits import BitString, dyadic_bits
from .complexity import Ensemble, complexity_upper, exhaustive_bits
from .machines import STRUCTURAL, Program, output_of, program_from_text, run_machine, run_total
from .omega import omega_exact_capped
from .progs import berry_driver
from . import machines, progs, vm
from .vm import contains_general_only_prims


class MalformedTheoremError(ValueError):
    def __init__(self, position: int, detail: str):
        self.position = position
        super().__init__(f"malformed theorem at position {position}: {detail}")


class FASRunError(RuntimeError):
    pass


class BerryConstructionError(RuntimeError):
    pass


class UnsoundFASError(RuntimeError):
    """Experiment abort; carries the report naming the false theorem."""

    def __init__(self, report: dict):
        self.report = report
        super().__init__(report.get("abort_reason", "unsound formal system"))


class Elegant(NamedTuple):
    program_bits: BitString

    def encode(self):
        return ("e",) + tuple(self.program_bits)


class OmegaBit(NamedTuple):
    index: int  # 1-based position after the binary point
    bit: str

    def encode(self):
        return ("o", ("1",) * self.index, self.bit)


Theorem = Union[Elegant, OmegaBit]


class ToyFAS(NamedTuple):
    enumerator: Program
    machine: str = "sd"
    ensemble_L: Optional[int] = None  # for OmegaBit claims: the capped ensemble
    name: str = ""

    @property
    def n_bits(self) -> int:
        return self.enumerator.size_bits


def decode_theorem(record, position: int) -> Theorem:
    if not isinstance(record, tuple) or not record:
        raise MalformedTheoremError(position, "record is not a nonempty list")
    tag = record[0]
    if tag == "e":
        bits = record[1:]
        if not bits or any(b not in ("0", "1") for b in bits):
            raise MalformedTheoremError(position, "elegance claim needs inline program bits")
        return Elegant("".join(bits))
    if tag == "o":
        if len(record) != 3:
            raise MalformedTheoremError(position, "omega-bit claim is (o <unary index> <bit>)")
        idx, bit = record[1], record[2]
        if not isinstance(idx, tuple) or not idx or any(d != "1" for d in idx):
            raise MalformedTheoremError(position, "index must be a nonempty unary list of 1s")
        if bit not in ("0", "1"):
            raise MalformedTheoremError(position, "claimed bit must be the atom 0 or 1")
        return OmegaBit(len(idx), bit)
    raise MalformedTheoremError(position, f"unknown tag {tag!r}")


def fas_theorems(fas: ToyFAS, budget: int) -> List[Theorem]:
    """Theorems visible within the budget: none before the enumerator halts,
    the full decoded list at and after its halting budget (monotone)."""
    out = run_machine(fas.machine, fas.enumerator, budget)
    if out.kind == vm.OUT_OF_BUDGET:
        return []
    if not out.halted:
        raise FASRunError(f"enumerator faulted: {out.reason}")
    if not isinstance(out.value, tuple):
        raise MalformedTheoremError(0, "enumerator value is not a theorem list")
    return [decode_theorem(rec, i) for i, rec in enumerate(out.value)]


# ---------------------------------------------------------------------------
# the exhaustive elegance oracle

class EleganceVerdict(NamedTuple):
    status: str  # "confirmed" | "refuted" | "unverifiable"
    output: Optional[BitString] = None
    counterexample: Optional[BitString] = None
    exhaustive_to: int = 0


def elegance_oracle(program_bits: BitString) -> EleganceVerdict:
    """Brute-force check of "no smaller total program has the same output".

    Refutation needs one smaller witness; confirmation needs the sweep below
    |Q| to be exhaustive, which desk scale grants only below the character
    cap.  Q itself must be a domain program with an output.
    """
    run = machines.in_domain("total", program_bits, progs.WITNESS_BUDGET)
    out = None if run is None else output_of(run)
    if out is None:
        # a non-producing program is vacuously non-elegant here: it has no output
        return EleganceVerdict(status="refuted")
    size = len(program_bits)
    smaller = Ensemble("total", size - 1, STRUCTURAL)
    limit = exhaustive_bits(smaller)
    # above the exhaustive range a constructed smaller program still refutes
    best = complexity_upper(smaller, out, include_constructed=True)
    if best.found:
        return EleganceVerdict(status="refuted", output=out, counterexample=best.witness, exhaustive_to=limit)
    if size - 1 <= limit:
        return EleganceVerdict(status="confirmed", output=out, exhaustive_to=limit)
    return EleganceVerdict(status="unverifiable", output=out, exhaustive_to=limit)


# ---------------------------------------------------------------------------
# the Berry construction

def build_berry_program(fas: ToyFAS) -> Tuple[Program, int]:
    """Compose the fixed driver with the system's enumerator; embed the least
    threshold T with T >= size_bits(P(T)).  Returns (P, T), size_bits(P) <= T.

    progs._scan embeds T as seven fixed slots for T mod 8 and the numeral
    (q(b1...bk)) of T // 8, with k = bitlen(T) - 3 for T >= 8.  So
    size_bits(P(T)) = base + 8 * bitlen(T) for T >= 8, with base =
    size_bits(P(0)) - 24, and the search starts at bitlen 4; P(T) and P(T-1)
    check the closed form.
    """
    def at(t: int) -> Program:
        return Program(berry_driver(fas.enumerator.prefix, t), fas.enumerator.payload)

    base = at(0).size_bits - 24
    b = 4
    while base + 8 * b >= 2**b:
        b += 1
    T = max(base + 8 * b, 2 ** (b - 1))
    P = at(T)
    if not P.size_bits <= T <= at(T - 1).size_bits:  # T - 1 no longer covers P(T - 1)
        raise BerryConstructionError(f"T = {T} is not the least threshold covering its own program")
    return P, T


# ---------------------------------------------------------------------------
# experiments

def elegance_ceiling_experiment(fas: ToyFAS, budget: int) -> dict:
    """Soundness gate, ceiling check, and the run of the Berry program P.

    Sound system: every elegance claim survives the oracle, the largest
    claimed size stays at or below the threshold T, and P exhausts its
    budget.  A false claim aborts the experiment (UnsoundFASError) with the
    theorem named -- after running P, which finds the oversized claim and
    reproduces its output, making the contradiction executable.
    """
    theorems = fas_theorems(fas, budget)
    claims = [t for t in theorems if isinstance(t, Elegant)]
    events: List[dict] = []
    N = fas.n_bits
    P, T = build_berry_program(fas)
    events.append({"event": "berry_built", "threshold": T, "p_size_bits": P.size_bits})

    false_theorem = None
    for i, claim in enumerate(claims):
        verdict = elegance_oracle(claim.program_bits)
        events.append(
            {
                "event": "oracle",
                "claim_index": i,
                "claim_size_bits": len(claim.program_bits),
                "status": verdict.status,
                "counterexample": verdict.counterexample,
                "exhaustive_to": verdict.exhaustive_to,
            }
        )
        if verdict.status == "refuted":
            false_theorem = (i, claim, verdict)
            break
        if verdict.status == "unverifiable":
            raise FASRunError(
                f"claim {i} of size {len(claim.program_bits)} exceeds the exhaustive oracle range"
            )

    max_elegant = max((len(c.program_bits) for c in claims), default=0)
    out = run_machine("sd", P, budget)  # P uses the general fragment whatever the system runs on
    berry_run = {
        "outcome": out.kind,
        "steps": out.steps,
        "output": output_of(out),
    }
    report = {
        "fas": fas.name,
        "n_bits": N,
        "threshold": T,
        "max_elegant_size": max_elegant,
        "budget": budget,
        "berry_run": berry_run,
        "events": events,
    }
    if false_theorem is not None:
        i, claim, verdict = false_theorem
        report["verdict"] = "unsound"
        if verdict.counterexample is not None:
            why = f"counterexample of {len(verdict.counterexample)} bits has the same output"
        else:
            why = "the claimed program produces no output"
        report["abort_reason"] = (
            f"theorem {i} falsely claims elegance of a {len(claim.program_bits)}-bit program; {why}"
        )
        report["false_theorem"] = {
            "index": i,
            "program_bits": claim.program_bits,
            "output": verdict.output,
            "counterexample": verdict.counterexample,
        }
        raise UnsoundFASError(report)
    report["verdict"] = "soundness-consistent" if max_elegant <= T else "inconsistent"
    return report


def omega_bits_ceiling_experiment(fas: ToyFAS, L: Optional[int], budget: int) -> dict:
    """Verify every claimed bit of the capped halting probability.

    Claimed indices may be scattered; each is compared against the exact
    capped value.  Any wrong bit aborts with its index.  Reports the count of
    correct bits next to N, the system's size.
    """
    ensemble_L = L if L is not None else fas.ensemble_L
    if ensemble_L is None:
        raise ValueError("omega-bit claims need the capped ensemble size L")
    theorems = fas_theorems(fas, budget)
    claims = [t for t in theorems if isinstance(t, OmegaBit)]
    exact = omega_exact_capped(ensemble_L)
    depth = max((c.index for c in claims), default=0)
    true_bits = dyadic_bits(exact.mass, depth)
    checked = []
    for i, c in enumerate(claims):
        actual = true_bits[c.index - 1]
        checked.append({"index": c.index, "claimed": c.bit, "actual": actual})
        if c.bit != actual:
            raise UnsoundFASError(
                {
                    "fas": fas.name,
                    "verdict": "unsound",
                    "abort_reason": f"claimed bit at index {c.index} is {c.bit}, actual {actual}",
                    "flipped_index": c.index,
                    "ensemble_L": ensemble_L,
                    "checked": checked,
                }
            )
    N = fas.n_bits
    return {
        "fas": fas.name,
        "verdict": "all-correct",
        "ensemble_L": ensemble_L,
        "omega_capped": str(exact.mass),
        "count_correct": len(claims),
        "n_bits": N,
        "count_minus_n": len(claims) - N,
        "checked": checked,
        "budget": budget,
    }


# ---------------------------------------------------------------------------
# UB2-style diagonalization over total function programs

NUMERAL_WIDTH = 16


def apply_function_program(p: Program, n: int, width: int = NUMERAL_WIDTH) -> int:
    """Run a total-fragment function program on input n.

    Convention: the numeral arrives on the aux channel as a width-bit
    big-endian string; the halted value, a flat bit list, is read back as a
    big-endian natural (empty list = 0).
    """
    if contains_general_only_prims(p.prefix):
        raise ValueError("function programs must lie in the total fragment")
    if not 0 <= n < 2**width:
        raise ValueError(f"input {n} does not fit in {width} bits")
    out = run_total(p, STRUCTURAL, aux=format(n, f"0{width}b"))
    bits = output_of(out)
    if bits is None:
        raise FASRunError(f"function program produced no output on {n}: {out.reason}")
    return int(bits, 2) if bits else 0


def diagonalize_total(family: Sequence[Program], n: int,
                      width: int = NUMERAL_WIDTH) -> Tuple[int, List[int]]:
    """F(n) = 1 + max over i <= min(n, |family|-1) of family[i](n) (1 on an
    empty family), and those family values in index order.

    F differs from every family member at and beyond its index, the
    executable shadow of diagonalizing over provably total functions.
    """
    values = [apply_function_program(p, n, width) for p in family[: n + 1]]
    return 1 + max(values, default=0), values


def bundled_function_family(width: int = NUMERAL_WIDTH) -> List[Program]:
    """n, 2n, 4n as total-fragment programs: read width aux bits, append zeros.

    Multiplication beyond shifts needs bit fan-out, which the total fragment
    cannot express (each read bit is consumed once), so shifts are the
    natural realizable family.
    """
    def shifter(extra_zeros: int) -> Program:
        tail = ("q", ("0",) * extra_zeros) if extra_zeros else ("q", ())
        expr = tail
        for _ in range(width):
            expr = ("c", ("s",), expr)
        return Program(expr, "")

    return [shifter(k) for k in (0, 1, 2)]


# ---------------------------------------------------------------------------
# bundled formal systems

# Elegance facts on machine total, frozen as data.  Each says "this program's
# size is minimal for its output"; the experiment re-derives every one of
# them through the exhaustive oracle before trusting the system.
_SOUND_CLAIMS = (
    "()|",       # output ""
    "(r)|0",     # output "0"
    "(r)|1",     # output "1"
    "(q(00))|",  # output "00"
    "(q(01))|",
    "(q(10))|",
    "(q(11))|",
)


def bundled_sound_fas() -> ToyFAS:
    """Quoted list of verified elegance facts; total fragment, halts in 1 step."""
    theorems = tuple(
        Elegant(program_from_text(t).bits).encode() for t in _SOUND_CLAIMS
    )
    enum = Program(("q", theorems), "")
    return ToyFAS(enumerator=enum, machine="total", name="sound-elegance")


def bundled_unsound_fas() -> ToyFAS:
    """Enumerator generating one oversized elegance claim the driver can cash in.

    The padding is chosen so the claimed program is strictly larger than the
    Berry threshold of the very system making the claim (iterated to a fixed
    point from 256, since the threshold moves with the enumerator's own size).
    """
    pad = 256
    for _ in range(32):
        fas = ToyFAS(Program(progs.padded_quote_enumerator(pad), ""), "sd", name="unsound-elegance")
        T = build_berry_program(fas)[1]
        if progs.padded_quote_program(pad).size_bits > T:
            return fas
        pad = (T - 8 * 12) // 8 + 64  # the claimed program has 12 characters besides its padding
    raise RuntimeError("padding search did not stabilize")


def bundled_omega_fas(L: int = 24, nbits: int = 8, flip_index: Optional[int] = None) -> ToyFAS:
    """Hard-codes the first nbits exact bits of the capped halting probability.

    flip_index builds the deliberately wrong variant with that bit inverted.
    """
    exact = omega_exact_capped(L)
    bits = dyadic_bits(exact.mass, nbits)
    claims = []
    for i, b in enumerate(bits, start=1):
        if flip_index == i:
            b = "1" if b == "0" else "0"
        claims.append(OmegaBit(i, b).encode())
    enum = Program(("q", tuple(claims)), "")
    name = "omega-bits" if flip_index is None else f"omega-bits-flip{flip_index}"
    return ToyFAS(enumerator=enum, machine="total", ensemble_L=L, name=name)


_BUNDLED_FAS = {
    "sound": bundled_sound_fas,
    "unsound": bundled_unsound_fas,
    "omega8": lambda: bundled_omega_fas(L=24, nbits=8),
    "omega8-flipped": lambda: bundled_omega_fas(L=24, nbits=8, flip_index=5),
}
BUNDLED_FAS_NAMES = tuple(_BUNDLED_FAS)


def bundled_fas(name: str) -> ToyFAS:
    if name not in _BUNDLED_FAS:
        raise ValueError(f"unknown bundled formal system {name!r}; have {BUNDLED_FAS_NAMES}")
    return _BUNDLED_FAS[name]()
