"""The three concrete complexity machines.

  c2     blank-endmarker reference machine over raw bit strings: a leading 0
         means "output the rest as is"; a leading 1 means the rest must decode
         (8-bit characters) to exactly one general-fragment expression that is
         evaluated with an empty payload.
  sd     self-delimiting universal machine: a program is an encoded list
         expression (the prefix) followed by payload bits that the prefix
         reads on demand.  A run is in the machine's domain only when it halts
         having consumed the payload exactly, which is what makes whole
         programs self-delimiting and the domain prefix-free.
  total  the sd machine restricted to the total fragment (no l, no y), where
         halting is decidable and one step per subexpression always suffices.

The total fragment check is syntactic: a prefix in which l or y occurs
anywhere, even under quote, faults as it enters machine total, before any
step.  That makes halting structural: every total expression settles within
one step per subexpression.

Program size is exact and additive: 8 bits per prefix character plus the
payload length.  "Halts" always means "halts within the stated budget",
except on machine total where the structural budget makes it absolute.

This module alone decides what a run means, and which machines a quantity
needs: omega, probability, coding, joint and relative complexity and the
chain rule hold for prefix-free programs, so they need sd or total
(check_prefix_free).  A step budget is an integer >= 0, or STRUCTURAL on
machine total: the prefix's subexpression count, which run_total resolves per
program; covers says whether a budget lets a run take k steps.  The output
of a halted run is the bit string of a flat list of 0/1 atoms, or, on sd and
total, the 1-bit string of a bare 0/1 atom; a pair output is a list of
exactly two flat bit lists.  Any other value halts without an output, except
on c2, where it is a conversion fault.  continue_run gives a run on a longer
payload from the same machine's run on a shorter one, with these rules.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .bits import BitString, bs_parse
from .sexpr import SExpr, SExprDecodeError, from_bits_prefix, is_atom, parse, print_sexpr, to_bits
from . import vm
from .vm import RunOutcome, contains_general_only_prims

MACHINES = ("c2", "sd", "total")
SELF_DELIMITING = ("sd", "total")
STRUCTURAL = "structural"  # budget sentinel: per-program subexpression count


class Program(NamedTuple("Program", [("prefix", SExpr), ("payload", BitString)])):
    """Self-delimiting prefix (a list expression) plus payload bits."""

    __slots__ = ()

    def __new__(cls, prefix: SExpr, payload: BitString = "") -> "Program":
        if is_atom(prefix):
            raise ValueError("program prefix must be a list expression")
        return tuple.__new__(cls, (prefix, payload))

    @property
    def size_bits(self) -> int:
        return 8 * len(print_sexpr(self.prefix)) + len(self.payload)

    @property
    def bits(self) -> BitString:
        return to_bits(self.prefix) + self.payload

    def __str__(self) -> str:
        return f"{print_sexpr(self.prefix)}|{self.payload}"


def program_from_text(text: str) -> Program:
    """Read back the `prefix|payload` form Program prints; the payload must be bits."""
    prefix_text, _, payload = text.partition("|")
    return Program(parse(prefix_text), bs_parse(payload))


def check_budget(machine: str, B) -> None:
    """A step budget is an integer >= 0, or STRUCTURAL on machine total."""
    if B == STRUCTURAL and machine != "total":
        raise ValueError("structural budgets exist only on machine total")
    if B != STRUCTURAL and B < 0:
        raise ValueError(f"budget must be >= 0, got {B}")


def covers(B, steps) -> bool:
    """Whether budget B lets a run take steps steps: STRUCTURAL covers every
    run, and only STRUCTURAL covers STRUCTURAL."""
    return B == STRUCTURAL or (steps != STRUCTURAL and B >= steps)


def check_prefix_free(machine: str, what: str) -> None:
    """The one refusal of a machine whose domain is not prefix-free (c2)."""
    if machine not in SELF_DELIMITING:
        raise ValueError(f"{what} needs a prefix-free machine (sd or total), got {machine!r}")


def structural_budget(prefix: SExpr) -> int:
    """Step budget that always suffices for a total-fragment prefix: its
    subexpression count, one per character of its print but ')'."""
    t = print_sexpr(prefix)
    return len(t) - t.count(")")


def _bits(v) -> Optional[BitString]:
    """A flat list of 0/1 atoms as its bit string, any other value None."""
    if not isinstance(v, tuple):
        return None
    for x in v:
        if x != "0" and x != "1":
            return None
    return "".join(v)


def run_c2(raw: BitString, budget: int) -> RunOutcome:
    """Blank-endmarker machine on a raw bit string."""
    if raw == "":
        return RunOutcome(vm.FAULTED, reason="empty program")
    if raw[0] == "0":
        if budget < 1:
            return RunOutcome(vm.OUT_OF_BUDGET)
        return RunOutcome(vm.HALTED, value=tuple(raw[1:]), steps=1)
    rest = raw[1:]
    try:
        expr, consumed = from_bits_prefix(rest)
    except SExprDecodeError as exc:
        return RunOutcome(vm.FAULTED, reason=f"decode: {exc}")
    if consumed != len(rest):
        return RunOutcome(vm.FAULTED, reason="decode: trailing bits after expression")
    outcome = vm.eval_expr(expr, budget)
    if not outcome.halted or _bits(outcome.value) is not None:
        return outcome
    reason = ("conversion: value is not a flat list of bit atoms" if isinstance(outcome.value, tuple)
              else "conversion: value is not a list")
    return RunOutcome(vm.FAULTED, steps=outcome.steps, reason=reason)


def run_sd(p: Program, budget: int, aux: Optional[BitString] = None) -> RunOutcome:
    """Self-delimiting machine; under-consumed payload is a payload-overrun fault."""
    return _exact(vm.eval_expr(p.prefix, budget, p.payload, aux), p)


def _exact(outcome: RunOutcome, p: Program) -> RunOutcome:
    """run_sd's rule: a run that halts short of p's payload is a payload-overrun fault."""
    if outcome.halted and outcome.payload_consumed != len(p.payload):
        return RunOutcome(
            vm.FAULTED,
            payload_consumed=outcome.payload_consumed,
            aux_consumed=outcome.aux_consumed,
            steps=outcome.steps,
            reason="payload-overrun",
        )
    return outcome


def run_total(p: Program, budget: int, aux: Optional[BitString] = None) -> RunOutcome:
    """Total restriction; a prefix holding l or y faults before it runs.  A
    STRUCTURAL budget is the prefix's own structural_budget."""
    if contains_general_only_prims(p.prefix):
        return RunOutcome(vm.FAULTED, reason="fragment")
    return run_sd(p, structural_budget(p.prefix) if budget == STRUCTURAL else budget, aux)


def run_machine(machine: str, p: Program, budget: int, aux: Optional[BitString] = None) -> RunOutcome:
    check_prefix_free(machine, "run_machine")
    return (run_sd if machine == "sd" else run_total)(p, budget, aux)


def continue_run(outcome: RunOutcome, p: Program) -> RunOutcome:
    """run_machine's outcome on p with no aux, from outcome: the same
    machine's run, at the same budget and with no aux, of p's prefix on a
    payload that p's payload starts with.  Nothing runs again: an underrun
    resumes on p's payload (vm docstring), and any other outcome, run_total's
    refusal included, stands as it is, since a run that stopped reading stops
    alike on a longer payload; run_sd's rule then applies to p."""
    return _exact(vm.resume(outcome, p.payload) if isinstance(outcome, vm.Underrun) else outcome, p)


def output_of(outcome: RunOutcome) -> Optional[BitString]:
    """Halted value as a bit string under the output convention, else None.

    A single atom 0/1 is accepted as the 1-bit output (wrapped as a singleton
    list); any other unconvertible value counts as non-producing.
    """
    if not outcome.halted:
        return None
    v = outcome.value
    return v if v in ("0", "1") else _bits(v)


def pair_output_of(outcome: RunOutcome) -> Optional[Tuple[BitString, BitString]]:
    """Halted value, a list of exactly two flat bit lists, as the two bit strings, else None."""
    v = outcome.value
    if not outcome.halted or not isinstance(v, tuple) or len(v) != 2:
        return None
    x, y = _bits(v[0]), _bits(v[1])
    return None if x is None or y is None else (x, y)


def split_program_bits(bits: BitString) -> Program:
    """Split raw bits into (prefix, payload) via the self-delimiting decode."""
    prefix, consumed = from_bits_prefix(bits)
    return Program(prefix, bits[consumed:])


def in_domain(machine: str, bits: BitString, budget: int) -> Optional[RunOutcome]:
    """Exact-consumption domain membership: the halted run of bits, or None
    on every failure mode."""
    check_prefix_free(machine, "in_domain")
    try:
        p = split_program_bits(bits)
    except SExprDecodeError:
        return None
    outcome = run_machine(machine, p, budget)
    return outcome if outcome.halted else None
