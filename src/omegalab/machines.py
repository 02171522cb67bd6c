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
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .bits import BitString, bs_parse
from .sexpr import SExpr, SExprDecodeError, from_bits_prefix, is_atom, parse, print_sexpr, to_bits
from . import vm
from .vm import ConversionError, RunOutcome, contains_general_only_prims

MACHINES = ("c2", "sd", "total")
SELF_DELIMITING = ("sd", "total")


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


def structural_budget(prefix: SExpr) -> int:
    """Step budget that always suffices for a total-fragment prefix: its
    subexpression count."""
    return 1 if is_atom(prefix) else 1 + sum(structural_budget(x) for x in prefix)


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
    if not outcome.halted:
        return outcome
    try:
        out = vm.value_to_bitstring(outcome.value)
    except ConversionError as exc:
        return RunOutcome(vm.FAULTED, steps=outcome.steps, reason=f"conversion: {exc}")
    return RunOutcome(vm.HALTED, value=tuple(out), steps=outcome.steps)


def run_sd(p: Program, budget: int, aux: Optional[BitString] = None) -> RunOutcome:
    """Self-delimiting machine; under-consumed payload is a payload-overrun fault."""
    outcome = vm.eval_expr(p.prefix, budget, p.payload, aux)
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
    """Total restriction; a prefix holding l or y faults before it runs."""
    if contains_general_only_prims(p.prefix):
        return RunOutcome(vm.FAULTED, reason="fragment")
    return run_sd(p, budget, aux)


def run_machine(machine: str, p: Program, budget: int, aux: Optional[BitString] = None) -> RunOutcome:
    if machine == "sd":
        return run_sd(p, budget, aux)
    if machine == "total":
        return run_total(p, budget, aux)
    raise ValueError(f"run_machine expects a self-delimiting machine, got {machine!r}")


def output_of(outcome: RunOutcome) -> Optional[BitString]:
    """Halted value as a bit string under the output convention, else None.

    A single atom 0/1 is accepted as the 1-bit output (wrapped as a singleton
    list); any other unconvertible value counts as non-producing.
    """
    if not outcome.halted:
        return None
    v = outcome.value
    if v in ("0", "1"):
        return v
    try:
        return vm.value_to_bitstring(v)
    except ConversionError:
        return None


def pair_output_of(outcome: RunOutcome) -> Optional[Tuple[BitString, BitString]]:
    if not outcome.halted:
        return None
    try:
        return vm.value_to_pair(outcome.value)
    except ConversionError:
        return None


def split_program_bits(bits: BitString) -> Program:
    """Split raw bits into (prefix, payload) via the self-delimiting decode."""
    prefix, consumed = from_bits_prefix(bits)
    return Program(prefix, bits[consumed:])


def in_domain(machine: str, bits: BitString, budget: int, aux: Optional[BitString] = None) -> bool:
    """Exact-consumption domain membership; every failure mode is False."""
    if machine not in SELF_DELIMITING:
        raise ValueError(f"in_domain expects sd or total, got {machine!r}")
    try:
        p = split_program_bits(bits)
    except SExprDecodeError:
        return False
    return run_machine(machine, p, budget, aux).halted
