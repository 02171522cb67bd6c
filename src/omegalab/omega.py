"""Halting-probability engine.

All values are exact dyadic rationals about a *capped* program ensemble
(size <= L bits); the cap is carried on every result because the true
halting probability is a limit this artifact never claims to know.  The sum
runs over the machine's domain (the sum-over-programs form); the mass of
domain programs whose value does not convert to an output is tracked
separately rather than folded in or dropped.  A capped omega is the mass of
a ComplexityTable (reports.omega_report prints it), and only the prefix-free
machines sd and total have one (machines.check_prefix_free).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from .bits import BitString, Dyadic
from .complexity import (DEFAULT_CHAR_CAP, STRUCTURAL, ComplexityTable, Ensemble, build_table, enumerate_halting,
                         explicit_records)
from .machines import check_prefix_free


def omega_lower_bound(ens: Ensemble) -> ComplexityTable:
    """The memoized table of ens, whose mass is the exact sum of 2^-|p| over
    domain members found at (L, B); monotone in both."""
    check_prefix_free(ens.machine, "the halting probability")
    return build_table(ens)  # checks Kraft: mass <= 1


def omega_exact_capped(L: int) -> ComplexityTable:
    """EXACT capped halting probability of machine total at size cap L, as
    its table's mass.

    Halting is decidable on the total fragment (the structural budget always
    suffices), so this equals the supremum over B of omega_lower_bound(total,
    L, B), reached at finite B.
    """
    return omega_lower_bound(Ensemble("total", L, STRUCTURAL))


DEFAULT_GUARD = 10**8  # the oracle's step guard
# the most programs of at most k bits the oracle lists: total's 479,753 of at
# most 79 bits (c_cap 9) list in 4.6 s and 240 MB, while its 12,540,808 of at
# most 87 bits (c_cap 10) ran out of 1.5 GB
ORACLE_LIST_CAP = 10**6


class OracleResult(NamedTuple):
    tripped: bool
    reason: Optional[str]
    halting_set: Tuple[BitString, ...]
    reached: Dyadic
    steps_spent: int


def oracle_halting_from_omega(kbits: BitString, ens: Ensemble, guard: int = DEFAULT_GUARD) -> OracleResult:
    """Recover the halting set for sizes <= k from the first k bits of capped omega.

    ens must be the decidable ensemble: machine total at the structural
    budget.  Dovetails it in increasing budget: stage b adds the programs
    halting in b steps, so the exact lower bound accumulates in (steps, size,
    lex) order, an integer numerator over 2^L, until it reaches the dyadic
    value of kbits; at that point any still-unhalted program of size <= k
    would push the sum past value(kbits) + 2^-k > omega, so the halting set for
    sizes <= k is complete.  Inconsistent kbits can never be reached; the run
    then ends with a distinguishable guard-tripped outcome (the step guard, or
    immediately once the decidable ensemble is exhausted below the target).

    Programs of at most k bits are listed one by one, and a larger counted
    record is taken by count: its members each add the same steps and the same
    2^-size, and none joins the halting set, so they are interchangeable and
    where the dovetail stops depends only on how many of them it took.  The
    programs of at most k bits are counted first, and past ORACLE_LIST_CAP
    the oracle refuses with a ValueError before listing any.
    """
    if (ens.machine, ens.B) != ("total", STRUCTURAL):
        raise ValueError(f"the omega oracle needs machine total at the structural budget, "
                         f"got {ens.machine} at B={ens.B}")
    if kbits.strip("01"):  # int(kbits, 2) would take "0_1" and " 1 "
        raise ValueError(f"the oracle needs kbits to be a bit string, got {kbits!r}")
    k, L = len(kbits), ens.L
    if k > L or guard < 0:
        raise ValueError(f"the oracle needs k <= L and a guard >= 0, got k={k}, L={L}, guard={guard}")
    target = int(kbits or "0", 2) << (L - k)  # value(kbits), over 2^L
    if not target:
        return OracleResult(False, None, (), Dyadic.zero(), 0)
    swept = explicit_records(ens)  # read first: one sweep, at L, serves both listings
    listed = sum(r.count for r in swept if r.size_bits <= k)
    if listed > ORACLE_LIST_CAP:
        raise ValueError(f"the oracle would list {listed} programs of at most k={k} bits, "
                         f"over its cap of {ORACLE_LIST_CAP}")
    larger = [r for r in swept if r.size_bits > k]
    records = enumerate_halting(Ensemble("total", k, STRUCTURAL, ens.c_cap)) + larger
    records.sort(key=lambda r: (r.steps, r.size_bits, r.program_bits))
    acc, spent, halted = 0, 0, []
    for bits, _, _, steps, size, _, count in records:
        w = 1 << (L - size)
        need = -(-(target - acc) // w)  # the members that bring the sum to the target
        fit = count if spent + steps * count <= guard else (guard - spent) // steps  # within the guard
        if fit < min(need, count):  # the member after them trips the guard
            return OracleResult(True, "step guard exhausted", (), Dyadic(acc + fit * w, L),
                                spent + (fit + 1) * steps)
        take = min(need, count)
        spent += take * steps
        acc += take * w
        if size <= k:
            halted.append(bits)
        if take == need:
            return OracleResult(False, None, tuple(sorted(halted, key=lambda b: (len(b), b))), Dyadic(acc, L),
                                spent)
    return OracleResult(True, "ensemble exhausted below target (kbits inconsistent)", (), Dyadic(acc, L), spent)


def decided_halting_set(L: int, k: int, c_cap: int = DEFAULT_CHAR_CAP) -> Tuple[BitString, ...]:
    """Directly decided halting set of the capped total ensemble, sizes <= k."""
    return tuple(
        rec.program_bits
        for rec in enumerate_halting(Ensemble("total", min(k, L), STRUCTURAL, c_cap))
    )


def borel_normality(x: BitString, k: int, tol) -> dict:
    """Disjoint k-block equidistribution check.

    Partitions x into floor(|x|/k) disjoint k-blocks and passes iff every
    block value's frequency is within tol of 2^-k.  Frequencies have
    non-dyadic denominators, so this one comparison uses exact Fractions.
    """
    from fractions import Fraction  # not at module level: only this check needs it

    if k < 1:
        raise ValueError(f"--k (the block size) must be >= 1, got {k}")
    if len(x) < k:
        raise ValueError(f"--x ({len(x)} bits) is shorter than one block of --k {k} bits")
    if k > 20:
        raise ValueError(f"--k (the block size) is capped at 20 (2^k block values), got {k}")
    try:
        tol_f = Fraction(str(tol))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--tol must be a fraction or decimal, got {tol!r}") from None
    if tol_f < 0:
        raise ValueError(f"--tol must be >= 0, got {tol}")
    nblocks = len(x) // k
    counts: Dict[str, int] = {}
    for i in range(nblocks):
        block = x[i * k : (i + 1) * k]
        counts[block] = counts.get(block, 0) + 1
    ideal = Fraction(1, 2**k)
    freqs = {}
    verdict = True
    for v in range(2**k):
        block = format(v, f"0{k}b")
        f = Fraction(counts.get(block, 0), nblocks)
        freqs[block] = {"count": counts.get(block, 0), "frequency": str(f)}
        if abs(f - ideal) > tol_f:
            verdict = False
    return {
        "k": k,
        "tol": str(tol_f),
        "blocks": nblocks,
        "frequencies": freqs,
        "verdict": "pass" if verdict else "fail",
    }
