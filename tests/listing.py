"""The reference sweep: every runnable prefix listed, and each run from step 0.

This is how the library swept before it built runs bottom-up, kept as the
definition the build is compared with.  fill reads _SLOTS as a listing:
every filling of a head's slots with expressions of the right kinds and print
length; forms lists the lists a set of heads allows, evaluable and runnable
the ones a sweep covers and runs.  domain_runs runs one prefix from step 0 on
a payload and an aux that each grow by one bit exactly when the run
underruns them.  sweep gives the records complexity._sweep builds, in no
particular order; on c2, which is never swept, it runs every evaluable list
that fits after a leading 1, and c2_table folds those runs with the
leading-0 programs into what c2's closed-form table must hold.  The caches
are unbounded: a process that lists sd at 11 characters holds about 240 MB.
pytest does not collect this module; the tests import it, or run it as

    python tests/listing.py MACHINE L B C_CAP

which prints the build's record count and whether its records equal the
listing's in every field (on c2, the listing's record count and whether the
closed-form table equals their fold).
"""

import gc
import itertools
import sys
from functools import lru_cache

from omegalab import complexity, vm
from omegalab.bits import Dyadic, InvariantError
from omegalab.complexity import _ALPHABETS, _CONSTANTS, _RUN, _SLOTS, HaltRecord, _exprs_exact, _split_constants
from omegalab.machines import STRUCTURAL, covers, output_of, pair_output_of, run_c2, structural_budget
from omegalab.sexpr import ALPHABET, to_bits


@lru_cache(maxsize=None)
def evaluable(n, alphabet):
    """The evaluable lists with atoms from alphabet and print length n."""
    return runnable(n, alphabet) + forms(n, _CONSTANTS, alphabet)


@lru_cache(maxsize=None)
def runnable(n, alphabet):
    """The evaluable lists of print length n that are not constants: the ones a sweep runs."""
    return forms(n, _RUN, alphabet)


def forms(n, heads, alphabet):
    """The lists of print length n that _SLOTS allows after a head from heads
    (each head in alphabet, or "")."""
    return tuple(head + items for h in heads if h in alphabet for head in [tuple(h)]
                 for alt in _SLOTS[h].split("|") for items in fill(n - 2 - len(h), alt, alphabet))


@lru_cache(maxsize=None)
def fill(m, slots, alphabet):
    """Every filling of slots (kinds as in _SLOTS) with total print length m."""
    if not slots:
        return ((),) if m == 0 else ()
    run = slots[0] == "*"  # zero expressions, or one and the run again
    rest = fill(m, slots[1:], alphabet) if run else ()
    return rest + tuple((e,) + tail for k in range(1, m + 1) for e in items(slots[0], k, alphabet)
                        for tail in fill(m - k, slots if run else slots[1:], alphabet))


@lru_cache(maxsize=None)
def items(kind, k, alphabet):
    """The expressions with atoms from alphabet and print length k that fill a slot of kind."""
    if kind in "vf":
        return evaluable(k, alphabet) if kind == "v" or "l" in alphabet else ()
    if kind == "p":
        return tuple(a for a in alphabet if a not in vm.PRIMS) if k == 1 else ()
    if kind == "n":
        return tuple(itertools.filterfalse(set(evaluable(k, alphabet)).__contains__, _exprs_exact(k, alphabet)))
    return _exprs_exact(k, alphabet)  # x and *


def domain_runs(prefix, max_payload, budget):
    """All (payload, aux, outcome) the prefix consumes exactly, payloads <=
    max_payload bits, each run from step 0."""
    b = structural_budget(prefix) if budget == STRUCTURAL else budget
    results, pending = [], [("", "")]
    while pending:
        payload, aux = pending.pop()
        out = vm.eval_expr(prefix, b, payload, aux)
        if out.halted:
            if out.payload_consumed != len(payload):
                raise InvariantError(f"run halted having read {out.payload_consumed} of "
                                     f"{len(payload)} payload bits")
            results.append((payload, aux, out))
        elif out.reason == "payload-underrun" and len(payload) < max_payload:
            pending += [(payload + "1", aux), (payload + "0", aux)]
        elif out.reason == "aux-underrun":
            pending += [(payload, aux + "1"), (payload, aux + "0")]
    return results


def sweep(machine, L, B, c_cap):
    """The explicit records of the sweep of (machine, L, B, c_cap), as _sweep
    gives them: every runnable prefix of at most min(c_cap, L // 8)
    characters run, the constants in closed form; on c2, its leading-1
    programs, one per evaluable list, run by run_c2."""
    if machine == "c2":
        records = []
        for n in range(17, L + 1, 8):
            for raw in ("1" + to_bits(e) for e in evaluable((n - 1) // 8, ALPHABET)):
                out = run_c2(raw, B)
                if out.halted:
                    records.append(HaltRecord(raw, "".join(out.value), None, out.steps, n))
        return records
    alphabet, lengths = _ALPHABETS[machine], range(2, min(c_cap, L // 8) + 1)
    records = []
    for n in lengths:
        for prefix in runnable(n, alphabet):
            for payload, aux, out in domain_runs(prefix, L - 8 * n, B):
                bits = to_bits(prefix) + payload
                records.append(HaltRecord(bits, output_of(out), pair_output_of(out), out.steps, len(bits), aux))
    if covers(B, 1):
        for n in lengths:
            records += _split_constants(n, alphabet)
    return records


def c2_table(L, B, records, keys):
    """c2's table at (L, B) as the listing gives it, from records, its
    leading-1 records (sweep): its entry count, its program count, and at
    each key its entry, (output, least size, lex-least program, programs of
    that size, None), or None.  Its programs are records' and, where B >= 1,
    each 0r of at most L bits, which prints r in one step."""
    family = L if covers(B, 1) else 0  # 0r prints the r of fewer than family bits
    outputs = {r.output for r in records}
    entries = {}
    for bits, out in [("0" + k, k) for k in keys | outputs if len(k) < family] + [r[:2] for r in records]:
        cur = entries.get(out)
        if cur is None or len(bits) < cur[1]:
            entries[out] = (out, len(bits), bits, 1, None)
        elif len(bits) == cur[1]:
            entries[out] = (out, cur[1], min(cur[2], bits), cur[3] + 1, None)
    count = (1 << family) - 1 + sum(len(k) >= family for k in outputs)
    return count, (1 << family) - 1 + len(records), {k: entries.get(k) for k in keys}


def build_equals_listing(machine, L, B, c_cap):
    """(the build's record count, whether its records equal sweep's in every
    field); on c2, (the listing's record count, whether the closed-form table
    has no pair and no mass and equals c2_table at every output the listing
    reached and at the strings of all 0s and all 1s of each length up to L)."""
    if machine == "c2":
        records = sweep("c2", L, B, c_cap)
        keys = {r.output for r in records} | {b * n for b in "01" for n in range(L + 1)}
        table = complexity.build_table(complexity.Ensemble("c2", L, B))
        got = len(table.entries), table.contributing, {k: table.entries.get(k) for k in keys}
        zero = Dyadic.zero()
        closed = (table.pair_entries, table.mass, table.conv_fail_mass, table.exhaustive_limit) == ({}, zero, zero, L)
        return len(records), closed and got == c2_table(L, B, records, keys)
    got = sorted(map(tuple, complexity._sweep(machine, L, B, c_cap)))
    return len(got), got == sorted(map(tuple, sweep(machine, L, B, c_cap)))


if __name__ == "__main__":
    gc.disable()  # as cli.main pauses it: the listed prefixes are never garbage, yet would be walked again and again
    machine, L, B, c_cap = sys.argv[1:]
    print(*build_equals_listing(machine, int(L), B if B == STRUCTURAL else int(B), int(c_cap)))
