"""Exhaustive enumeration of halting programs and everything computed from it.

The sweep never iterates raw bit strings for the self-delimiting machines:
a domain member must decode as 8-bit characters of one balanced expression
followed by payload, so the space factorizes exactly into (valid prefix
expression) x (payload bits).  Payloads are found per run, never per
string: a run reads the bits it reads, so each halting run names the one
payload it consumes in full, and a prefix's runs enumerate precisely its
payloads.  This is provably the same domain set a raw scan of all 2^(L+1)
strings would find, at a tiny fraction of the cost.

Machine c2 is never swept, stored or listed: its domain is not prefix-free
(machines.check_prefix_free refuses it to the sweep and enumerate_halting),
and its table is in closed form (build_table, _C2Entries).  A leading 0
prints the rest in one step, so H_C(x) <= |x| + 1: every r of fewer than L
bits has the entry (r, |r| + 1, 0r, 1), answered by rule; read by length, one
template entry (NUL for r) per length, which a report prints as text
(reports.Family), with no entry or row made for each r.  A leading 1 halts
only on one whole list expression of k characters, 8k + 1 bits in all, that
reads nothing and prints a flat bit list.  Ensemble caps c2 at C2_RAW_CAP =
22 bits, which leaves a leading 1 room for at most 2 characters, so () is
the one such list: c2's one leading-1 program, the bit 1 and then the 16
bits of (), 17 bits in 0 steps with the empty output, is an entry only where
no 0r halts (B = 0).  tests/listing.py runs every evaluable list on c2 and
folds the runs into the table this gives.

A record keeps the aux bits its run read (aux_read); the run behaves alike
under every aux that starts with them, so one sweep serves every aux.  The
aux has no cap: each aux read costs a step, so the budget bounds the depth.

The sweep covers only the evaluable lists.  A prefix runs with no bindings,
so an atom in a position it must evaluate faults, and so does a form of the
wrong arity.  _SLOTS is the one statement of which lists are evaluable: per
head, what its items must be, () and applications (F A) included.
(i C T E) needs C and one of T and E evaluable, as the branch taken runs
with no bindings too; total has no closures, so none of its applications
halts.  X and the other branch are free, so the rule needs no scope.  No
prefix outside it halts under any payload and aux, so the sweep stays
exhaustive.

The sweep is built bottom-up (_build), and lists no prefix.  For each print
length n up to min(c_cap, L // 8), shortest first, it makes the halting
runs of every runnable list of n characters (an evaluable list other than
a constant, below): (prefix bits, payload, aux read, value, steps).  Each is
made from the halting runs of lists at least 3 characters shorter (its
parts), by head, with the slot kinds _SLOTS gives it:
  - () is its own value in no step; (r) and (s) take one step and return
    the one bit they read.
  - A strict form, (h X), (t X), (a X), (y X), (c X Y) or (e X Y), is
    composed: a run of each operand, in order, whose values the primitive
    accepts.  Its steps are 1 plus theirs, its payload and aux reads are
    theirs joined in order, and its value is the primitive's.
    (i C T E) is composed from a run of C and one of the branch C's value
    picks (E on (), T on any other); the branch left untaken is any
    expression, as is a quoted X.
  - An application (F A) is composed up to its application, a run of F
    whose value is a closure or a y-wrapper and a run of A; only the
    application runs anything.  domain_runs enters the step loop there
    (vm.apply), counting on from the operands' steps, and branches on the
    payload and aux bits the body reads, up to the room and the budget below.
Each composer states only its primitive's rule.  The capped ensemble is
admitted in one place, _build, which passes each length's runs through one
filter before it yields them or keeps them as parts: steps within B, and a
payload of at most L - 8n bits, the room a prefix of n characters leaves.  A
part also leaves its form a step, as every form takes one more than its
parts: it is kept only with steps below B.
This is exact, by induction on print length.  The vm evaluates a strict
form's operands left to right in the one empty environment, having charged
the form's step, and each operand reads the bits after the ones the
operands before it read; the primitive's check reads nothing.  So a run of
the form halts exactly when each operand's run on the bits after its
predecessors' halts and the primitive accepts the values, and it reads
exactly the bits they read: its halting runs are the compositions of its
operands' halting runs, which the induction has built.  A form with an
operand outside the evaluable lists halts only where that operand is never
evaluated, as an untaken branch or a quoted X is not.  A budget only cuts a
run short, and a form's payload holds its parts', so the one filter drops a
composed run over B or the room and loses none within them; on total,
which has no closures, every composed run fits its structural budget.
Closures compare by identity, and two operands of one run never share one,
while the build shares one operand run among many forms: a value that
would hold one closure twice holds a copy (_fresh), and e finds no value
that holds a function equal to anything.  tests/listing.py keeps the
listing sweep the build replaced, every runnable prefix run from step 0,
and the tests compare the two in every field.

The constants, (q X) and on sd (l p X), halt in one step, read no payload
and no aux, and return X or a closure; they are almost every evaluable list
above 7 characters.  The build lists them as parts only, up to 3
characters short of the cap, and only where B > 1, as a form over one takes
a second step.  One memoized split per print length (_split_constants)
decides their records: the constants whose value converts to an output (X
a 0/1 atom, a flat bit list, or a list of two flat bit lists: about 2^(n-5)
of n characters) get their records in closed form,
and every other constant of n characters is one counted record, its count
read from _SLOTS by _count.  A record with count c stands for c programs
alike in size, steps, output, pair and aux read.  The sweep stores the
counted records like any other, so the store's projection gates them;
build_table folds each by its count, and enumerate_halting lists their
members only when called (_counted_records).  Constants halt at any B >= 1
and serve every aux.

Exhaustiveness is bounded by the prefix-character cap (default 6 characters).
A sweep whose runnable lists number more than SWEEP_PREFIX_CAP is refused
before the build starts; _count counts them by the recursion of _SLOTS,
with nothing listed.  On a 2-CPU VM, `omega exact --L 79 --c-cap 9` and
`omega lower --machine sd --L 79 --c-cap 9` each take about 0.1 s with a
17 MB peak RSS, interpreter start-up included, and at 11 characters
`omega exact` takes about 0.25 s and 44 MB and sd's `omega lower` about
0.55 s and 72 MB.
Upper bounds beyond the cap come from constructed witnesses, each admitted
only by a run that passes, and run only when it would be the bound (_least);
the replay prefix is also built only when L can hold it.

The runs (over each machine's own alphabet: on total, without l and y) and
the stored records are in no particular order.  build_table
folds records in any order; the oracle, _least and _counted_records sort by
keys of their own.  enumerate_halting's is the one order of a sweep's
records, by (size, program bits, aux_read).  No two records share that key,
so listings, witnesses and tie-breaks are reproducible.  A sweep runs in
one process: on a 2-CPU VM, splitting it over two forked processes made it
no faster and took a second copy of its memory.

An Ensemble (machine, L, B, c_cap) names one capped program ensemble and is
the one place these inputs are checked; every sweep-derived function takes
one, and build_table is memoized on it.  explicit_records alone runs
sweeps.  Its store holds one sweep per key, an ensemble's (machine, c_cap),
and serves the ensemble's (L, B, aux) from the stored (L_s >= L,
B_s >= B) by projection: the records with size_bits <= L, steps <= B and
aux_read a prefix of aux (of "" when aux is None).  This is exact:
evaluation is deterministic, a budget only cuts a run short, and each shorter
payload or aux of a halting run underran before its last step.  A request
the stored sweep cannot serve (L_s < L or B_s < B) is swept and replaces it.
On total the store sweeps at STRUCTURAL and serves every integer B.  Tables,
capped omega, both oracles, relative complexity and every report on sd and
total derive from the store.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections.abc import Mapping
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bits import BitString, Dyadic, InvariantError, bit_strings
from .sexpr import ALPHABET, CHAR_BITS, SExpr, to_bits
from . import machines, progs, vm
from .machines import (STRUCTURAL, Program, check_budget, check_prefix_free, covers, output_of, pair_output_of,
                       value_output, value_pair)
from .reports import Family, Rows

DEFAULT_CHAR_CAP = 6
# c2's table is closed form, so this cap bounds the size of a report, not the
# table's memory: c2's JSON is 202 MB at L 20 and 826 MB at L 22
C2_RAW_CAP = 22
# the most runnable lists a sweep builds the runs of, counted before the build
# starts: total's 1,539,033 of at most 12 characters pass, and `omega exact
# --L 103 --c-cap 12` takes about 6 s and 750 MB on a 2-CPU VM; sd's
# 4,833,719 do not, and its build with the cap lifted took 11.0 s and 1,327 MB
SWEEP_PREFIX_CAP = 2 * 10**6


# ---------------------------------------------------------------------------
# expression generation

@lru_cache(maxsize=None)
def _exprs_exact(n: int, alphabet: str) -> Tuple[SExpr, ...]:
    """All expressions with atoms from alphabet whose canonical print has
    exactly n characters: an atom, () or a first item of k characters before
    the rest, a list of n - k."""
    if n <= 2:
        return tuple(alphabet) if n == 1 else ((),) if n == 2 else ()
    return tuple((e,) + rest for k in range(1, n - 1) for e in _exprs_exact(k, alphabet)
                 for rest in _exprs_exact(n - k, alphabet))


def gen_exprs(max_chars: int) -> List[SExpr]:
    """Every list expression of print length <= max_chars, shortest first;
    within a length the order is generation order, not sorted."""
    out: List[SExpr] = []
    for n in range(2, max_chars + 1):
        out.extend(_exprs_exact(n, ALPHABET))
    return out


# The prefix language, stated once: what each head's items must be for the list
# to halt when run with no bindings; head "" is () or an application (F A).
# Slot kinds: v an evaluable list, f one where l makes closures (none without
# l), p a non-primitive atom, x anything, n anything not evaluable, * any run
# of expressions; "|" separates alternatives (T or E evaluable).
_SLOTS = {"q": "x", "r": "", "s": "", "i": "vvx|vnv", "e": "vv", "c": "vv",
          "a": "v", "h": "v", "t": "v", "l": "px", "y": "v", "": "|fv"}
_CONSTANTS = ("q", "l")  # one step, nothing read (module docstring); a tuple, as "" is in every str
_RUN = tuple(h for h in _SLOTS if h not in _CONSTANTS)  # the heads of the lists a sweep builds runs of


@lru_cache(maxsize=None)
def _count(m: int, slots: str, alphabet: str) -> int:
    """The fillings of slots (kinds as in _SLOTS) with total print length m,
    counted by the recursion that would list them (tests/listing.py), listing nothing."""
    if not slots:
        return int(m == 0)
    run = slots[0] == "*"
    return (_count(m, slots[1:], alphabet) if run else 0) + sum(
        _count_items(slots[0], k, alphabet) * _count(m - k, slots if run else slots[1:], alphabet)
        for k in range(1, m + 1))


@lru_cache(maxsize=None)
def _count_items(kind: str, k: int, alphabet: str) -> int:
    """The expressions of print length k that fill a slot of kind: of v, the evaluable lists; of n, every
    expression but them; of x and *, every expression (an atom, or a list of
    a run of them)."""
    if kind in "vf":
        return _count_forms(k, _SLOTS, alphabet) if kind == "v" or "l" in alphabet else 0
    if kind == "p":
        return sum(a not in vm.PRIMS for a in alphabet) if k == 1 else 0
    every = len(alphabet) if k == 1 else _count(k - 2, "*", alphabet)
    return every - _count_forms(k, _SLOTS, alphabet) if kind == "n" else every


def _count_forms(n: int, heads, alphabet: str) -> int:
    """The lists of print length n that _SLOTS allows after a head from heads
    (each head in alphabet, or "")."""
    return sum(_count(n - 2 - len(h), alt, alphabet) for h in heads if h in alphabet for alt in _SLOTS[h].split("|"))


_ALPHABETS = {"sd": ALPHABET, "total": "".join(a for a in ALPHABET if a not in vm.GENERAL_ONLY)}


# ---------------------------------------------------------------------------
# the constants, counted

def _params(alphabet: str) -> List[str]:
    """The atoms of alphabet a lambda can bind: what fills a slot of kind p."""
    return [a for a in alphabet if a not in vm.PRIMS]


def _constants(n: int, alphabet: str) -> List[SExpr]:
    """The constants of print length n with atoms from alphabet: (q X) and (l p X)."""
    quoted = [("q", x) for x in _exprs_exact(n - 3, alphabet)] if "q" in alphabet else []
    if "l" not in alphabet:
        return quoted
    return quoted + [("l", p, x) for p in _params(alphabet) for x in _exprs_exact(n - 4, alphabet)]


@lru_cache(maxsize=None)
def _split_constants(n: int, alphabet: str) -> Tuple[HaltRecord, ...]:
    """The constants of print length n as records: one per (q X) whose value
    converts to an output (X a 0/1 atom, a flat bit list, or a list of two flat
    bit lists), and one counted record for every (q X) and (l p X) left.  Its
    program is one of them: (qa), (q(aa...)), or (lpa) where (q()) converts."""
    def bit_lists(m):  # the flat bit lists printing to m characters
        return list(itertools.product("01", repeat=m - 2)) if m >= 2 else []

    m = n - 3
    quoted = ((list("01") if m == 1 else bit_lists(m))
              + [(a, b) for k in range(2, m - 3) for a in bit_lists(k) for b in bit_lists(m - 2 - k)])
    records = tuple(HaltRecord(to_bits(("q", x)), value_output(x), value_pair(x), 1, 8 * n) for x in quoted)
    count = _count_forms(n, _CONSTANTS, alphabet) - len(records)
    if not count:
        return records
    member = (("q", "a") if n == 4 else ("l", _params(alphabet)[0], "a") if n == 5
              else ("q", ("a",) * (n - 5)))
    return records + (HaltRecord(to_bits(member), None, None, 1, 8 * n, "", count),)


def _counted_records(n: int, alphabet: str) -> List[HaltRecord]:
    """The members of the counted record of print length n, in program-bits order."""
    converting = {r.program_bits for r in _split_constants(n, alphabet) if r.count == 1}
    bits = sorted(b for b in map(to_bits, _constants(n, alphabet)) if b not in converting)
    return [HaltRecord(b, None, None, 1, 8 * n) for b in bits]


# ---------------------------------------------------------------------------
# branching body runs

def domain_runs(fun, arg, steps: int, max_payload: int,
                budget: int) -> List[Tuple[BitString, BitString, vm.RunOutcome]]:
    """All (payload, aux) that applying fun to arg, steps steps into a run,
    consumes exactly, payloads <= max_payload bits, in no particular order:
    the bits the application reads itself (vm.apply).

    Both start empty; the payload (aux) gains one bit precisely when the run
    underruns it, so each returned run halted having read all of both, and
    halts alike under any aux that starts with the aux it read.  Each branch
    runs from the application, as its few shared steps cost less than a
    continued run.
    """
    results, pending = [], [("", "")]
    while pending:
        payload, aux = pending.pop()
        out = vm.apply(fun, arg, budget, payload, aux, steps)
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


# ---------------------------------------------------------------------------
# the bottom-up build

_LP, _RP = CHAR_BITS["("], CHAR_BITS[")"]

# a strict primitive of one operand on its operand's value; None where it faults
_UNARY = {"h": lambda v: v[0] if type(v) is tuple and v else None,
          "t": lambda v: v[1:] if type(v) is tuple and v else None,
          "a": lambda v: "1" if type(v) is str else () if type(v) is tuple else None,
          "y": lambda v: vm.Rec(v) if type(v) is vm.Closure else None}


def _holds_function(v) -> bool:
    """Whether a value in expression form is or holds a closure or a y-wrapper."""
    stack = [v]
    while stack:
        x = stack.pop()
        if type(x) is tuple:
            stack += x
        elif type(x) is not str:
            return True
    return False


def _fresh(v):
    """v with each closure and y-wrapper it holds copied, shared as in v.
    Closures compare by identity, and two parts of a form never share one,
    while their runs in the build may (module docstring)."""
    import copy  # not at module level: only a value holding a function needs it
    return copy.deepcopy(v)


def _same(x, y) -> bool:
    """Structural equality of two data values in expression form, walked with
    an explicit stack: a body run can return data nested past the recursion
    limit of ==."""
    pending = [(x, y)]
    while pending:
        x, y = pending.pop()
        if type(x) is tuple and type(y) is tuple and len(x) == len(y):
            pending += zip(x, y)
        elif x != y:
            return False
    return True


def _build(alphabet: str, chars: int, L: int, B):
    """(n, runs) for each print length n from 2 to chars: the halting runs of
    the runnable lists of n characters (every evaluable list but the
    constants), in no particular order.  A run is (prefix bits, payload, aux
    read, value, steps, whether the value holds a function).  Each is
    composed from runs of shorter lists (module docstring); only an
    application runs anything.  The ensemble is admitted here alone: each
    length's runs keep steps within B and a payload of at most L - 8n bits,
    and a part, as its form takes a step more, steps below B."""
    limit = sys.maxsize if B == STRUCTURAL else B
    parts: Dict[int, list] = {}  # n -> the runs below B of every evaluable list of n characters, constants too
    free: Dict[int, List[BitString]] = {}  # k -> the bits of every expression of k characters

    def untaken(k):  # the branches an i leaves untaken: any expression
        if k not in free:
            free[k] = [CHAR_BITS[a] for a in alphabet] if k == 1 else list(map(to_bits, _exprs_exact(k, alphabet)))
        return free[k]

    for n in range(2, chars + 1):
        cap, runs = L - 8 * n, []
        for h in _RUN:
            if h not in alphabet:
                continue
            head, m = (_LP + CHAR_BITS[h] if h else _LP), n - 2 - len(h)  # m: the items' characters
            if h == "i":  # the one form that evaluates only some of its items
                runs += _conditionals(head, m, parts, untaken)
                continue
            for alt in _SLOTS[h].split("|"):
                if not alt:
                    if m == 0:
                        runs += _leaves(h, head + _RP)
                elif len(alt) == 1:
                    runs += _unary(_UNARY[h], head, parts.get(m, ()))
                elif alt[0] == "v" or "l" in alphabet:  # an f slot holds nothing without l
                    for k in range(2, m - 1):
                        xs, ys = parts.get(k), parts.get(m - k)
                        if xs and ys:
                            runs += (_applications(head, xs, ys, cap, limit) if h == "" else
                                     (_cons if h == "c" else _equalities)(head, xs, ys))
        runs = [r for r in runs if r[4] <= limit and len(r[1]) <= cap]  # the one admission: B, and the room n leaves
        yield n, runs
        if n <= chars - 3:  # a form of at most chars characters can hold it, and takes a step more
            parts[n] = [r for r in runs if r[4] < limit] + (_constant_runs(n, alphabet) if limit > 1 else [])


def _constant_runs(n: int, alphabet: str) -> list:
    """The runs of the constants of n characters: one step, nothing read, the value X or a closure."""
    return [(to_bits(e), "", "", e[1] if e[0] == "q" else vm.Closure(e[1], e[2], None), 1, e[0] == "l")
            for e in _constants(n, alphabet)]


def _leaves(h: str, bits: BitString) -> list:
    """The runs of (), (r) and (s): () is its own value in no steps, and a read returns the bit it reads."""
    if not h:
        return [(bits, "", "", (), 0, False)]
    return [(bits, b, "", b, 1, False) if h == "r" else (bits, "", b, b, 1, False) for b in "01"]


def _unary(prim, head: BitString, xs: list) -> list:
    """The runs of (h X) for a strict primitive h of one operand, each a run of X and one step."""
    out = []
    for bits, p, a, v, s, fn in xs:
        w = prim(v)
        if w is not None:
            out.append((head + bits + _RP, p, a, w, s + 1, fn and _holds_function(w)))
    return out


def _cons(head: BitString, xs: list, ys: list) -> list:
    """The runs of (c X Y): a run of X, then one of Y whose value is a list, and one step."""
    out = []
    ys = [r for r in ys if type(r[3]) is tuple]
    for bx, px, ax, vx, sx, fx in xs:
        for by, py, ay, vy, sy, fy in ys:
            out.append((head + bx + by + _RP, px + py, ax + ay, (vx,) + (_fresh(vy) if fx and fy else vy),
                        sx + sy + 1, fx or fy))
    return out


def _equalities(head: BitString, xs: list, ys: list) -> list:
    """The runs of (e X Y): a run of X, then one of Y, both values data, and
    one step.  Values that hold a function are never equal: its closures
    differ from the other part's."""
    out = []
    ys = [r for r in ys if type(r[3]) is str or type(r[3]) is tuple]
    for bx, px, ax, vx, sx, fx in xs:
        if type(vx) is not str and type(vx) is not tuple:
            continue
        for by, py, ay, vy, sy, fy in ys:
            same = not (fx or fy) and _same(vx, vy)
            out.append((head + bx + by + _RP, px + py, ax + ay, "1" if same else (), sx + sy + 1, False))
    return out


def _applications(head: BitString, fs: list, args: list, cap: int, limit: int) -> list:
    """The runs of (F A): a run of F whose value is a closure or a y-wrapper,
    then one of A, then the application, run from there (domain_runs) with
    the payload room cap and the budget limit."""
    out = []
    for bf, pf, af, vf, sf, _ in fs:
        if type(vf) is not vm.Closure and type(vf) is not vm.Rec:
            continue
        for ba, pa, aa, va, sa, fa in args:
            p = pf + pa
            bits, a = head + bf + ba + _RP, af + aa
            for pb, ab, run in domain_runs(vf, _fresh(va) if fa else va, sf + sa, cap - len(p), limit):
                out.append((bits, p + pb, a + ab, run.value, run.steps, _holds_function(run.value)))
    return out


def _conditionals(head: BitString, m: int, parts: dict, untaken) -> list:
    """The runs of (i C T E) whose items print to m characters: a run of C,
    then one of the branch its value picks, E on () and T on any other, and
    one step; the other branch is any expression."""
    out = []
    for kc in range(2, m - 1):
        for kt in range(1, m - kc):
            ke = m - kc - kt
            ts, es = parts.get(kt, ()), parts.get(ke, ())
            for bc, pc, ac, vc, sc, _ in parts.get(kc, ()):
                if vc == ():
                    for be, pe, ae, ve, se, fe in es:
                        p, a, tail, s = pc + pe, ac + ae, be + _RP, sc + se + 1
                        out += [(head + bc + bt + tail, p, a, ve, s, fe) for bt in untaken(kt)]
                else:
                    for bt, pt, at, vt, st, ft in ts:
                        p, a, front, s = pc + pt, ac + at, head + bc + bt, sc + st + 1
                        out += [(front + be + _RP, p, a, vt, s, ft) for be in untaken(ke)]
    return out


# ---------------------------------------------------------------------------
# sweep records

class HaltRecord(NamedTuple):  # immutable: stored sweeps and memoized tables share them
    program_bits: BitString  # with count > 1, one of the programs
    output: Optional[BitString]  # wrap-convention bit output, None if unconvertible
    pair: Optional[Tuple[BitString, BitString]]
    steps: int
    size_bits: int
    aux_read: BitString = ""  # the aux bits the run read
    count: int = 1  # the programs it stands for, alike in every field but program_bits


class Ensemble(NamedTuple("Ensemble", [("machine", str), ("L", int), ("B", object), ("c_cap", int)])):
    """The programs of at most L bits on machine, run for at most B steps, swept
    over prefixes of at most c_cap characters.  Every sweep-derived quantity
    is a function of one; its fields are checked here."""

    __slots__ = ()

    def __new__(cls, machine: str, L: int, B, c_cap: int = DEFAULT_CHAR_CAP) -> "Ensemble":
        if machine not in machines.MACHINES:
            raise ValueError(f"unknown machine {machine!r}")
        check_budget(machine, B)
        if L < 0 or c_cap < 0:
            raise ValueError(f"sweep needs L, c_cap >= 0, got L={L}, c_cap={c_cap}")
        if machine == "c2" and L > C2_RAW_CAP:
            raise ValueError(f"c2 is capped at L={C2_RAW_CAP}, which bounds a report's size "
                             f"(826 MB of JSON at L 22), got L={L}")
        return tuple.__new__(cls, (machine, L, B, c_cap))


_store: Dict[Tuple[str, int], Tuple[Ensemble, List[HaltRecord]]] = {}  # one sweep per store key


def enumerate_halting(ens: Ensemble, aux: Optional[BitString] = None) -> List[HaltRecord]:
    """All domain members of size <= L bits, (length, lex)-ordered, run with budget B.

    The sweep is exhaustive for sizes <= min(L, 8*c_cap + 7); see
    exhaustive_bits().  aux=None keeps the records that read no aux.  The
    explicit records with each counted record listed as its members; the list
    is the caller's.
    """
    return _with_counted(explicit_records(ens, aux), ens)


def explicit_records(ens: Ensemble, aux: Optional[BitString] = None) -> List[HaltRecord]:
    """The stored records behind enumerate_halting(ens, aux): each counted
    record stands for its members.  Served unordered from the sweep store
    (module docstring); the list is the caller's."""
    check_prefix_free(ens.machine, "a sweep")
    key = (ens.machine, ens.c_cap)
    hit = _store.get(key)
    if hit is None or hit[0].L < ens.L or not covers(hit[0].B, ens.B):  # replace a sweep that cannot serve
        swept = Ensemble("total", ens.L, STRUCTURAL, ens.c_cap) if ens.machine == "total" else ens
        hit = _store[key] = (swept, _sweep(*swept))
    y = aux or ""
    return [r for r in hit[1] if r.size_bits <= ens.L and covers(ens.B, r.steps) and y.startswith(r.aux_read)]


def _with_counted(records: List[HaltRecord], ens: Ensemble) -> List[HaltRecord]:
    """records, explicit records of ens in any order, with each counted record
    replaced by its members, sorted."""
    alphabet = _ALPHABETS[ens.machine]
    listed = [m for r in records for m in (_counted_records(r.size_bits // 8, alphabet) if r.count > 1 else (r,))]
    return sorted(listed, key=lambda r: (r.size_bits, r.program_bits, r.aux_read))


def _sweep(machine: str, L: int, B, c_cap: int) -> List[HaltRecord]:
    """The explicit records of one sweep at exactly (L, B), in no particular
    order, bypassing the store and Ensemble's checks."""
    # every prefix prints to n <= L // 8 characters, so 8n <= L already
    alphabet, chars = _ALPHABETS[machine], min(c_cap, L // 8)
    lengths = range(2, chars + 1)
    # a prefix of n characters has n - 2 inside its parentheses, each an atom
    # or a parenthesis: the count runs only where that bound passes the cap
    # (past 6 characters)
    if sum((len(alphabet) + 2) ** (n - 2) for n in lengths) > SWEEP_PREFIX_CAP:
        count = sum(_count_forms(n, _RUN, alphabet) for n in lengths)
        if count > SWEEP_PREFIX_CAP:
            raise ValueError(f"the {machine} sweep would run {count} prefixes of at most {chars} characters, "
                             f"over its cap of {SWEEP_PREFIX_CAP}")
    records = []
    for n, runs in _build(alphabet, chars, L, B):
        records += [HaltRecord(bits + p, value_output(v), value_pair(v), s, 8 * n + len(p), a)
                    for bits, p, a, v, s, _ in runs]
    if covers(B, 1):  # the constants, in closed form
        for n in lengths:
            records += _split_constants(n, alphabet)
    return records


def exhaustive_bits(ens: Ensemble) -> int:
    """Largest program size for which the sweep of ens is exhaustive."""
    return min(ens.L, 8 * ens.c_cap + 7)


# ---------------------------------------------------------------------------
# complexity tables

class TableEntry(NamedTuple):  # immutable: memoized tables share them
    output: object  # BitString or (BitString, BitString) pair
    h_upper: int
    witness: BitString
    minimal_count: int
    prob: Optional[Dyadic]


class _C2Entries(Mapping):
    """c2's bit-output entries in ens, read-only, in closed form (module
    docstring): by rule every r of fewer than `below` bits, whose program 0r
    halts in one step, (r, |r| + 1, 0r, 1, None), below being L, or 0 at
    B = 0; and the one leading-1 program's, ("", 17, 1 and then (), 1, None),
    only where no 0r halts.  programs counts c2's domain in ens.  It iterates
    in (length, output) order and makes the rule's entries only as they are
    read, or by_length a template per length."""

    def __init__(self, ens: Ensemble):
        one = TableEntry("", 17, "1" + to_bits(()), 1, None)  # the one leading-1 program: 0 steps
        self.below = ens.L if covers(ens.B, 1) else 0
        self.programs = (1 << self.below) - 1 + (ens.L >= one.h_upper)
        self.leading_1 = (one,) if ens.L >= one.h_upper and not self.below else ()

    def __getitem__(self, key):
        if type(key) is str and len(key) < self.below and not key.strip("01"):
            return TableEntry(key, len(key) + 1, "0" + key, 1, None)
        if self.leading_1 and key == "":
            return self.leading_1[0]
        raise KeyError(key)

    def __len__(self) -> int:
        return (1 << self.below) - 1 + len(self.leading_1)

    def __iter__(self):
        return itertools.chain(*map(bit_strings, range(self.below)), (e.output for e in self.leading_1))

    def by_length(self):
        """The entries in (length, output) order, each length the rule fills
        as one Family of its template entry, whose output is NUL."""
        for n in range(self.below):
            yield Family(n, TableEntry("\0", n + 1, "0\0", 1, None))
        yield from self.leading_1


class ComplexityTable(NamedTuple):
    ens: Ensemble
    entries: Mapping[BitString, TableEntry]  # a dict on sd and total
    pair_entries: Dict[Tuple[BitString, BitString], TableEntry]
    exhaustive_limit: int
    conv_fail_mass: Dyadic
    mass: Dyadic  # sum of 2^-|p| over every record
    contributing: int


@lru_cache(maxsize=32)
def build_table(ens: Ensemble) -> ComplexityTable:
    """The sweep of ens folded per output; c2's table in closed form, with no
    sweep.  Memoized on ens: callers share the table and must not change its
    dicts.  Masses are summed as integer numerators over 2^L, each made a
    Dyadic once at the end.  entries are in (length, output) order and
    pair_entries in (total length, output) order: the order of the reports."""
    L = ens.L
    if ens.machine == "c2":  # not prefix-free: no masses
        c2 = _C2Entries(ens)
        return ComplexityTable(ens, c2, {}, L, Dyadic.zero(), Dyadic.zero(), c2.programs)
    entries: Dict[BitString, TableEntry] = {}
    pair_entries: Dict[Tuple[BitString, BitString], TableEntry] = {}
    contributing = mass = conv_fail_mass = 0
    for bits, output, pair, _, size, _, count in explicit_records(ens):
        contributing += count
        w = count << (L - size)  # the record's Kraft terms, over 2^L
        mass += w
        key, entry_map = (output, entries) if output is not None else (pair, pair_entries)
        if key is None:  # every counted record lands here
            conv_fail_mass += w
        elif (cur := entry_map.get(key)) is None:
            entry_map[key] = TableEntry(key, size, bits, 1, w)
        elif size < cur.h_upper:
            entry_map[key] = TableEntry(key, size, bits, 1, cur.prob + w)
        else:
            tie = size == cur.h_upper
            entry_map[key] = TableEntry(key, cur.h_upper, min(cur.witness, bits) if tie else cur.witness,
                                        cur.minimal_count + tie, cur.prob + w)
    if mass > 1 << L:  # the domain is prefix-free, so Kraft bounds its mass
        raise InvariantError(f"Kraft sum {Dyadic(mass, L)} of the {ens.machine} domain at L={L} exceeds 1")
    for entry_map, size in ((entries, len), (pair_entries, lambda k: len(k[0]) + len(k[1]))):
        for key in sorted(sorted(entry_map), key=size):  # reinserted in report order: by (size, key)
            entry = entry_map.pop(key)
            entry_map[key] = entry._replace(prob=Dyadic(entry.prob, L))
    return ComplexityTable(ens, entries, pair_entries, exhaustive_bits(ens), Dyadic(conv_fail_mass, L),
                           Dyadic(mass, L), contributing)


class ComplexityResult(NamedTuple):
    found: bool
    h_upper: Optional[int] = None
    witness: Optional[BitString] = None
    exact: bool = False
    source: Optional[str] = None  # "sweep" | "quote" | "composed" | "replay" | "plain"


def _exactness(table: ComplexityTable, x_len: int, h: int) -> bool:
    ens = table.ens
    if ens.machine == "c2":  # 0x prints x in one step: exact where the rule of _C2Entries reaches
        return x_len < table.entries.below
    if ens.machine == "total":
        # every program smaller than the found witness was decided and enumerated
        return covers(ens.B, h // 8 + 1) and h - 1 <= table.exhaustive_limit
    return False


def complexity_upper(ens: Ensemble, x: BitString, include_constructed: bool = False) -> ComplexityResult:
    """Minimum enumerated program size producing x; "not found" is a value.

    include_constructed additionally admits the canonical quote witness
    (run when it would be the bound), which is how outputs above the exhaustive
    sweep cap get bounds; on machine total such a bound is still exact when
    the sweep below it was exhaustive.  check_chain_rule relies on it for
    h(x), so x* may be a quote witness.
    """
    table = build_table(ens)
    entry = table.entries.get(x)
    cands = [] if entry is None else [(entry.h_upper, entry.witness, "sweep", None)]
    if include_constructed and ens.machine in machines.SELF_DELIMITING:
        qp = progs.quote_program(x)
        bits = qp.bits  # qp encoded once
        cands.append((len(bits), bits, "quote", lambda: progs.verify_output(ens.machine, qp, x)))
    best = _least(ens.L, cands)
    return best._replace(exact=_exactness(table, len(x), best.h_upper)) if best.found else best


def algorithmic_probability(ens: Ensemble, x: BitString) -> Dyadic:
    """Exact partial sum of 2^-|p| over enumerated domain programs outputting x."""
    check_prefix_free(ens.machine, "algorithmic probability")
    entry = build_table(ens).entries.get(x)
    return entry.prob if entry is not None else Dyadic.zero()


def find_elegant(ens: Ensemble) -> List[TableEntry]:
    """Per output, the minimal-size program (lex tie-break) plus minimal_count."""
    return list(build_table(ens).entries.values())  # in (length, output) order


# ---------------------------------------------------------------------------
# joint / relative complexity (sweep + verified constructed witnesses)

def _least(L: Optional[int], cands) -> ComplexityResult:
    """The least (size, bits) of cands, tuples (size, bits, source, verify),
    that fits in L (None: no cap) and whose verify is None (a sweep entry) or
    passes when called (a constructed program, run by its verify).  A verify
    is called only once every smaller candidate has failed, so a constructed
    program runs only when it would be the bound."""
    for size, bits, source, verify in sorted(cands, key=lambda c: c[:2]):  # stable: the first source on a tie
        if (L is None or size <= L) and (verify is None or verify()):
            return ComplexityResult(True, size, bits, source=source)
    return ComplexityResult(False)


def joint_complexity(ens: Ensemble, x: BitString, y: BitString) -> ComplexityResult:
    """Upper bound on the pair complexity H(x,y), with its witness program."""
    check_prefix_free(ens.machine, "joint complexity")
    entry = build_table(ens).pair_entries.get((x, y))
    cands = [] if entry is None else [(entry.h_upper, entry.witness, "sweep", None)]
    qp = progs.quote_pair_program(x, y)
    bits = qp.bits
    cands.append((len(bits), bits, "quote", lambda: progs.verify_pair(ens.machine, qp, x, y)))
    return _least(ens.L, cands)


def relative_complexity(ens: Ensemble, x: BitString, y_star: BitString) -> ComplexityResult:
    """Upper bound on H(x | y*): aux channel loaded with y_star, output x."""
    machine = ens.machine
    check_prefix_free(machine, "relative complexity")
    y_run = machines.in_domain(machine, y_star, budget=progs.WITNESS_BUDGET)  # the one run of y_star
    if y_run is None:
        raise ValueError("y_star must itself be a domain program")
    cands = [(r.size_bits, r.program_bits, "sweep", None) for r in explicit_records(ens, aux=y_star)
             if r.output == x]  # a counted constant has no output
    plain = progs.quote_program(x)
    bits = plain.bits
    cands.append((len(bits), bits, "plain", lambda: progs.verify_output(machine, plain, x, aux=y_star)))
    # replaying the aux program reproduces its output; built only when L can hold it
    if output_of(y_run) == x and ens.L >= progs.REPLAY_SIZE_BITS:
        rp_bits = progs.replay_bits()
        cands.append((len(rp_bits), rp_bits, "replay", lambda: progs.verify_output(
            machine, progs.replay_program(), x, progs.GUEST_BUDGET, aux=y_star)))
    return _least(ens.L, cands)


# ---------------------------------------------------------------------------
# coding theorem and chain rule reports

def _ceil_neg_log2(d: Dyadic) -> int:
    # ceil(exp - log2 num) == exp - floor(log2 num) whether or not num is a
    # power of two (the fractional part of log2 num is in [0, 1))
    return d.exp - (d.num.bit_length() - 1)


def check_coding(ens: Ensemble) -> dict:
    """For every swept output: prob(x) >= 2^-h_upper(x) exactly; report the (*) defect."""
    check_prefix_free(ens.machine, "the coding theorem")
    rows = []
    for output, h, _, _, prob in find_elegant(ens):
        if prob < Dyadic.pow2(h):
            raise InvariantError(f"prob({output!r}) = {prob} lacks its witness term 2^-{h}")
        rows.append((output, h, str(prob), h - _ceil_neg_log2(prob)))
    return {"machine": ens.machine, "L": ens.L, "B": ens.B,
            "entries": Rows(("output", "h_upper", "prob", "defect"), rows),
            "max_defect": max((defect for *_, defect in rows), default=None)}


def check_chain_rule(ens: Ensemble, pairs: Sequence[Tuple[BitString, BitString]]) -> dict:
    """Chain-rule report: d(x,y) = h(x,y) - h(x) - h(y|x*) per pair, plus the
    composition constant K, the size of the fixed composing prefix.  The
    prefix is encoded once, K measured once from its bits, and each composed
    candidate is those bits followed by its payload x* ++ p(y|x*).

    The composer starts from step 0 once, on the longest prefix all the
    payloads share.  Each node of their trie splits its payloads by their
    next bit, and each part continues the node's run on its own longest
    shared prefix (machines.continue_run), which is a payload's outcome when
    it is that payload.  So pairs whose payloads start alike share those
    steps, whether they share x* or only its leading bits.

    h(x), h(y|x*) and h(x,y) all admit verified constructed witnesses (quote,
    plain, replay and composed programs) besides the sweep, so a pair whose x
    lies above the sweep cap still gets a bound rather than a skip.

    Only the <= direction is asserted: a composed program of size
    h(x) + h(y|x*) + K is built from the two witnesses, executed, and checked
    to output the pair, so h(x,y) <= h(x) + h(y|x*) + K stands on a run.
    """
    check_prefix_free(ens.machine, "the chain rule")
    composer = progs.pair_composer()
    composer_bits = to_bits(composer)
    K = len(composer_bits)
    witnesses = []  # per pair: x, y, h(x) and h(y|x*), not found when h(x) is not
    for x, y in pairs:
        hx = complexity_upper(ens, x, include_constructed=True)
        hyx = relative_complexity(ens, y, hx.witness) if hx.found else ComplexityResult(False)
        witnesses.append((x, y, hx, hyx))
    # the certificate of the <= direction, run whatever the bound, along the
    # trie of the payloads
    composed = {}  # payload -> the composer's run_machine outcome on it
    payloads = list({hx.witness + hyx.witness for _, _, hx, hyx in witnesses if hyx.found})
    pending = [(None, payloads)] if payloads else []
    while pending:
        parent, group = pending.pop()
        p = Program(composer, os.path.commonprefix(group))
        out = (machines.run_machine(ens.machine, p, progs.GUEST_BUDGET) if parent is None
               else machines.continue_run(parent, p))
        if p.payload in group:
            composed[p.payload] = out
        n = len(p.payload)
        for bit in "01":
            part = [q for q in group if q[n:n + 1] == bit]
            if part:
                pending.append((out, part))
    rows = []
    skipped = []
    max_abs_d = None
    for x, y, hx, hyx in witnesses:
        if not hyx.found:
            skipped.append({"x": x, "y": y, "reason": "h(y|x*) not found" if hx.found else "h(x) not found"})
            continue
        payload = hx.witness + hyx.witness
        composed_ok = pair_output_of(composed[payload]) == (x, y)
        hxy = joint_complexity(ens, x, y)
        cands = [(hxy.h_upper, hxy.witness, hxy.source, None)] if hxy.found else []
        best = _least(None, cands + [(K + len(payload), composer_bits + payload, "composed", lambda: composed_ok)])
        if not best.found:
            skipped.append({"x": x, "y": y, "reason": "h(x,y) not found"})
            continue
        d = best.h_upper - hx.h_upper - hyx.h_upper
        if d > K:
            raise InvariantError(f"h({x!r},{y!r}) = {best.h_upper} exceeds h(x) + h(y|x*) + K")
        max_abs_d = abs(d) if max_abs_d is None else max(max_abs_d, abs(d))
        rows.append(
            {
                "x": x,
                "y": y,
                "h_xy": best.h_upper,
                "h_xy_source": best.source,
                "h_x": hx.h_upper,
                "h_y_given_xstar": hyx.h_upper,
                "d": d,
                "composed_verified": composed_ok,
            }
        )
    return {
        "machine": ens.machine,
        "L": ens.L,
        "B": ens.B,
        "K": K,
        "pairs": rows,
        "skipped": skipped,
        "max_abs_d": max_abs_d,
    }
