"""The definitions the sweep tests compare against, stated plainly.

Every quantity of the paper is a minimum or a sum over all programs.  This
module lists the programs: every tree of an alphabet, each run by a plain
recursive reading of the vm docstring's semantics, and the halting runs
folded in Fractions.  From omegalab it imports only sexpr and bits, so a
fault in the evaluator, the machines or the sweep has nothing here to share.
It is slow on purpose; pytest does not collect it, the tests import it.  A
record is a tuple in HaltRecord's field order, one per program.
"""

import sys
from fractions import Fraction
from functools import lru_cache

from omegalab.bits import bit_strings
from omegalab.sexpr import ALPHABET, SExprDecodeError, from_bits_prefix, to_bits

TOTAL_ALPHABET = ALPHABET.replace("l", "").replace("y", "")  # total is sd without l and y
PAIR_ALPHABET = ["", "0", "1", "00", "01", "10", "11"]  # the strings of at most 2 bits


@lru_cache(maxsize=None)
def _lists(m, alphabet):
    """Every list whose items' prints add up to m characters: a first item of
    k (an atom, or a list of items adding up to k - 2), then m - k more."""
    return ((),) if m == 0 else tuple((t,) + rest for k in range(1, m + 1)
                                      for t in (alphabet if k == 1 else _lists(k - 2, alphabet))
                                      for rest in _lists(m - k, alphabet))


def trees(max_chars, alphabet=ALPHABET, atoms=False):
    """Every list of alphabet printing to at most max_chars characters,
    shortest first, after every atom when atoms is set."""
    return [*(alphabet if atoms else ()), *(t for m in range(max_chars - 1) for t in _lists(m, alphabet))]


# -- reference evaluator -----------------------------------------------------
# A plain recursive reading of the semantics in vm.py's docstring, with no
# cycle check.

# each primitive and how many arguments it takes
ARITY = {"q": 1, "i": 3, "e": 2, "a": 1, "c": 2, "h": 1, "t": 1, "l": 2, "r": 0, "s": 0, "y": 1}


class _Stop(Exception):
    """The end of a run without a value; its args are (kind, fault class)."""


class _Closure:
    def __init__(self, param, body, env):
        self.param, self.body, self.env = param, body, env


class _Wrapper:  # what (y f) makes
    def __init__(self, clo):
        self.clo = clo


def reference_eval(expr, budget, payload="", aux=None):
    """(kind, value, payload consumed, aux consumed, steps, fault class)."""
    state = {"steps": 0, "p": 0, "a": 0}

    def charge():
        if state["steps"] == budget:
            raise _Stop("out_of_budget", None)
        state["steps"] += 1

    def fault(cls="type"):
        raise _Stop("faulted", cls)

    def data(x):
        return fault() if isinstance(x, (_Closure, _Wrapper)) else x

    def nonempty_list(x):
        return x if isinstance(x, tuple) and x else fault()

    def read(bits, pos, cls):
        if bits is None or state[pos] >= len(bits):
            fault(cls)
        state[pos] += 1
        return bits[state[pos] - 1]

    def ev(x, env):
        if isinstance(x, str):
            return env[x] if x in env else fault()
        if x == ():
            return x
        head, args = x[0], x[1:]
        if isinstance(head, str) and head in ARITY:
            charge()
            if len(args) != ARITY[head]:
                fault()
            if head == "q":
                return args[0]
            if head == "i":
                return ev(args[2] if ev(args[0], env) == () else args[1], env)
            if head == "l":
                return _Closure(*args, env) if isinstance(args[0], str) and args[0] not in ARITY else fault()
            if head == "r":
                return read(payload, "p", "payload-underrun")
            if head == "s":
                return read(aux, "a", "aux-underrun")
            vals = [ev(arg, env) for arg in args]
            if head == "e":
                return "1" if data(vals[0]) == data(vals[1]) else ()
            if head == "a":
                return "1" if isinstance(data(vals[0]), str) else ()
            if head == "c":
                return (vals[0],) + vals[1] if isinstance(vals[1], tuple) else fault()
            if head == "h":
                return nonempty_list(vals[0])[0]
            if head == "t":
                return nonempty_list(vals[0])[1:]
            return _Wrapper(vals[0]) if isinstance(vals[0], _Closure) else fault()  # y
        if len(args) != 1:
            fault()
        f = ev(head, env)
        return apply(f, ev(args[0], env))

    def apply(f, v):
        charge()
        if isinstance(f, _Closure):
            return ev(f.body, {**f.env, f.param: v})
        if isinstance(f, _Wrapper):
            return apply(apply(f.clo, f), v)
        fault()

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200_000)  # one Python frame or two per nested form or call
    try:
        kind, value, cls = "halted", ev(expr, {}), None
    except _Stop as stop:
        (kind, cls), value = stop.args, None
    finally:
        sys.setrecursionlimit(limit)
    return kind, plain(value), state["p"], state["a"], state["steps"], cls


def plain(v):
    """A value with its closures and y-wrappers made comparable: those of any
    evaluator that names their fields alike (param, body; clo)."""
    if isinstance(v, tuple):
        return tuple(plain(x) for x in v)
    if hasattr(v, "clo"):
        return ("<y>", plain(v.clo))
    if hasattr(v, "param"):
        return ("<closure>", v.param, v.body)
    return v


# -- the machines (machines docstring) ---------------------------------------

def bits_of(v):
    """A flat list of 0/1 atoms as its bit string; any other value None."""
    return "".join(v) if isinstance(v, tuple) and all(x in ("0", "1") for x in v) else None


def output(v):
    """sd's and total's output: a flat bit list's bits, or a bare 0/1 atom's one bit."""
    return v if v in ("0", "1") else bits_of(v)


def pair(v):
    """A list of exactly two flat bit lists as their two bit strings, else None."""
    xy = tuple(map(bits_of, v)) if isinstance(v, tuple) and len(v) == 2 else (None,)
    return None if None in xy else xy


def subexpressions(e):
    """Machine total's structural budget for e."""
    return 1 if isinstance(e, str) else 1 + sum(map(subexpressions, e))


def records(prefixes, L, B, aux=None):
    """The records of the programs of at most L bits, their prefixes from
    prefixes, that halt within B steps ("structural": the prefix's
    subexpressions) having read the whole payload, by (size, program bits,
    aux read).  The payload starts empty and grows by one bit, 0 and 1,
    exactly when the run underruns it; so does the aux, unless aux loads it."""
    found = []
    for prefix in prefixes:
        pre, budget = to_bits(prefix), subexpressions(prefix) if B == "structural" else B
        pending = [("", aux or "")]
        while pending:
            payload, y = pending.pop()
            kind, value, p_read, a_read, steps, why = reference_eval(prefix, budget, payload, y)
            if kind == "halted" and p_read == len(payload):
                found.append((pre + payload, output(value), pair(value), steps, len(pre + payload), y[:a_read], 1))
            elif why == "payload-underrun" and len(pre + payload) < L:
                pending += [(payload + "0", y), (payload + "1", y)]
            elif why == "aux-underrun" and aux is None:
                pending += [(payload, y + "0"), (payload, y + "1")]
    return sorted(found, key=lambda r: (r[4], r[0], r[5]))


@lru_cache(maxsize=None)
def halting(machine, L, B, c_cap, aux=None):
    """The records of sd or total whose prefixes print to at most c_cap characters."""
    return records(trees(min(c_cap, L // 8), ALPHABET if machine == "sd" else TOTAL_ALPHABET), L, B, aux)


def under(found, aux):
    """The records that halt with aux loaded (None: no aux).  A run reads aux
    on demand, so they are the ones whose aux read starts aux."""
    return [r for r in found if (aux or "").startswith(r[5])]


@lru_cache(maxsize=None)
def c2_records(L, B):
    """Machine c2's records: every raw string of 1..L bits, run."""
    found = []
    for n in range(1, L + 1):
        for raw in bit_strings(n):
            if raw[0] == "0":  # print the rest, in one step
                found += [(raw, raw[1:], None, 1, n, "", 1)] if B >= 1 else []
                continue
            try:
                expr, used = from_bits_prefix(raw[1:])
            except SExprDecodeError:
                continue
            kind, value, _, _, steps, _ = reference_eval(expr, B)
            if used == n - 1 and kind == "halted" and bits_of(value) is not None:  # one whole list; its value converts
                found.append((raw, bits_of(value), None, steps, n, "", 1))
    return found


# -- the fold, Ω and the oracle ----------------------------------------------

def fold(found, machine):
    """The table of records: per output and per pair, in (size, key) order,
    the least size, its lex-least program, how many programs have that size
    and the sum of 2^-size over its programs; then the mass (Ω's share), the
    mass of the programs with neither output nor pair (conv_fail_mass), and
    the number of programs.  c2 is not prefix-free: no masses, all 0 or None."""
    tables = {}, {}
    mass = conv_fail_mass = 0
    for bits, out, xy, _, size, _, count in found:
        w = Fraction(count, 2 ** size) if machine != "c2" else 0
        mass += w
        key, table = (out, tables[0]) if out is not None else (xy, tables[1])
        if key is None:
            conv_fail_mass += w
            continue
        h, witness, n, prob = table.get(key, (size, bits, 0, 0))
        if size < h:
            h, witness, n = size, bits, 0
        table[key] = (h, min(witness, bits) if size == h else witness, n + count * (size == h),
                      prob + w if machine != "c2" else None)
    entries, pairs = ([(key, table[key]) for key in sorted(table, key=lambda k: (len("".join(k)), k))]
                      for table in tables)
    return entries, pairs, mass, conv_fail_mass, sum(r[6] for r in found)


def table_view(table):
    """A library table as fold gives it, Dyadics as Fractions.  An entry whose
    output is not its key is left out, so it shows as missing."""
    def exact(d):
        return None if d is None else Fraction(d.num, 2 ** d.exp)

    entries, pairs = ([(key, (e.h_upper, e.witness, e.minimal_count, exact(e.prob))) for key, e in m.items()
                       if e.output == key] for m in (table.entries, table.pair_entries))
    return entries, pairs, exact(table.mass), exact(table.conv_fail_mass), table.contributing


def leading_bits(x, k):
    """The first k binary digits of a Fraction 0 <= x < 1."""
    return format(int(x * 2 ** k), f"0{k}b") if k else ""


def halting_set(found, k):
    """The programs of at most k bits, by (length, lex): what the first k bits of Ω decide."""
    return tuple(sorted((r[0] for r in found if r[4] <= k), key=lambda b: (len(b), b)))
