"""Canonical programs written in the machine's own language.

Several measured constants in this package are sizes of fixed guest
programs, so those programs have to exist as real expressions:

  pair_composer   reads two self-delimiting programs back to back from its
                  payload, runs each, and outputs the pair of their outputs.
                  Concatenating two witnesses behind it is a valid pair
                  program with no separator, which is the whole point of
                  self-delimiting prefixes.  It records the first program's
                  bits while reading them and serves them to the second
                  program's aux reads, realizing "given a minimal program
                  for x for free"; a second program may read no aux.
  replay_prefix   reads one self-delimiting program from the aux channel,
                  runs it, and returns its value: a constant-size witness
                  that H(x | x*) does not grow with x.
  berry_driver    the incompleteness engine: runs an embedded theorem
                  enumerator, scans for a claimed-elegant program strictly
                  larger than an embedded threshold T, and if one is found
                  decodes and runs it, returning its output.  Otherwise it
                  diverges (budget exhaustion at the machine level).  The
                  length test drops T mod 8 bits, then 8 bits per
                  decrement of the numeral T // 8: O(1) guest steps per 8
                  bits of the claimed program.
  padded_quote_enumerator
                  a compact loop that emits one Elegant claim about a hugely
                  padded program, used to build the deliberately unsound
                  theorem enumerator whose claim the Berry driver can cash in.

All of these contain a guest-level meta-interpreter for the total fragment:
a parser that reads 8-bit characters until parenthesis balance closes, and
an evaluator over the parsed tree.  Guest values represent expression nodes
as themselves: an atom node is its 8-bit code as a list of bit atoms, a list
node is a list of nodes, so quoting is the identity and structural equality
is the host's single-step e.  The evaluator reads through bit sources,
closures state -> (bit, state'), and the parser through code readers,
closures state -> (8-bit code, state') that take a whole character per call;
each channel (the payload, the aux channel, an in-memory bit list) has one
of each, and a code reader returns what eight reads of its channel's bit
source return.  The pair composer's recording pair (a code reader and a bit
source on the payload) keeps the bits read so far as a difference list, a
closure mapping x to (those bits) ++ x, started from (l x x); each read
extends it at the end, so x* in reading order is (state ()).  A test against
() is a bare i, which takes () as false and any other value as true.

Guest errors fault: where the guest cannot go on it evaluates FAULT, a bare
atom nothing binds, or a host primitive faults on what it is given, so the
whole run faults at once.  The one intended divergence is _scan's LOOP on an
exhausted theorem list, which makes the sound Berry program run out of its
budget.  The guest equals the host on every domain program: same value, same
payload bits read.  It checks no arity and repeats no check the host makes,
so it may halt on a program the host rejects: replay_program with aux
bits("(q(0)(1))") outputs 0, while the host faults on (q(0)(1)).
The interpreters cover the total fragment only (l/y-free programs), which is
what the experiments' claimed programs run on; every constructed program is
verified by executing it before any size derived from it is asserted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .bits import BitString
from .machines import Program, output_of, pair_output_of, run_machine
from .sexpr import CHAR_BITS, SExpr, parse, to_bits
from .vm import PRIMS

# step budgets: one verified witness run, and one guest run of a program that
# interprets another (replay and composed pair witnesses)
WITNESS_BUDGET = 10**6
GUEST_BUDGET = 10**7

# -- expression builders ----------------------------------------------------

NIL: SExpr = ()


def ap(f: SExpr, x: SExpr) -> SExpr:
    return (f, x)


def ap2(f: SExpr, x: SExpr, y: SExpr) -> SExpr:
    return ((f, x), y)


def lam(p: str, body: SExpr) -> SExpr:
    if len(p) != 1 or p in PRIMS:
        raise ValueError(f"bad parameter {p!r}")
    return ("l", p, body)


def lam2(p1: str, p2: str, body: SExpr) -> SExpr:
    return lam(p1, lam(p2, body))


def fix(f: SExpr) -> SExpr:
    return ("y", f)


def q(x: SExpr) -> SExpr:
    return ("q", x)


def iff(c: SExpr, t: SExpr, e: SExpr) -> SExpr:
    return ("i", c, t, e)


def eq(a: SExpr, b: SExpr) -> SExpr:
    return ("e", a, b)


def isatom(x: SExpr) -> SExpr:
    return ("a", x)


def cons(a: SExpr, b: SExpr) -> SExpr:
    return ("c", a, b)


def hd(x: SExpr) -> SExpr:
    return ("h", x)


def tl(x: SExpr) -> SExpr:
    return ("t", x)


RD: SExpr = ("r",)
SRD: SExpr = ("s",)


def let(bindings, body: SExpr) -> SExpr:
    """let v1=e1, v2=e2 ... in body, as nested single-parameter applications."""
    for v, e in reversed(bindings):
        body = ap(lam(v, body), e)
    return body


def pair2(a: SExpr, b: SExpr) -> SExpr:
    return cons(a, cons(b, NIL))


def keep_state(x: SExpr, p: SExpr) -> SExpr:
    """(x state) from a guest pair p = (_ state): pair2(x, hd(tl(p))), shorter."""
    return cons(x, tl(p))


def qbits(bits: BitString) -> SExpr:
    return q(tuple(bits))


def code_node(ch: str) -> SExpr:
    """Quoted guest node for an atom: its 8-bit code as a list of bit atoms."""
    return qbits(CHAR_BITS[ch])


# diverge: self-application loop; evaluating it burns budget forever
LOOP: SExpr = ap(lam("v", ap("v", "v")), lam("v", ap("v", "v")))

# fault: a primitive as a bare atom is never bound (lam rejects primitives as
# parameters), so evaluating it faults at once
FAULT: SExpr = "a"


# -- bit sources (closures state -> (bit state')) ---------------------------

SRC_PAYLOAD: SExpr = lam("z", pair2(RD, "z"))
SRC_AUX: SExpr = lam("z", pair2(SRD, "z"))
SRC_LIST: SExpr = lam("z", pair2(hd("z"), tl("z")))
# recording payload source: the state is a difference list, a closure mapping
# x to (the bits read so far) ++ x
SRC_PAYLOAD_REC: SExpr = lam("z", let([("b", RD)], pair2("b", lam("x", ap("z", cons("b", "x"))))))
# aux source that faults if ever used (programs with no aux granted)
SRC_NONE: SExpr = lam("z", FAULT)
# the recording sources' start state: nothing read, (l x x)
REC_START: SExpr = lam("x", "x")


def _consed(items, onto: SExpr = NIL) -> SExpr:
    """(c i1 (c i2 ... (c ik onto))): the items' values, in order, before onto's."""
    for item in reversed(items):
        onto = cons(item, onto)
    return onto


# -- code readers (closures state -> (8-bit code state')) -------------------
# Each returns what eight reads of its channel's bit source return: the list
# of the eight bits and the state after them.

CODE_PAYLOAD: SExpr = lam("z", pair2(_consed([RD] * 8), "z"))
CODE_AUX: SExpr = lam("z", pair2(_consed([SRD] * 8), "z"))
# list: seven (t ...) lets walk the states z b ... n, and eight h take the bits
_STATES = "zbdgjkmn"
CODE_LIST: SExpr = lam("z", let([(v, tl(prev)) for prev, v in zip(_STATES, _STATES[1:])],
                                pair2(_consed([hd(v) for v in _STATES]), tl("n"))))
# recording payload: eight (r) lets, which both the code and the record list
_BITS = "bdgjkmno"
CODE_PAYLOAD_REC: SExpr = lam("z", let([(v, RD) for v in _BITS],
                                       pair2(_consed(_BITS), lam("x", ap("z", _consed(_BITS, "x"))))))


# -- shared guest components ------------------------------------------------

def _parseitems() -> SExpr:
    """p = lambda f: items parser over the code reader f: reads codes until
    ')' closes this level; '(' recurses.  Maps a state to (node-list state')."""
    # b = (item state): an atom node is v itself, '(' parses a sublist
    after_code = iff(
        eq("n", code_node(")")),
        keep_state(NIL, "v"),
        let(
            [("b", iff(eq("n", code_node("(")), ap("k", hd(tl("v"))), "v")),
             ("d", ap("k", hd(tl("b"))))],
            keep_state(cons(hd("b"), hd("d")), "d"),
        ),
    )
    body = let([("v", ap("f", "z")), ("n", hd("v"))], after_code)
    return lam("f", fix(lam("k", lam("z", body))))


def _parseexpr() -> SExpr:
    """v = whole-expression parser over the code reader f: skips the first
    code, '(' in every program."""
    return lam2("f", "z", ap2("p", "f", hd(tl(ap("f", "z")))))


def _meval() -> SExpr:
    """m = lambda rsrc ssrc: evaluator for parsed total-fragment nodes.

    The instance maps (node, state) -> (value, state') with
    state = (payload-state aux-state).  q, r and s are dispatched first; every
    other form evaluates its first argument once, and e and c their second
    once.  An unknown head ends the dispatch in FAULT; arity and types go
    unchecked, so m matches the host on domain programs only (module docstring).
    """
    arg1 = hd(tl("x"))
    arg2 = hd(tl(tl("x")))
    arg3 = hd(tl(tl(tl("x"))))

    def ev(node: SExpr, state: SExpr) -> SExpr:
        return ap(ap("k", node), state)

    def dispatch(branches, default: SExpr) -> SExpr:
        for ch, branch in reversed(branches):
            default = iff(eq("n", code_node(ch)), branch, default)
        return default

    def read_branch(src: str, this_state: SExpr, rebuild) -> SExpr:
        return let(
            [("v", ap(src, this_state))],
            pair2(
                iff(eq(hd("v"), q("0")), code_node("0"), code_node("1")),
                rebuild(hd(tl("v"))),
            ),
        )

    # v = (value1 state1) and b = (value2 state2) of the evaluated arguments
    st1 = hd(tl("v"))
    atom1 = iff(hd("v"), iff(isatom(hd(hd("v"))), code_node("1"), NIL), NIL)
    two_args = let(
        [("b", ev(arg2, st1))],
        dispatch(
            [
                ("e", keep_state(iff(eq(hd("v"), hd("b")), code_node("1"), NIL), "b")),
                ("c", keep_state(cons(hd("v"), hd("b")), "b")),
            ],
            FAULT,
        ),
    )
    one_arg = let(
        [("v", ev(arg1, "z"))],
        dispatch(
            [
                ("i", iff(hd("v"), ev(arg2, st1), ev(arg3, st1))),
                ("a", keep_state(atom1, "v")),
                ("h", keep_state(hd(hd("v")), "v")),
                ("t", keep_state(tl(hd("v")), "v")),
            ],
            two_args,
        ),
    )
    forms = dispatch(
        [
            ("q", pair2(arg1, "z")),
            ("r", read_branch("f", hd("z"), lambda st: keep_state(st, "z"))),
            ("s", read_branch("o", hd(tl("z")), lambda st: pair2(hd("z"), st))),
        ],
        one_arg,
    )
    body = iff("x", let([("n", hd("x"))], forms), pair2(NIL, "z"))
    return lam2("f", "o", fix(lam("k", lam2("x", "z", body))))


def _toplain() -> SExpr:
    """u = guest node/value -> plain data; only bit atoms are expressible."""
    body = iff(
        "x",
        iff(
            isatom(hd("x")),
            iff(eq("x", code_node("0")), q("0"), iff(eq("x", code_node("1")), q("1"), FAULT)),
            cons(ap("k", hd("x")), ap("k", tl("x"))),
        ),
        NIL,
    )
    return fix(lam("k", lam("x", body)))


def _wrap_bits() -> SExpr:
    """b = guest value -> flat bit list (a lone bit atom becomes a singleton)."""
    return lam("x", let([("n", ap("u", "x"))], iff(isatom("n"), cons("n", NIL), "n")))


def _dec() -> SExpr:
    """d = decrement a normalized little-endian binary numeral (zero = ())."""
    body = iff(
        eq(hd("x"), q("1")),
        iff(tl("x"), cons(q("0"), tl("x")), NIL),
        cons(q("1"), ap("k", tl("x"))),
    )
    return fix(lam("k", lam("x", body)))


def _drop() -> SExpr:
    """f = lambda bits: bits without the first, () kept.

    A guarded tail (i x (t x) ()), since a bare t of () faults the run.
    """
    return lam("x", iff("x", tl("x"), NIL))


def _applied(letters: str, x: SExpr) -> SExpr:
    """(l1 (l2 ... (lk x))): the functions bound to the letters, the last first."""
    for f in reversed(letters):
        x = ap(f, x)
    return x


def _gt() -> SExpr:
    """g = lambda bits counter: bits less their first 8 * counter (a
    little-endian numeral), () when they run out.

    Drops 8 bits per decrement of the counter and stops early once bits run
    out.  As a guest predicate, () false and any other value true as for i,
    it answers |bits| > 8 * counter.  Uses d and f from the enclosing scope.
    """
    body = iff("n", iff("x", ap2("k", _applied("f" * 8, "x"), ap("d", "n")), "x"), "x")
    return fix(lam("k", lam2("x", "n", body)))


def nat_le_bits(n: int) -> str:
    """Little-endian binary numeral, normalized (no trailing zero); 0 is empty."""
    return format(n, "b")[::-1] if n else ""


def _scan(threshold: int) -> SExpr:
    """k = scan a theorem list for the first (e b1...bn) with n > threshold.

    Returns the bit list; diverges when the list is exhausted, the guest's
    one intended divergence.  T is embedded as seven slots that drop the
    first T mod 8 bits (f drops one, j is the identity) and the numeral of
    T // 8 that g walks, so its print length depends on bitlen(T) only.
    """
    low = threshold % 8
    bits = _applied("f" * low + "j" * (7 - low), tl(hd("x")))
    check = iff(ap2("g", bits, qbits(nat_le_bits(threshold // 8))), tl(hd("x")), ap("k", tl("x")))
    body = iff(
        "x",
        iff(hd("x"), iff(eq(hd(hd("x")), q("e")), check, ap("k", tl("x"))), ap("k", tl("x"))),
        LOOP,
    )
    return let([("j", lam("x", "x"))], fix(lam("k", lam("x", body))))


def _scan_binds(threshold: int) -> list:
    """The bindings d f g k: the length test against threshold and the scan
    that runs it, as berry_driver binds them."""
    return [("d", _dec()), ("f", _drop()), ("g", _gt()), ("k", _scan(threshold))]


def _interpreter() -> list:
    """The bindings p v m u: the guest parser and evaluator every assembled
    program starts with."""
    return [("p", _parseitems()), ("v", _parseexpr()), ("m", _meval()), ("u", _toplain())]


# -- assembled programs -----------------------------------------------------

@lru_cache(maxsize=None)
def pair_composer() -> SExpr:
    """Fixed prefix turning payload = bits(P1) ++ bits(P2) into the pair program.

    P1's bits, recorded while reading them, feed P2's aux reads, so the
    composed payload realizes x* ++ p_{y|x*}; a P2 reading no aux ignores them.
    The record is a difference list, so x* in reading order is (state ()).
    """
    binds = _interpreter() + [
        ("b", _wrap_bits()),
        ("d", ap2("v", CODE_PAYLOAD_REC, REC_START)),  # (ast1 state1)
        ("g", ap2(ap2("m", SRC_PAYLOAD_REC, SRC_NONE), hd("d"), pair2(hd(tl("d")), NIL))),  # (val1 st)
        ("k", ap2("v", CODE_PAYLOAD, NIL)),
        ("x", ap2(ap2("m", SRC_PAYLOAD, SRC_LIST), hd("k"),
                  pair2(hd(tl("k")), ap(hd(hd(tl("g"))), NIL)))),  # aux state: x* bits
    ]
    return let(binds, pair2(ap("b", hd("g")), ap("b", hd("x"))))


def _replay_binds() -> list:
    """replay_prefix's bindings: the interpreter, then g = (value state) of
    the program read off the aux channel."""
    return _interpreter() + [
        ("d", ap2("v", CODE_AUX, NIL)),
        ("g", ap2(ap2("m", SRC_AUX, SRC_NONE), hd("d"), pair2(hd(tl("d")), NIL))),
    ]


@lru_cache(maxsize=None)
def replay_prefix() -> SExpr:
    """Fixed prefix that runs the program handed to it on the aux channel."""
    return let(_replay_binds(), ap("u", hd("g")))


# len(replay_bits()), pinned so that a caller can tell whether an L can hold
# the replay prefix without building it (test_frozen_guest_constants checks it)
REPLAY_SIZE_BITS = 8368


@lru_cache(maxsize=None)
def replay_bits() -> BitString:
    """The replay prefix encoded, once per process."""
    return to_bits(replay_prefix())


def replay_program() -> Program:
    return Program(replay_prefix(), "")


def berry_driver(enum_prefix: SExpr, threshold: int) -> SExpr:
    """The paradox program: enumerator + scan-for-too-large-elegant + run it.

    The enumerator expression is spliced in as code, so it reads this
    program's own payload; _scan embeds the threshold.
    """
    binds = _interpreter() + _scan_binds(threshold) + [
        ("n", enum_prefix),  # runs here; value must be the theorem list
        ("o", ap("k", "n")),  # bits of the first too-large claimed-elegant Q
        ("b", ap2("v", CODE_LIST, "o")),  # (ast rest-of-bits) -- rest is Q's payload
        ("z", ap2(ap2("m", SRC_LIST, SRC_NONE), hd("b"), pair2(hd(tl("b")), NIL))),
    ]
    return let(binds, ap("u", hd("z")))


def padded_quote_enumerator(pad: int) -> SExpr:
    """Enumerator emitting one Elegant claim about a padded quote program.

    The claimed program is (h(q((00) 0...0))) with `pad` zero atoms of
    padding: hugely oversized for its output 00, yet generated here by a loop
    whose own size only grows with log(pad).  Its bit string is
    bits("(h(q((00)") ++ pad * bits("0") ++ bits(")))").
    """
    head = "(h(q((00)"
    tail = ")))"
    append = fix(
        lam("k", lam2("x", "n", iff(eq("x", NIL), "n", cons(hd("x"), ap2("k", tl("x"), "n")))))
    )
    zero_code = CHAR_BITS["0"]
    rep_body = iff(eq("x", NIL), "n", ap2("k", ap("d", "x"), _consed([q(b) for b in zero_code], "n")))
    rep = fix(lam("k", lam2("x", "n", rep_body)))
    binds = [
        ("d", _dec()),
        ("b", append),
        ("g", rep),
        ("n", ap2("g", qbits(nat_le_bits(pad)), qbits(_str_bits(tail)))),
        ("o", ap2("b", qbits(_str_bits(head)), "n")),
    ]
    theorem = cons(q("e"), "o")
    return let(binds, cons(theorem, NIL))


def _str_bits(chars: str) -> BitString:
    return "".join(CHAR_BITS[ch] for ch in chars)


def padded_quote_program(pad: int) -> Program:
    """The program the unsound enumerator makes its claim about."""
    return Program(parse("(h(q((00)" + "0" * pad + ")))"), "")


# -- host-side construction helpers -----------------------------------------

def quote_program(x: BitString) -> Program:
    return Program(("q", tuple(x)), "")


def quote_pair_program(x: BitString, y: BitString) -> Program:
    return Program(("q", (tuple(x), tuple(y))), "")


def verify_pair(machine: str, p: Program, x: BitString, y: BitString) -> bool:
    """Run p and confirm it is a domain program outputting exactly (x, y)."""
    return pair_output_of(run_machine(machine, p, WITNESS_BUDGET)) == (x, y)


def verify_output(machine: str, p: Program, x: BitString, budget: int = WITNESS_BUDGET,
                  aux: Optional[BitString] = None) -> bool:
    return output_of(run_machine(machine, p, budget, aux=aux)) == x
