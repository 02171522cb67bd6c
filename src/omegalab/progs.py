"""Canonical programs written in the machine's own language.

Several measured constants in this package are sizes of fixed guest
programs, so those programs have to exist as real expressions:

  pair_composer   reads two self-delimiting programs back to back from its
                  payload, runs each, and outputs the pair of their outputs.
                  Concatenating two witnesses behind it is a valid pair
                  program with no separator, which is the whole point of
                  self-delimiting prefixes.  The with_aux variant records the
                  first program's bits while reading them and serves them to
                  the second program's aux reads, realizing "given a minimal
                  program for x for free".
  replay_prefix   reads one self-delimiting program from the aux channel,
                  runs it, and returns its value: a constant-size witness
                  that H(x | x*) does not grow with x.
  berry_driver    the incompleteness engine: runs an embedded theorem
                  enumerator, scans for a claimed-elegant program strictly
                  larger than an embedded threshold, and if one is found
                  decodes and runs it, returning its output.  Otherwise it
                  diverges (budget exhaustion at the machine level).
  padded_quote_enumerator
                  a compact loop that emits one Elegant claim about a hugely
                  padded program, used to build the deliberately unsound
                  theorem enumerator whose claim the Berry driver can cash in.

All of these contain a guest-level meta-interpreter for the total fragment:
a parser that decodes 8-bit characters off a bit source until parenthesis
balance closes, and an evaluator over the parsed tree.  Guest values
represent expression nodes as themselves: an atom node is its 8-bit code as
a list of bit atoms, a list node is a list of nodes, so quoting is the
identity and structural equality is the host's single-step e.  Bit sources
are closures state -> (bit, state'), which lets one interpreter read from
the payload channel, the aux channel, or an in-memory bit list.

Guest-level error handling is divergence (a self-application loop), matching
the convention that undecodable or ill-typed programs count as non-halting.
The interpreters cover the total fragment only (l/y-free programs), which is
what the experiments' claimed programs run on; every constructed program is
verified by executing it before any size derived from it is asserted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from .bits import BitString
from .machines import Program, output_of, pair_output_of, run_machine
from .sexpr import CHAR_BITS, SExpr, print_sexpr
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


def qbits(bits: BitString) -> SExpr:
    return q(tuple(bits))


def code_node(ch: str) -> SExpr:
    """Quoted guest node for an atom: its 8-bit code as a list of bit atoms."""
    return qbits(CHAR_BITS[ch])


# diverge: self-application loop; evaluating it burns budget forever
LOOP: SExpr = ap(lam("v", ap("v", "v")), lam("v", ap("v", "v")))

# guest truth for predicates built below: any non-() value; () is false
TRUE: SExpr = q("1")


# -- bit sources (closures state -> (bit state')) ---------------------------

SRC_PAYLOAD: SExpr = lam("z", pair2(RD, "z"))
SRC_AUX: SExpr = lam("z", pair2(SRD, "z"))
SRC_LIST: SExpr = lam("z", pair2(hd("z"), tl("z")))
# recording payload source: state is the reversed list of bits read so far
SRC_PAYLOAD_REC: SExpr = lam("z", ap(lam("b", pair2("b", cons("b", "z"))), RD))
# aux source that diverges if ever used (programs with no aux granted)
SRC_NONE: SExpr = lam("z", LOOP)


# -- shared guest components ------------------------------------------------

def _readcode() -> SExpr:
    """w = lambda src state: ((8-bit code list) state')."""
    vs = ["b", "d", "g", "j", "k", "m", "n", "o"]
    binds = [(vs[0], ap("f", "z"))]
    for prev, cur in zip(vs, vs[1:]):
        binds.append((cur, ap("f", hd(tl(prev)))))
    code = NIL
    for v in reversed(vs):
        code = cons(hd(v), code)
    return lam2("f", "z", let(binds, pair2(code, hd(tl(vs[-1])))))


def _parseitems() -> SExpr:
    """p = items parser: reads codes until ')' closes this level; '(' recurses.

    Returns (node-list, state'); uses w (readcode) from the enclosing scope.
    """
    after_code = iff(
        eq("n", code_node(")")),
        pair2(NIL, hd(tl("v"))),
        iff(
            eq("n", code_node("(")),
            let(
                [("b", ap2("k", "f", hd(tl("v")))),
                 ("d", ap2("k", "f", hd(tl("b"))))],
                pair2(cons(hd("b"), hd("d")), hd(tl("d"))),
            ),
            let(
                [("d", ap2("k", "f", hd(tl("v"))))],
                pair2(cons("n", hd("d")), hd(tl("d"))),
            ),
        ),
    )
    body = let([("v", ap2("w", "f", "z")), ("n", hd("v"))], after_code)
    return fix(lam("k", lam2("f", "z", body)))


def _parseexpr() -> SExpr:
    """v = whole-expression parser: first character must be '('."""
    body = let(
        [("b", ap2("w", "f", "z"))],
        iff(eq(hd("b"), code_node("(")), ap2("p", "f", hd(tl("b"))), LOOP),
    )
    return lam2("f", "z", body)


def _meval() -> SExpr:
    """m = lambda rsrc ssrc: evaluator for parsed total-fragment nodes.

    The instance maps (node, state) -> (value, state') with
    state = (payload-state aux-state); errors diverge.
    """
    arg1 = hd(tl("x"))
    arg2 = hd(tl(tl("x")))
    arg3 = hd(tl(tl(tl("x"))))

    def ev(node: SExpr, state: SExpr) -> SExpr:
        return ap(ap("k", node), state)

    q_branch = pair2(arg1, "z")
    i_branch = let(
        [("v", ev(arg1, "z"))],
        iff(eq(hd("v"), NIL), ev(arg3, hd(tl("v"))), ev(arg2, hd(tl("v")))),
    )
    e_branch = let(
        [("v", ev(arg1, "z")), ("b", ev(arg2, hd(tl("v"))))],
        pair2(iff(eq(hd("v"), hd("b")), code_node("1"), NIL), hd(tl("b"))),
    )
    a_branch = let(
        [("v", ev(arg1, "z"))],
        pair2(
            iff(eq(hd("v"), NIL), NIL, iff(isatom(hd(hd("v"))), code_node("1"), NIL)),
            hd(tl("v")),
        ),
    )
    c_branch = let(
        [("v", ev(arg1, "z")), ("b", ev(arg2, hd(tl("v"))))],
        iff(
            eq(hd("b"), NIL),
            pair2(cons(hd("v"), hd("b")), hd(tl("b"))),
            iff(
                isatom(hd(hd("b"))),
                LOOP,  # consing onto an atom node: type fault
                pair2(cons(hd("v"), hd("b")), hd(tl("b"))),
            ),
        ),
    )

    def ht_branch(pick) -> SExpr:
        return let(
            [("v", ev(arg1, "z"))],
            iff(
                eq(hd("v"), NIL),
                LOOP,
                iff(isatom(hd(hd("v"))), LOOP, pair2(pick(hd("v")), hd(tl("v")))),
            ),
        )

    def read_branch(src: str, this_state: SExpr, rebuild) -> SExpr:
        return let(
            [("v", ap(src, this_state))],
            pair2(
                iff(eq(hd("v"), q("0")), code_node("0"), code_node("1")),
                rebuild(hd(tl("v"))),
            ),
        )

    r_branch = read_branch("f", hd("z"), lambda st: pair2(st, hd(tl("z"))))
    s_branch = read_branch("o", hd(tl("z")), lambda st: pair2(hd("z"), st))

    dispatch = LOOP
    for ch, branch in reversed(
        [
            ("q", q_branch),
            ("i", i_branch),
            ("e", e_branch),
            ("a", a_branch),
            ("c", c_branch),
            ("h", ht_branch(hd)),
            ("t", ht_branch(tl)),
            ("r", r_branch),
            ("s", s_branch),
        ]
    ):
        dispatch = iff(eq("n", code_node(ch)), branch, dispatch)

    body = iff(
        eq("x", NIL),
        pair2(NIL, "z"),  # the empty list is a value
        iff(
            isatom(hd("x")),
            LOOP,  # bare atom node: nothing is bound in the total fragment
            let(
                [("n", hd("x"))],
                iff(
                    eq("n", NIL),
                    LOOP,
                    iff(isatom(hd("n")), dispatch, LOOP),  # head must be an atom node
                ),
            ),
        ),
    )
    return lam2("f", "o", fix(lam("k", lam2("x", "z", body))))


def _toplain() -> SExpr:
    """u = guest node/value -> plain data; only bit atoms are expressible."""
    body = iff(
        eq("x", NIL),
        NIL,
        iff(
            isatom(hd("x")),
            iff(eq("x", code_node("0")), q("0"), iff(eq("x", code_node("1")), q("1"), LOOP)),
            cons(ap("k", hd("x")), ap("k", tl("x"))),
        ),
    )
    return fix(lam("k", lam("x", body)))


def _wrap_bits() -> SExpr:
    """b = guest value -> flat bit list (a lone bit atom becomes a singleton)."""
    return lam("x", let([("n", ap("u", "x"))], iff(isatom("n"), cons("n", NIL), "n")))


def _dec() -> SExpr:
    """d = decrement a normalized little-endian binary numeral (zero = ())."""
    body = iff(
        eq(hd("x"), q("1")),
        iff(eq(tl("x"), NIL), NIL, cons(q("0"), tl("x"))),
        cons(q("1"), ap("k", tl("x"))),
    )
    return fix(lam("k", lam("x", body)))


def _gt() -> SExpr:
    """g = lambda bits counter: is |bits| > counter (little-endian numeral)."""
    body = iff(
        eq("n", NIL),
        iff(eq("x", NIL), NIL, TRUE),
        iff(eq("x", NIL), NIL, ap2("k", tl("x"), ap("d", "n"))),
    )
    return fix(lam("k", lam2("x", "n", body)))


def _reverse() -> SExpr:
    """o = lambda list acc: reversed list prepended onto acc."""
    body = iff(eq("x", NIL), "n", ap2("k", tl("x"), cons(hd("x"), "n")))
    return fix(lam("k", lam2("x", "n", body)))


def nat_le_bits(n: int) -> str:
    """Little-endian binary numeral, normalized (no trailing zero); 0 is empty."""
    return format(n, "b")[::-1] if n else ""


def _scan(threshold: int) -> SExpr:
    """k = scan a theorem list for the first (e b1...bn) with n > threshold.

    Returns the bit list; diverges when the list is exhausted.
    """
    check = iff(
        ap2("g", tl(hd("x")), qbits(nat_le_bits(threshold))),
        tl(hd("x")),
        ap("k", tl("x")),
    )
    body = iff(
        eq("x", NIL),
        LOOP,
        iff(
            eq(hd("x"), NIL),
            ap("k", tl("x")),
            iff(eq(hd(hd("x")), q("e")), check, ap("k", tl("x"))),
        ),
    )
    return fix(lam("k", lam("x", body)))


def _interpreter() -> list:
    """The bindings w p v m u: the guest parser and evaluator every assembled
    program starts with."""
    return [("w", _readcode()), ("p", _parseitems()), ("v", _parseexpr()), ("m", _meval()),
            ("u", _toplain())]


# -- assembled programs -----------------------------------------------------

@lru_cache(maxsize=None)
def pair_composer(with_aux: bool) -> SExpr:
    """Fixed prefix turning payload = bits(P1) ++ bits(P2) into the pair program.

    with_aux=True additionally feeds P1's bits (recorded while reading them)
    to P2's aux reads, so the composed payload realizes x* ++ p_{y|x*}.
    """
    helper_binds = _interpreter() + [("b", _wrap_bits())]
    if with_aux:
        helper_binds.append(("o", _reverse()))
        src1 = SRC_PAYLOAD_REC
    else:
        src1 = SRC_PAYLOAD
    run1 = [
        ("f", src1),
        ("d", ap2("v", "f", NIL)),  # (ast1 state1)
        ("g", ap2(ap2("m", "f", SRC_NONE), hd("d"), pair2(hd(tl("d")), NIL))),  # (val1 st)
    ]
    if with_aux:
        run2 = [
            ("n", ap2("o", hd(hd(tl("g"))), NIL)),  # x* bits, reading order restored
            ("j", SRC_PAYLOAD),
            ("k", ap2("v", "j", NIL)),
            ("x", ap2(ap2("m", "j", SRC_LIST), hd("k"), pair2(hd(tl("k")), "n"))),
        ]
    else:
        run2 = [
            ("k", ap2("v", "f", NIL)),
            ("x", ap2(ap2("m", "f", SRC_NONE), hd("k"), pair2(hd(tl("k")), NIL))),
        ]
    body = pair2(ap("b", hd("g")), ap("b", hd("x")))
    return let(helper_binds + run1 + run2, body)


@lru_cache(maxsize=None)
def replay_prefix() -> SExpr:
    """Fixed prefix that runs the program handed to it on the aux channel."""
    binds = _interpreter() + [
        ("f", SRC_AUX),
        ("d", ap2("v", "f", NIL)),
        ("g", ap2(ap2("m", "f", SRC_NONE), hd("d"), pair2(hd(tl("d")), NIL))),
    ]
    return let(binds, ap("u", hd("g")))


def replay_program() -> Program:
    return Program(replay_prefix(), "")


def berry_driver(enum_prefix: SExpr, threshold: int) -> SExpr:
    """The paradox program: enumerator + scan-for-too-large-elegant + run it.

    The enumerator expression is spliced in as code, so it reads this
    program's own payload; the threshold is an embedded numeral.
    """
    binds = _interpreter() + [
        ("d", _dec()),
        ("g", _gt()),
        ("k", _scan(threshold)),
        ("n", enum_prefix),  # runs here; value must be the theorem list
        ("o", ap("k", "n")),  # bits of the first too-large claimed-elegant Q
        ("j", SRC_LIST),
        ("b", ap2("v", "j", "o")),  # (ast rest-of-bits) -- rest is Q's payload
        ("z", ap2(ap2("m", "j", SRC_NONE), hd("b"), pair2(hd(tl("b")), NIL))),
    ]
    return let(binds, ap("u", hd("z")))


def padded_quote_enumerator(pad: int, out_bits: BitString = "00") -> SExpr:
    """Enumerator emitting one Elegant claim about a padded quote program.

    The claimed program is (h(q((out) 0...0))) with `pad` zero atoms of
    padding: hugely oversized for its output, yet generated here by a loop
    whose own size only grows with log(pad).  Its bit string is
    bits("(h(q((out)") ++ pad * bits("0") ++ bits(")))").
    """
    head = "(h(q((" + out_bits + ")"
    tail = ")))"
    append = fix(
        lam("k", lam2("x", "n", iff(eq("x", NIL), "n", cons(hd("x"), ap2("k", tl("x"), "n")))))
    )
    zero_code = CHAR_BITS["0"]
    rep_body = iff(eq("x", NIL), "n", ap2("k", ap("d", "x"), _prepend_const(zero_code, "n")))
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


def _prepend_const(bits: BitString, onto: SExpr) -> SExpr:
    out = onto
    for b in reversed(bits):
        out = cons(q(b), out)
    return out


def _str_bits(chars: str) -> BitString:
    return "".join(CHAR_BITS[ch] for ch in chars)


def padded_quote_program(pad: int, out_bits: BitString = "00") -> Program:
    """The program the unsound enumerator makes its claim about."""
    from .sexpr import parse

    return Program(parse("(h(q((" + out_bits + ")" + "0" * pad + ")))"), "")


def bundled_unsound_pad_search(threshold_of, out_bits: BitString = "00") -> int:
    """Least comfortable padding making the claimed program outgrow the Berry
    threshold of the very enumerator claiming it.

    The threshold moves (logarithmically) with the pad numeral embedded in
    the enumerator, so iterate to a fixed point.
    """
    pad = 256
    for _ in range(32):
        T = threshold_of(padded_quote_enumerator(pad, out_bits))
        claimed_size = padded_quote_program(pad, out_bits).size_bits
        if claimed_size > T:
            return pad
        pad = (T - 8 * (len(out_bits) + 10)) // 8 + 64
    raise RuntimeError("padding search did not stabilize")


# -- host-side construction helpers -----------------------------------------

def quote_program(x: BitString) -> Program:
    return Program(("q", tuple(x)), "")


def quote_pair_program(x: BitString, y: BitString) -> Program:
    return Program(("q", (tuple(x), tuple(y))), "")


def verify_pair(machine: str, p: Program, x: BitString, y: BitString,
                budget: int = WITNESS_BUDGET) -> bool:
    """Run p and confirm it is a domain program outputting exactly (x, y)."""
    return pair_output_of(run_machine(machine, p, budget)) == (x, y)


def verify_output(machine: str, p: Program, x: BitString, budget: int = WITNESS_BUDGET,
                  aux: Optional[BitString] = None) -> bool:
    return output_of(run_machine(machine, p, budget, aux=aux)) == x
