"""Step-budgeted evaluator for the expression calculus.

Semantics (pinned here; the calculus is this package's own dialect):

  - Primitives, recognized as single-character atoms in head position:
      q quote        (q x)        -> x unevaluated
      i if           (i c t e)    -> empty list is false, everything else true
      e equality     (e x y)      -> atom 1 / empty list, structural on data
      a atom test    (a x)        -> atom 1 / empty list
      c cons         (c x xs)     -> prepend x to list xs
      h head         (h xs)       -> first item of nonempty list
      t tail         (t xs)       -> rest of nonempty list
      l lambda       (l p b)      -> one-parameter closure (general fragment)
      r read payload (r)          -> next payload bit as atom 0/1
      s read aux     (s)          -> next auxiliary bit as atom 0/1
      y fixed point  (y f)        -> recursive wrapper around closure f
  - The empty list evaluates to itself; atoms evaluate to their lambda
    binding and fault when unbound (no self-evaluating atoms).
  - A primitive form with the wrong number of arguments faults, and so does
    a lambda whose parameter is not a non-primitive atom.
  - A non-primitive application takes exactly one argument; head and
    argument are evaluated strictly, left to right, and the head's value is
    then applied; only closures and y-wrappers apply, anything else faults.
  - Applying a y-wrapper R to v unfolds once: the wrapped closure is applied
    to R, and the result is applied to v.
  - Closures are not data: e/a/h/t/c(list side) fault on them.

Cost model: one step per primitive form entered and one step per
application, each charged before the form or the applied value is checked;
unfolding a y-wrapper is a second application.  The budget is checked at
every charge, so any diverging program runs out of budget rather than
hanging.  A run whose machine state repeats exactly can never halt; it ends
at the repeat with the outcome running to the budget gives (out of budget
after exactly budget steps, same bits read).  The evaluator is a pure
function of (expression, budget, payload, aux) and is implemented
iteratively, so deeply recursive guest programs cannot exhaust the host
stack.  Its continuation is an immutable linked chain: each pending form is
a fresh tuple (tag, ..., next), pushed by building one around the chain and
popped by taking its next.  Only a form operand pushes a frame.  An atom
operand (the argument of h, t, a or y, either operand of c or e, the
condition of i, the function or the argument of an application) is looked
up where it stands, and a () operand of c or e or condition of i is its own
value, at the point of the step order where its evaluation falls, so an
unbound atom faults with the same step count; an i whose condition is an
atom or () picks its branch at entry.  A let ((l p B) A) is entered where
it stands too: its lambda step, then A under one frame, then its
application step, which binds p in the let's own env.  It makes no
closure, since nothing but that application could ever hold one.

The cycle check compares the state at an application with a snapshot: the
function, the argument and the read positions, and the continuation by
identity.  That is sound because a chain never changes and every frame
holds the rest of its chain: the snapshot keeps the object alive, so the
same object is the same whole stack.  A frame shared between pushes (a
constant (tag,) with no next) would break this, which is why every frame
is a fresh tuple.  A let's application is never compared: its closure would
be fresh, so no snapshot could hold it.  Reaching the mark there still
advances the mark, and clears the snapshot, which a snapshot of that
closure could never match either; so the check ends a run at the same step
as it would with the closure made.

Run-time lists: inside a run a nonempty list is the pair (head, tail) and
the empty list is (), so h, t and c each take one step of host work and a
tail is shared, never copied.  A quoted list is converted to pairs once per
run; a halted value is converted back, so every value a run returns is in
expression form (closures and y-wrappers are returned as they are).  Both
conversions and equality walk with explicit stacks, so deep data needs no
host recursion.  Shared tails keep the cycle check sound: a tuple never
changes, so the same object means the same value.

Continuing a run.  A run reads its channels on demand, so its state before
it reads a bit depends on no later bit.  At an underrun eval_expr returns an
Underrun holding that state (expression, budget, aux and read form, env and
the continuation, the counters, the cycle check's mark and snapshot, the
quoted-form cache), none of which changes once the run stops: chains,
closures, y-wrappers and run-time lists are never written after they are
made, so the snapshot's identities keep their meaning.  resume runs the one
step loop from it on a longer payload, with the same aux, charging the read
again, so its outcome is eval_expr's on that payload, field by field.  Runs
continued from one state share its cache, which changes no outcome: an
entry depends on its quoted list alone, and one a sibling added is, like a
fresh run's own, an object nothing in the state holds.  Its one caller is
machines.continue_run: a sweep's branches share too few steps to continue.

No run-time value is part of a cycle.  Every tuple a run makes (a pair, a
binding (name, value, env), a continuation frame), every Closure and every
Rec is built from objects that exist before it and is never written after,
so nothing it refers to can refer back to it.  Reference counting alone
frees a run's values, which is why cli.main can run a command with the
cyclic garbage collector paused.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bits import BitString
from .sexpr import SExpr

# a primitive's atom -> (opcode, form length); h t a y take the lowest
# opcodes, so one compare finds them
_H, _T, _A, _Y, _Q, _I, _E, _C, _L, _R, _S = range(11)
_OPS = {"h": (_H, 2), "t": (_T, 2), "a": (_A, 2), "y": (_Y, 2), "q": (_Q, 2), "i": (_I, 4),
        "e": (_E, 3), "c": (_C, 3), "l": (_L, 3), "r": (_R, 1), "s": (_S, 1)}
PRIMS = frozenset(_OPS)
GENERAL_ONLY = ("l", "y")  # the primitives outside the total fragment

HALTED = "halted"
OUT_OF_BUDGET = "out_of_budget"
FAULTED = "faulted"


class Closure:
    __slots__ = ("param", "body", "env")

    def __init__(self, param, body, env):
        self.param = param
        self.body = body
        self.env = env


class Rec:
    __slots__ = ("clo",)

    def __init__(self, clo):
        self.clo = clo


class RunOutcome(NamedTuple):
    kind: str
    value: object = None
    payload_consumed: int = 0
    aux_consumed: int = 0
    steps: int = 0
    reason: Optional[str] = None

    @property
    def halted(self) -> bool:
        return self.kind == HALTED


class Underrun(RunOutcome):
    """A payload- or aux-underrun fault: a RunOutcome, value None, that also
    holds its run's state (module docstring), which resume continues."""


def contains_general_only_prims(e: SExpr) -> bool:
    """True if an atom of GENERAL_ONLY occurs anywhere in the expression."""
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            if x in GENERAL_ONLY:
                return True
        else:
            stack.extend(x)
    return False


def _pairs(x: SExpr):
    """An expression in its run-time form: each nonempty list a (head, tail)
    pair ending in (); atoms unchanged."""
    frames = []
    items, i, acc = x, len(x), ()
    while True:
        while i:
            i -= 1
            item = items[i]
            if isinstance(item, tuple) and item:
                frames.append((items, i, acc))
                items, i, acc = item, len(item), ()
            else:
                acc = (item, acc)
        if not frames:
            return acc
        done = acc
        items, i, acc = frames.pop()
        acc = (done, acc)


def _expr(v):
    """A run-time value back in expression form: pairs become tuples;
    atoms, closures and y-wrappers are returned as they are."""
    if not isinstance(v, tuple):
        return v
    frames = []
    items = []
    while True:
        while v:
            item, v = v
            if isinstance(item, tuple) and item:
                frames.append((items, v))
                items, v = [], item
            else:
                items.append(item)
        if not frames:
            return tuple(items)
        done = tuple(items)
        items, v = frames.pop()
        items.append(done)


def _equal(x, y) -> bool:
    """Structural equality of two run-time data values, walked with an
    explicit stack."""
    pending = [(x, y)]
    while pending:
        x, y = pending.pop()
        if x is y:
            continue
        if isinstance(x, tuple) and isinstance(y, tuple) and x and y:
            pending.append((x[1], y[1]))
            pending.append((x[0], y[0]))
        elif x != y:
            return False
    return True


# continuation frames, each a fresh tuple (tag, ..., next): a pending h, t, a
# or y; an e or c whose first operand is a form, and one whose second is, the
# first's value known; an if whose condition is a form; an application
# before and after its function; a let before its application; the second
# half of a y-wrapper's unfolding.
# A pending h, t, a or y is tagged by its opcode, _H, _T, _A or _Y, and the
# other tags follow them.
_K_EQ, _K_CONS, _K_EQ2, _K_CONS2, _K_IF, _K_FUN, _K_APPLY, _K_REC, _K_LET = range(_Y + 1, _Y + 10)


def _fault(reason: str, ppos: int, apos: int, steps: int) -> RunOutcome:
    return RunOutcome(FAULTED, None, ppos, apos, steps, reason)


def _unbound(atom: str, ppos: int, apos: int, steps: int) -> RunOutcome:
    return _fault(f"type: unbound atom {atom!r}", ppos, apos, steps)


def eval_expr(expr: SExpr, budget: int, payload: BitString = "",
              aux: Optional[BitString] = None) -> RunOutcome:
    """Run one expression within budget steps, reading payload and aux bits
    on demand (aux None has no bits); deterministic and pure.  A payload or
    aux underrun is an Underrun, which resume continues."""
    # Cycle check (Brent): a snapshot of the first application once steps
    # reaches each mark (1 at the start; a let's application clears it), the
    # next mark a quarter past the snapshot, so the gaps outgrow any cycle.
    # The same function, argument, read positions and continuation object
    # (module docstring) repeat the state, which can then never halt.
    return _run(payload, aux, expr, budget, expr, None, None, 0, 0, 0, 1, None, None, None, None, None, {})


def resume(out: Underrun, payload: BitString) -> RunOutcome:
    """eval_expr's outcome on out's expression, budget and aux with this
    payload, continued from out, its underrun on a payload this one starts
    with (module docstring)."""
    if not payload.startswith(out.state[0]):
        raise ValueError("a run continues only on a payload that starts with the one it ran on")
    return _run(payload, *out.state[1:])


def _run(payload, aux, expr, budget, cur, env, kont, steps, ppos, apos,
         s_mark, s_fun, s_arg, s_kont, s_ppos, s_apos, quoted) -> RunOutcome:
    """The step loop, from a run's state: cur to evaluate in env under kont,
    the counters, the cycle check's mark and snapshot, and the run-time forms
    of the quoted lists (by id, each alive in expr) built so far."""
    n_payload = len(payload)
    n_aux = 0 if aux is None else len(aux)

    while True:
        # evaluate cur in env, pushing a frame per pending form, until a value
        # is ready (val) or an application is due (fun to arg)
        fun = None
        while True:
            if type(cur) is str:
                link = env
                while link is not None and link[0] != cur:
                    link = link[2]
                if link is None:
                    return _unbound(cur, ppos, apos, steps)
                val = link[1]
                break
            if not cur:  # empty list is a value
                val = cur
                break
            head = cur[0]
            form = _OPS.get(head) if type(head) is str else None
            if form is None:
                # non-primitive application: exactly one argument
                if len(cur) != 2:
                    return _fault("type: application takes exactly one argument", ppos, apos, steps)
                x = cur[1]
                if type(head) is not str:
                    if head and head[0] == "l" and len(head) == 3 and type(head[1]) is str and head[1] not in PRIMS:
                        # a let ((l p B) A): its lambda step, then A, then the
                        # application under _K_LET, with no closure (a malformed
                        # lambda form takes the general path, which faults)
                        steps += 1
                        if steps > budget:
                            return RunOutcome(OUT_OF_BUDGET, None, ppos, apos, steps - 1)
                        kont = (_K_LET, head, env, kont)
                    else:
                        kont = (_K_FUN, x, env, kont)
                        x = head
                    cur = x
                    continue
                link = env
                while link is not None and link[0] != head:
                    link = link[2]
                if link is None:
                    return _unbound(head, ppos, apos, steps)
                val = link[1]
                if type(x) is not str:
                    kont = (_K_APPLY, val, kont)
                    cur = x
                    continue
                link = env
                while link is not None and link[0] != x:
                    link = link[2]
                if link is None:
                    return _unbound(x, ppos, apos, steps)
                fun, arg = val, link[1]
                break
            steps += 1
            if steps > budget:
                return RunOutcome(OUT_OF_BUDGET, None, ppos, apos, steps - 1)
            op, size = form
            if len(cur) != size:
                return _fault(f"type: {head} takes {size - 1} argument(s)", ppos, apos, steps)
            if op == _C or op == _E:
                x, y = cur[1], cur[2]
                if type(x) is str:
                    link = env
                    while link is not None and link[0] != x:
                        link = link[2]
                    if link is None:
                        return _unbound(x, ppos, apos, steps)
                    x = link[1]
                elif x:
                    kont = (_K_CONS if op == _C else _K_EQ, y, env, kont)
                    cur = x
                    continue
                if type(y) is str:
                    link = env
                    while link is not None and link[0] != y:
                        link = link[2]
                    if link is None:
                        return _unbound(y, ppos, apos, steps)
                    y = link[1]
                elif y:
                    kont = (_K_CONS2 if op == _C else _K_EQ2, x, kont)
                    cur = y
                    continue
                if op == _C:
                    if type(y) is not tuple:
                        return _fault("type: cons onto a non-list", ppos, apos, steps)
                    val = (x, y)
                elif isinstance(x, (Closure, Rec)) or isinstance(y, (Closure, Rec)):
                    return _fault("type: equality on non-data value", ppos, apos, steps)
                else:
                    val = "1" if _equal(x, y) else ()
                break
            elif op <= _Y:  # h t a y
                x = cur[1]
                if type(x) is not str:
                    kont = (op, kont)
                    cur = x
                    continue
                link = env
                while link is not None and link[0] != x:
                    link = link[2]
                if link is None:
                    return _unbound(x, ppos, apos, steps)
                val = link[1]
                if op == _H:
                    if type(val) is not tuple or not val:
                        return _fault("type: head of a non-list or empty list", ppos, apos, steps)
                    val = val[0]
                elif op == _T:
                    if type(val) is not tuple or not val:
                        return _fault("type: tail of a non-list or empty list", ppos, apos, steps)
                    val = val[1]
                elif op == _A:
                    if isinstance(val, (Closure, Rec)):
                        return _fault("type: atom test on non-data value", ppos, apos, steps)
                    val = "1" if isinstance(val, str) else ()
                else:
                    if type(val) is not Closure:
                        return _fault("type: fixed point of a non-closure", ppos, apos, steps)
                    val = Rec(val)
                break
            elif op == _I:
                x = cur[1]
                if type(x) is str:
                    link = env
                    while link is not None and link[0] != x:
                        link = link[2]
                    if link is None:
                        return _unbound(x, ppos, apos, steps)
                    x = link[1]
                elif x:
                    kont = (_K_IF, cur[2], cur[3], env, kont)
                    cur = x
                    continue
                cur = cur[3] if x == () else cur[2]
            elif op == _Q:
                val = cur[1]
                if type(val) is tuple and val:
                    key = id(val)
                    val = quoted.get(key)
                    if val is None:
                        val = quoted[key] = _pairs(cur[1])
                break
            elif op == _L:
                p = cur[1]
                if type(p) is not str or p in PRIMS:
                    return _fault("type: lambda parameter must be a non-primitive atom", ppos, apos, steps)
                val = Closure(p, cur[2], env)
                break
            elif op == _R and ppos < n_payload:
                val = payload[ppos]
                ppos += 1
                break
            elif op == _S and apos < n_aux:
                val = aux[apos]
                apos += 1
                break
            else:  # a read its channel cannot serve: resume charges it again
                out = Underrun(FAULTED, None, ppos, apos, steps, "payload-underrun" if op == _R else "aux-underrun")
                out.state = (payload, aux, expr, budget, cur, env, kont, steps - 1, ppos, apos,
                             s_mark, s_fun, s_arg, s_kont, s_ppos, s_apos, quoted)
                return out

        # val is ready: pop frames until one asks for an evaluation or an
        # application is due
        while fun is None:
            k = kont
            if k is None:
                return RunOutcome(HALTED, _expr(val), ppos, apos, steps)
            tag = k[0]
            if _K_EQ <= tag <= _K_CONS2:  # an e or c, val its first (_K_EQ, _K_CONS) or second operand
                if tag <= _K_CONS:
                    _, y, env, kont = k
                    if type(y) is str:
                        link = env
                        while link is not None and link[0] != y:
                            link = link[2]
                        if link is None:
                            return _unbound(y, ppos, apos, steps)
                        y = link[1]
                    elif y:
                        kont = (_K_CONS2 if tag == _K_CONS else _K_EQ2, val, kont)
                        cur = y
                        break
                    x = val
                else:
                    _, x, kont = k
                    y = val
                if tag == _K_CONS or tag == _K_CONS2:
                    if type(y) is not tuple:
                        return _fault("type: cons onto a non-list", ppos, apos, steps)
                    val = (x, y)
                elif isinstance(x, (Closure, Rec)) or isinstance(y, (Closure, Rec)):
                    return _fault("type: equality on non-data value", ppos, apos, steps)
                else:
                    val = "1" if _equal(x, y) else ()
            elif tag == _K_FUN:
                _, x, env, kont = k
                if type(x) is not str:
                    kont = (_K_APPLY, val, kont)
                    cur = x
                    break
                link = env
                while link is not None and link[0] != x:
                    link = link[2]
                if link is None:
                    return _unbound(x, ppos, apos, steps)
                fun, arg = val, link[1]
            elif tag == _K_APPLY:
                _, fun, kont = k
                arg = val
            elif tag == _K_LET:  # the let's application: no closure, so no compare (module docstring)
                _, head, env, kont = k
                steps += 1
                if steps > budget:
                    return RunOutcome(OUT_OF_BUDGET, None, ppos, apos, steps - 1)
                if steps >= s_mark:
                    s_mark = steps + (steps >> 2) + 1
                    s_fun = None
                cur, env = head[2], (head[1], val, env)
                break
            elif tag == _K_IF:
                _, t, e, env, kont = k
                cur = e if val == () else t
                break
            elif tag == _H:
                kont = k[1]
                if type(val) is not tuple or not val:
                    return _fault("type: head of a non-list or empty list", ppos, apos, steps)
                val = val[0]
            elif tag == _T:
                kont = k[1]
                if type(val) is not tuple or not val:
                    return _fault("type: tail of a non-list or empty list", ppos, apos, steps)
                val = val[1]
            elif tag == _K_REC:  # val is the closure produced by unfolding; apply it to the saved argument
                _, arg, kont = k
                fun = val
            elif tag == _A:
                kont = k[1]
                if isinstance(val, (Closure, Rec)):
                    return _fault("type: atom test on non-data value", ppos, apos, steps)
                val = "1" if isinstance(val, str) else ()
            else:  # _Y
                kont = k[1]
                if type(val) is not Closure:
                    return _fault("type: fixed point of a non-closure", ppos, apos, steps)
                val = Rec(val)
        if fun is None:
            continue

        # apply fun to arg
        steps += 1
        if steps > budget:
            return RunOutcome(OUT_OF_BUDGET, None, ppos, apos, steps - 1)
        if fun is s_fun and arg is s_arg and kont is s_kont and ppos == s_ppos and apos == s_apos:
            return RunOutcome(OUT_OF_BUDGET, None, ppos, apos, budget)
        if steps >= s_mark:
            s_mark = steps + (steps >> 2) + 1
            s_fun, s_arg, s_kont, s_ppos, s_apos = fun, arg, kont, ppos, apos
        if type(fun) is Closure:
            cur, env = fun.body, (fun.param, arg, fun.env)
        elif type(fun) is Rec:
            # unfold once: (clo R) must yield a closure, then apply it to arg
            clo = fun.clo
            steps += 1
            if steps > budget:
                return RunOutcome(OUT_OF_BUDGET, None, ppos, apos, steps - 1)
            kont = (_K_REC, arg, kont)
            cur, env = clo.body, (clo.param, fun, clo.env)
        else:
            return _fault("type: value is not applicable", ppos, apos, steps)
