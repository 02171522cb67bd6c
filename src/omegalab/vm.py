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
iteratively with an explicit continuation stack, so deeply recursive guest
programs cannot exhaust the host stack.

Run-time lists: inside a run a nonempty list is the pair (head, tail) and
the empty list is (), so h, t and c each take one step of host work and a
tail is shared, never copied.  A quoted list is converted to pairs once per
run; a halted value is converted back, so every value a run returns is in
expression form (closures and y-wrappers are returned as they are).  Both
conversions and equality walk with explicit stacks, so deep data needs no
host recursion.  Shared tails keep the cycle check sound: a tuple never
changes, so the same object means the same value.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bits import BitString
from .sexpr import SExpr

PRIMS = frozenset("qieachtlrsy")
_ARITY = {"q": 1, "i": 3, "e": 2, "a": 1, "c": 2, "h": 1, "t": 1, "l": 2, "r": 0, "s": 0, "y": 1}

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


def contains_general_only_prims(e: SExpr) -> bool:
    """True if the atom l or y occurs anywhere in the expression."""
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            if x in ("l", "y"):
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


# continuation tags: a pending a/h/t/y, a pending e/c before and after its
# first argument, an if, an application before and after its function, and
# the second half of a y-wrapper's unfolding
_ARG1, _ARG2, _ARG2B, _IF, _FUN, _APPLY, _REC = range(7)


def eval_expr(expr: SExpr, budget: int, payload: BitString = "",
              aux: Optional[BitString] = None) -> RunOutcome:
    """Run one expression within budget steps, reading payload and aux bits
    on demand (aux None has no bits); deterministic and pure."""
    ppos = apos = steps = 0
    konts = []
    quoted = {}  # id of a quoted list (alive in expr) -> its run-time form, built once

    def fault(reason):
        return RunOutcome(FAULTED, payload_consumed=ppos, aux_consumed=apos, steps=steps, reason=reason)

    cur = expr
    env = None
    # Cycle check (Brent): a snapshot of the first application once steps
    # reaches each mark, the next mark a quarter past the snapshot, so the
    # gaps outgrow any cycle.  Continuation entries are fresh tuples never
    # pushed twice, and the held top cannot be recycled, so the same top at
    # the same depth means an unchanged stack; with the same function,
    # argument and read positions the state repeats and can never halt.
    s_mark = 1
    s_fun = s_arg = s_top = s_ppos = s_apos = s_depth = None

    while True:
        # evaluate cur in env, pushing a frame per pending form, until a value is ready
        while True:
            if isinstance(cur, str):
                link = env
                while link is not None:
                    if link[0] == cur:
                        val = link[1]
                        break
                    link = link[2]
                else:
                    return fault(f"type: unbound atom {cur!r}")
                break
            if not cur:  # empty list is a value
                val = cur
                break
            head = cur[0]
            if not (isinstance(head, str) and head in PRIMS):
                # non-primitive application: exactly one argument
                if len(cur) != 2:
                    return fault("type: application takes exactly one argument")
                konts.append((_FUN, cur[1], env))
                cur = head
                continue
            steps += 1
            if steps > budget:
                return RunOutcome(OUT_OF_BUDGET, payload_consumed=ppos, aux_consumed=apos, steps=steps - 1)
            if len(cur) - 1 != _ARITY[head]:
                return fault(f"type: {head} takes {_ARITY[head]} argument(s)")
            if head == "c" or head == "e":
                konts.append((_ARG2, head, cur[2], env))
                cur = cur[1]
            elif head == "h" or head == "t" or head == "a" or head == "y":
                konts.append((_ARG1, head))
                cur = cur[1]
            elif head == "i":
                konts.append((_IF, cur[2], cur[3], env))
                cur = cur[1]
            elif head == "q":
                val = cur[1]
                if isinstance(val, tuple) and val:
                    key = id(val)
                    val = quoted.get(key)
                    if val is None:
                        val = quoted[key] = _pairs(cur[1])
                break
            elif head == "l":
                p = cur[1]
                if not isinstance(p, str) or p in PRIMS:
                    return fault("type: lambda parameter must be a non-primitive atom")
                val = Closure(p, cur[2], env)
                break
            elif head == "r":
                if ppos >= len(payload):
                    return fault("payload-underrun")
                val = payload[ppos]
                ppos += 1
                break
            else:  # s
                if aux is None or apos >= len(aux):
                    return fault("aux-underrun")
                val = aux[apos]
                apos += 1
                break

        # val is ready: pop frames until one asks for an evaluation
        while True:
            if not konts:
                return RunOutcome(HALTED, value=_expr(val), payload_consumed=ppos, aux_consumed=apos, steps=steps)
            k = konts.pop()
            tag = k[0]
            if tag == _FUN:
                konts.append((_APPLY, val))
                cur, env = k[1], k[2]
                break
            if tag == _ARG2:
                konts.append((_ARG2B, k[1], val))
                cur, env = k[2], k[3]
                break
            if tag == _ARG2B:
                x = k[2]
                if k[1] == "c":
                    if not isinstance(val, tuple):
                        return fault("type: cons onto a non-list")
                    val = (x, val)
                else:  # e
                    if isinstance(x, (Closure, Rec)) or isinstance(val, (Closure, Rec)):
                        return fault("type: equality on non-data value")
                    val = "1" if _equal(x, val) else ()
                continue
            if tag == _ARG1:
                prim = k[1]
                if prim == "h":
                    if not isinstance(val, tuple) or not val:
                        return fault("type: head of a non-list or empty list")
                    val = val[0]
                elif prim == "t":
                    if not isinstance(val, tuple) or not val:
                        return fault("type: tail of a non-list or empty list")
                    val = val[1]
                elif prim == "a":
                    if isinstance(val, (Closure, Rec)):
                        return fault("type: atom test on non-data value")
                    val = "1" if isinstance(val, str) else ()
                else:  # y
                    if not isinstance(val, Closure):
                        return fault("type: fixed point of a non-closure")
                    val = Rec(val)
                continue
            if tag == _IF:
                cur, env = (k[2] if val == () else k[1]), k[3]
                break

            # _APPLY or _REC: apply a function value
            if tag == _APPLY:
                fun, arg = k[1], val
            else:  # _REC: val is the closure produced by unfolding; apply it to the saved argument
                fun, arg = val, k[1]
            steps += 1
            if steps > budget:
                return RunOutcome(OUT_OF_BUDGET, payload_consumed=ppos, aux_consumed=apos, steps=steps - 1)
            if (fun is s_fun and arg is s_arg and ppos == s_ppos and apos == s_apos
                    and len(konts) == s_depth and (not konts or konts[-1] is s_top)):
                return RunOutcome(OUT_OF_BUDGET, payload_consumed=ppos, aux_consumed=apos, steps=budget)
            if steps >= s_mark:
                s_mark = steps + (steps >> 2) + 1
                s_fun, s_arg, s_ppos, s_apos = fun, arg, ppos, apos
                s_depth, s_top = len(konts), konts[-1] if konts else None
            if isinstance(fun, Closure):
                cur, env = fun.body, (fun.param, arg, fun.env)
            elif isinstance(fun, Rec):
                # unfold once: (clo R) must yield a closure, then apply it to arg
                clo = fun.clo
                steps += 1
                if steps > budget:
                    return RunOutcome(OUT_OF_BUDGET, payload_consumed=ppos, aux_consumed=apos, steps=steps - 1)
                konts.append((_REC, arg))
                cur, env = clo.body, (clo.param, fun, clo.env)
            else:
                return fault("type: value is not applicable")
            break
