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


def _env_get(env, name):
    while env is not None:
        if env[0] == name:
            return env[1], True
        env = env[2]
    return None, False


_EV, _RET = 0, 1


def eval_expr(expr: SExpr, budget: int, payload: BitString = "",
              aux: Optional[BitString] = None) -> RunOutcome:
    """Run one expression within budget steps, reading payload and aux bits
    on demand (aux None has no bits); deterministic and pure."""
    ppos = apos = steps = 0
    konts = []

    def fault(reason):
        return RunOutcome(FAULTED, payload_consumed=ppos, aux_consumed=apos, steps=steps, reason=reason)

    mode = _EV
    cur = expr
    env = None
    val = None
    # Cycle check (Brent): a snapshot of the first application once steps
    # reaches each mark, the next mark a quarter past the snapshot, so the
    # gaps outgrow any cycle.  Continuation entries are fresh tuples never
    # pushed twice, and the held top cannot be recycled, so the same top at
    # the same depth means an unchanged stack; with the same function,
    # argument and read positions the state repeats and can never halt.
    s_mark = 1
    s_fun = s_arg = s_top = s_ppos = s_apos = s_depth = None

    while True:
        if mode == _EV:
            if isinstance(cur, str):
                v, ok = _env_get(env, cur)
                if not ok:
                    return fault(f"type: unbound atom {cur!r}")
                val, mode = v, _RET
                continue
            if not cur:  # empty list is a value
                val, mode = cur, _RET
                continue
            head = cur[0]
            if isinstance(head, str) and head in PRIMS:
                steps += 1
                if steps > budget:
                    return RunOutcome(OUT_OF_BUDGET, payload_consumed=ppos, aux_consumed=apos, steps=steps - 1)
                if len(cur) - 1 != _ARITY[head]:
                    return fault(f"type: {head} takes {_ARITY[head]} argument(s)")
                if head == "q":
                    val, mode = cur[1], _RET
                elif head == "i":
                    konts.append(("if", cur[2], cur[3], env))
                    cur = cur[1]
                elif head == "l":
                    p = cur[1]
                    if not isinstance(p, str) or p in PRIMS:
                        return fault("type: lambda parameter must be a non-primitive atom")
                    val, mode = Closure(p, cur[2], env), _RET
                elif head == "r":
                    if ppos >= len(payload):
                        return fault("payload-underrun")
                    val, mode = payload[ppos], _RET
                    ppos += 1
                elif head == "s":
                    if aux is None or apos >= len(aux):
                        return fault("aux-underrun")
                    val, mode = aux[apos], _RET
                    apos += 1
                else:  # strict: e a c h t y
                    konts.append(("args", head, cur[2:], env, ()))
                    cur = cur[1]
                continue
            # non-primitive application: exactly one argument
            if len(cur) != 2:
                return fault("type: application takes exactly one argument")
            konts.append(("fun", cur[1], env))
            cur = head
            continue

        # mode == _RET: val is ready; dispatch on the top continuation
        if not konts:
            return RunOutcome(HALTED, value=val, payload_consumed=ppos, aux_consumed=apos, steps=steps)
        k = konts.pop()
        tag = k[0]

        if tag == "args":
            _, prim, remaining, kenv, got = k
            got = got + (val,)
            if remaining:
                konts.append(("args", prim, remaining[1:], kenv, got))
                cur, env, mode = remaining[0], kenv, _EV
                continue
            # all arguments evaluated; execute
            if prim == "e":
                x, y2 = got
                if isinstance(x, (Closure, Rec)) or isinstance(y2, (Closure, Rec)):
                    return fault("type: equality on non-data value")
                val = "1" if x == y2 else ()
            elif prim == "a":
                (x,) = got
                if isinstance(x, (Closure, Rec)):
                    return fault("type: atom test on non-data value")
                val = "1" if isinstance(x, str) else ()
            elif prim == "c":
                x, xs = got
                if not isinstance(xs, tuple):
                    return fault("type: cons onto a non-list")
                val = (x,) + xs
            elif prim == "h":
                (xs,) = got
                if not isinstance(xs, tuple) or not xs:
                    return fault("type: head of a non-list or empty list")
                val = xs[0]
            elif prim == "t":
                (xs,) = got
                if not isinstance(xs, tuple) or not xs:
                    return fault("type: tail of a non-list or empty list")
                val = xs[1:]
            else:  # y
                (f,) = got
                if not isinstance(f, Closure):
                    return fault("type: fixed point of a non-closure")
                val = Rec(f)
            continue

        if tag == "if":
            _, then_e, else_e, kenv = k
            cur, env, mode = (else_e if val == () else then_e), kenv, _EV
            continue

        if tag == "fun":
            _, arg_e, kenv = k
            konts.append(("arg", val))
            cur, env, mode = arg_e, kenv, _EV
            continue

        # tag is "arg" or "rec": apply a function value
        if tag == "arg":
            fun, arg = k[1], val
        else:  # "rec": val is the closure produced by unfolding; apply it to the saved argument
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
            cur, env, mode = fun.body, (fun.param, arg, fun.env), _EV
        elif isinstance(fun, Rec):
            # unfold once: (clo R) must yield a closure, then apply it to arg
            clo = fun.clo
            steps += 1
            if steps > budget:
                return RunOutcome(OUT_OF_BUDGET, payload_consumed=ppos, aux_consumed=apos, steps=steps - 1)
            konts.append(("rec", arg))
            cur, env, mode = clo.body, (clo.param, fun, clo.env), _EV
        else:
            return fault("type: value is not applicable")

