"""Correctness gate: the paper's inequalities, checked on the captured reports.

Checks read the JSON each command printed, never frozen bytes, so a change
that corrects a value still passes as long as the inequalities hold.  Each
check applies wherever its command occurs, whatever the workload.

An operation is one command, except `chain`, where each pair is one.  A
failed operation is a nonzero exit, a broken invariant, or a skipped chain
pair; only the first two are problems that make a run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

# decided(L, k) -> halting programs of size <= k, decided directly
DecidedSet = Callable[[int, int], Sequence[str]]


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    skipped_pairs: int = 0
    certified_pairs: int = 0
    problems: List[str] = field(default_factory=list)


def dyadic(text: str) -> Tuple[int, int]:
    """Parse the reports' 'num/2^exp' form."""
    num, sep, exp = text.partition("/2^")
    if not sep:
        raise ValueError(f"not a dyadic rational: {text!r}")
    return int(num), int(exp)


def dyadic_cmp(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    e = max(a[1], b[1])
    x, y = a[0] << (e - a[1]), b[0] << (e - b[1])
    return (x > y) - (x < y)


def _budget(result: dict) -> float:
    """A report's budget B; the structural budget is the supremum of them all."""
    return float("inf") if result["B"] == "structural" else result["B"]


def _cap(argv: List[str]) -> int:
    return int(argv[argv.index("--c-cap") + 1]) if "--c-cap" in argv else 6


def check_pass(runs: Sequence[Tuple[List[str], int, str]], decided: DecidedSet) -> Verdict:
    """runs: (argv, exit code, stdout) per command of one pass, in order."""
    v = Verdict()
    seen: List[Tuple[List[str], dict]] = []
    for argv, rc, out in runs:
        ops = len(argv[argv.index("--pairs") + 1].split(";")) if argv[0] == "chain" else 1
        v.attempted += ops
        name = argv[0] if argv[1].startswith("--") else " ".join(argv[:2])
        if rc != 0:
            v.failed += ops
            v.problems.append(f"{name}: exit code {rc}")
            continue
        try:
            report = json.loads(out)
            broken = _check(argv, report["result"], seen, decided, v)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            broken = [f"unreadable report ({type(exc).__name__}: {exc})"]
        if broken:
            v.failed += ops
            v.problems.extend(f"{name}: {b}" for b in broken)
        else:
            seen.append((argv, report["result"]))
    return v


def _check(argv, res, seen, decided: DecidedSet, v: Verdict) -> List[str]:
    cmd, action = argv[0], argv[1]
    if cmd == "omega" and action in ("lower", "exact"):
        return _check_omega(argv, res, seen)
    if cmd == "omega" and action == "oracle":
        broken = []
        if res["guard_tripped"]:
            broken.append(f"oracle guard tripped: {res['reason']}")
        direct = list(decided(res["L"], len(res["kbits"])))
        if res["halting_set"] != direct:
            broken.append(f"oracle set {res['halting_set']} != decided set {direct}")
        return broken
    if cmd == "coding":
        return [f"prob({r['output']!r}) < 2^-{r['h_upper']}"
                for r in res["entries"] if not _at_least_pow2(r["prob"], r["h_upper"])]
    if cmd == "prob":
        for argv2, res2 in seen:
            if argv2[0] == "coding" and _same_ensemble(argv, argv2):
                rows = [r["prob"] for r in res2["entries"] if r["output"] == res["target"]]
                if dyadic(res["prob"]) != dyadic(rows[0] if rows else "0/2^0"):
                    return [f"prob {res['prob']} disagrees with the coding table"]
        return []
    if cmd in ("sweep", "elegant"):
        broken = []
        for argv2, res2 in seen:
            if argv2[0] in ("sweep", "elegant") and _same_ensemble(argv, argv2) and res2 != res:
                broken.append(f"table differs from the {argv2[0]} table of the same ensemble")
        if res["machine"] == "c2":
            broken.extend(_check_c2(res))
        return broken
    if cmd == "fas" and action == "ceiling":
        return _check_berry(res)
    if cmd == "chain":
        broken = []
        npairs = len(argv[argv.index("--pairs") + 1].split(";"))
        if len(res["pairs"]) + len(res["skipped"]) != npairs:
            broken.append("pairs and skipped do not add up to the pairs asked")
        for r in res["pairs"]:
            if not r["composed_verified"]:
                broken.append(f"pair {r['x']!r}:{r['y']!r} composed program not verified")
            if r["h_xy"] > r["h_x"] + r["h_y_given_xstar"] + res["K"]:
                broken.append(f"pair {r['x']!r}:{r['y']!r} breaks h(x,y) <= h(x) + h(y|x*) + K")
        if not broken:
            v.certified_pairs += len(res["pairs"])
            v.skipped_pairs += len(res["skipped"])
            v.failed += len(res["skipped"])
        return broken
    return []


def _same_ensemble(a: List[str], b: List[str]) -> bool:
    def key(argv):
        return tuple(argv[argv.index(f) + 1] if f in argv else None
                     for f in ("--machine", "--L", "--B", "--c-cap"))
    return key(a) == key(b)


def _at_least_pow2(prob: str, h: int) -> bool:
    """prob >= 2^-h."""
    return dyadic_cmp(dyadic(prob), (1, h)) >= 0


def _check_omega(argv: List[str], res: dict, seen) -> List[str]:
    """omega <= 1, monotone in B, and equal to the exact value from the
    structural budget on (a prefix of n characters has at most n
    subexpressions, so B >= min(c_cap, L // 8) is structural)."""
    broken = []
    value = dyadic(res["value"])
    if dyadic_cmp(value, (1, 0)) > 0:
        broken.append(f"omega {res['value']} exceeds 1")
    structural = min(_cap(argv), res["L"] // 8)
    for argv2, res2 in seen:
        if (argv2[0] != "omega" or _cap(argv2) != _cap(argv)
                or (res2["machine"], res2["L"]) != (res["machine"], res["L"])):
            continue
        b1, b2 = _budget(res), _budget(res2)
        b1, b2 = (b if b < structural else float("inf") for b in (b1, b2))
        order = dyadic_cmp(dyadic(res2["value"]), value)
        if b1 == b2 and (res2["value"], res2["contributing"]) != (res["value"], res["contributing"]):
            broken.append(f"B={res2['B']} gives {res2['value']} but B={res['B']} gives "
                          f"{res['value']}; both are at or above the structural budget")
        elif (b2 < b1 and order > 0) or (b2 > b1 and order < 0):
            broken.append(f"omega not monotone in B: B={res2['B']} gives {res2['value']}, "
                          f"B={res['B']} gives {res['value']}")
    return broken


def _check_c2(res: dict) -> List[str]:
    """Every n-bit string with n < L has h <= n + 1, and the maximum is n + 1."""
    broken = []
    best = {}
    for row in res["entries"]:
        n = len(row["output"])
        if row["h_upper"] > n + 1:
            broken.append(f"h({row['output']!r}) = {row['h_upper']} > {n + 1}")
        best.setdefault(n, []).append(row["h_upper"])
    for n in range(1, res["L"]):
        hs = best.get(n, [])
        if len(hs) != 2**n or max(hs) != n + 1:
            broken.append(f"length {n}: {len(hs)} of {2**n} outputs, max h {max(hs, default=None)}")
    return broken


def _check_berry(res: dict) -> List[str]:
    broken = []
    built = [e for e in res["events"] if e["event"] == "berry_built"]
    if res["verdict"] != "soundness-consistent":
        broken.append(f"verdict {res['verdict']!r}")
    if not built or built[0]["p_size_bits"] > res["threshold"]:
        broken.append("Berry program larger than its threshold (|P| > T)")
    if res["max_elegant_size"] > res["threshold"]:
        broken.append("a proved-elegant program exceeds the threshold")
    run = res["berry_run"]
    if run["outcome"] != "out_of_budget" or run["steps"] != res["budget"]:
        broken.append(f"sound system's Berry program halted: {run}")
    return broken
