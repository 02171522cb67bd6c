"""The benchmark's workloads: the CLI commands of one pass, and the work they cover.

Every workload is a fixed list of `omegalab` command lines.  Only `chain`
depends on the seed (it draws its six pairs); the other three are exhaustive
sweeps of fixed ensembles and ignore it.

Work is counted here, from (machine, L, c_cap) and the shape of each query,
never from library counters, so a change that prunes or shares work inside
the library cannot shrink the count it is divided by.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Optional, Tuple

WORKLOADS = ("sweep", "reuse", "berry", "chain")

DEFAULT_CHAR_CAP = 6  # the CLI's --c-cap default
CHAIN_CHAR_CAP = 5
BERRY_BUDGET = 10**6

# the alphabet criterion 8 draws x and y from
PAIR_ALPHABET = ("", "0", "1", "00", "01", "10", "11")

ATOMS = {"sd": 28, "total": 26}  # a-z, 0, 1; total drops l and y

# Typical pass time on a shared 2-CPU VM with Python 3.11.  A run
# of S seconds makes S / PASS_SECONDS passes, at least one, so a workload
# gets the same number of samples on every commit and the tail percentile
# means the same thing on both sides of a comparison.
PASS_SECONDS = {"sweep": 2.0, "reuse": 4.0, "berry": 30.0, "chain": 1.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds / PASS_SECONDS[workload]))


def draw_pairs(seed: int) -> List[Tuple[str, str]]:
    """Six (x, y) pairs with the shape of ':;:1;0:;0:1;01:;01:1'.

    One x of each length 0, 1 and 2, each paired with the empty y and one
    1-bit y.  Every draw holds a 2-bit x, so the criterion-8 skip shows on
    every seed, and the per-pass work is the same for every seed.
    """
    rng = random.Random(seed)
    xs = ["", rng.choice(PAIR_ALPHABET[1:3]), rng.choice(PAIR_ALPHABET[3:])]
    return [(x, y) for x in xs for y in ("", rng.choice(PAIR_ALPHABET[1:3]))]


def pairs_arg(pairs: List[Tuple[str, str]]) -> str:
    return ";".join(f"{x}:{y}" for x, y in pairs)


def commands(workload: str, seed: int) -> List[List[str]]:
    """The argv of every command of one pass, in order."""
    if workload == "sweep":
        return [
            ["omega", "lower", "--machine", "sd", "--L", "47", "--B", "10000"],
            ["omega", "exact", "--L", "47"],
            ["sweep", "--machine", "c2", "--L", "14", "--B", "10000"],
        ]
    if workload == "reuse":
        lowers = [["omega", "lower", "--machine", "total", "--L", "40", "--B", b]
                  for b in ("1", "2", "3", "100")]
        return lowers + [
            ["omega", "exact", "--L", "40", "--emit-bits", "12"],
            ["omega", "oracle", "--L", "40", "--k", "12"],
            ["elegant", "--machine", "total", "--L", "40", "--B", "structural"],
            ["sweep", "--machine", "total", "--L", "40", "--B", "structural"],
            ["coding", "--machine", "sd", "--L", "40", "--B", "10000"],
            ["prob", "--machine", "sd", "--target", "", "--L", "40", "--B", "10000"],
        ]
    if workload == "berry":
        return [["fas", "ceiling", "--fas", "sound", "--budget", str(BERRY_BUDGET)]]
    if workload == "chain":
        return [["chain", "--machine", "sd", "--pairs", pairs_arg(draw_pairs(seed)),
                 "--L", "96", "--B", "10000", "--c-cap", str(CHAIN_CHAR_CAP)]]
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


# ---------------------------------------------------------------------------
# prefix counting

@lru_cache(maxsize=None)
def _seqs(m: int, atoms: int) -> int:
    """Number of item sequences whose prints total m characters."""
    if m == 0:
        return 1
    return sum(_exprs(k, atoms) * _seqs(m - k, atoms) for k in range(1, m + 1))


def _exprs(n: int, atoms: int) -> int:
    """Number of expressions (atoms included) printing to exactly n characters."""
    if n == 1:
        return atoms
    return _seqs(n - 2, atoms) if n >= 2 else 0


def prefix_count(machine: str, L: int, c_cap: int) -> int:
    """Prefix expressions a sweep of (machine, L, c_cap) must cover.

    These are the list expressions of at most min(c_cap, L // 8) characters;
    on total, only those without the atoms l and y.  c2 sweeps raw bit
    strings, not prefixes, so it covers none.
    """
    if machine == "c2":
        return 0
    atoms = ATOMS[machine]
    return sum(_seqs(n - 2, atoms) for n in range(2, min(c_cap, L // 8) + 1))


def _flag(argv: List[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


def ensembles(argv: List[str], report: dict) -> List[Tuple[str, int, int]]:
    """The (machine, L, c_cap) ensembles one query needs swept.

    A query needs each ensemble it reads once, however often the library
    sweeps it today.  `chain` reads the base ensemble plus one aux-loaded
    ensemble per distinct x whose h(x) was found; `fas ceiling` reads the
    total ensemble at each exhaustive limit its elegance oracle used.
    """
    cap = int(_flag(argv, "--c-cap", str(DEFAULT_CHAR_CAP)))
    result = report.get("result", {})
    cmd = argv[0]
    if cmd == "omega":
        machine = _flag(argv, "--machine", "total") if argv[1] == "lower" else "total"
        return [(machine, int(_flag(argv, "--L")), cap)]
    if cmd in ("sweep", "elegant", "coding", "prob"):
        return [(_flag(argv, "--machine"), int(_flag(argv, "--L")), cap)]
    if cmd == "chain":
        machine, L = _flag(argv, "--machine"), int(_flag(argv, "--L"))
        found = {r["x"] for r in result["pairs"]}
        found |= {s["x"] for s in result["skipped"] if s["reason"] != "h(x) not found"}
        return [(machine, L, cap)] * (1 + len(found))
    if cmd == "fas":
        limits = sorted({e["exhaustive_to"] for e in result.get("events", [])
                         if e["event"] == "oracle"})
        return [("total", limit, DEFAULT_CHAR_CAP) for limit in limits]
    return []
