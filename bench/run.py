"""omegalab benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs passes of one workload (see bench/README.md), each in a fresh process,
as many as take about --seconds on the machine it was built on, and checks
every report.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  --workload all runs the four workloads in turn.

Prints a readable summary, one `{"detail": ...}` line (run metadata, report
digests, work counters) and, last, one JSON result line.  Exits 1 when a
check fails, 2 when the tree holds no omegalab sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

import speed
import stats
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_PROBES = 9  # extra set-up samples per run, on top of one per pass
RUN_LIMIT_S = 170  # a pass still running at this point of the run is killed


class PassError(RuntimeError):
    """A pass process died or overran; the run has no result."""


def fastest_cpu() -> int:
    """The CPU that runs the reference loop fastest right now.

    Each CPU of the VM switches between full speed and about 40% slower on
    its own (bench/speed.py); a pass placed on the CPU that is fast now
    spends less of itself in a slow phase.
    """
    cpus = sorted(os.sched_getaffinity(0))
    best = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(speed.loop_s() for _ in range(3))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(best, key=best.get)


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one pass process on the fastest CPU; add its wall time."""
    cpu = fastest_cpu()
    t0 = time.time_ns()
    argv = [sys.executable, os.path.join(BENCH, "passrun.py"), workload, str(seed), mode, str(cpu),
            str(t0)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassError(f"{mode} pass of {workload} overran the run's {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise PassError(f"{mode} pass of {workload} exited with {proc.returncode}")
    rec = json.loads(out.decode().splitlines()[-1])
    rec["wall_s"] = (time.time_ns() - t0) / 1e9
    return rec


def run_passes(workload: str, seed: int, seconds: int, trace: bool):
    """Set-up probes, then the workload's pass count for --seconds; a traced
    run alternates untraced and traced passes, half of each."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probes = [spawn(workload, seed, "probe", deadline) for _ in range(SETUP_PROBES)]
    modes = ("plain", "traced") if trace else ("plain",)
    passes: Dict[str, List[dict]] = {m: [] for m in modes}
    per_mode = max(1, workloads.pass_count(workload, seconds) // len(modes))
    for i in range(per_mode * len(modes)):
        done = passes[modes[i % len(modes)]]
        if done and time.monotonic() + stats.median([p["wall_s"] for p in done]) > deadline - 10:
            break  # a machine this slow gets fewer samples rather than no result
        done.append(spawn(workload, seed, modes[i % len(modes)], deadline))
    return probes, passes


def _work(p: dict) -> dict:
    """The counters of a pass that must repeat exactly."""
    return {k: v for k, v in p["counters"].items() if k != "berry_run_s"}


def summarize(workload: str, seed: int, probes: List[dict], passes: Dict[str, List[dict]]) -> dict:
    everything = [p for ps in passes.values() for p in ps]
    plain = passes["plain"]
    first = plain[0]
    problems = sorted({msg for p in everything for msg in p["problems"]})
    if any(p["digests"] != first["digests"] or _work(p) != _work(first) for p in everything):
        problems.append("reports or work counters differ between passes of one run")
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    counters = first["counters"]
    times = [p["pass_s"] for p in plain]
    pass_s = stats.median(times)
    tail_s, tail_pct = stats.tail(times)
    setup = [p["setup_s"] for p in probes + everything]
    e2e = {
        "setup_s": stats.median(setup),
        "pass_s": pass_s,
        "pass_s.tail": tail_s,
        "prefixes_per_s": counters["prefixes"] / pass_s,
        "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in plain]),
    }
    extra = {"failed_share": failed / attempted}
    wall = {
        "setup_wall_s": stats.median([p["setup_wall_s"] for p in probes + everything]),
        "pass_wall_s": stats.median([p["pass_wall_s"] for p in plain]),
        "slowdown": stats.median([p["pass_wall_s"] / p["pass_s"] for p in plain]),
        "probe_share": stats.median([p["probe_s"] / p["pass_wall_s"] for p in plain]),
    }
    if workload == "chain":
        extra["pairs_per_s"] = counters["certified_pairs"] / pass_s
    if counters["berry_run_steps"]:
        extra["guest_steps_per_s"] = stats.median(
            [p["counters"]["berry_run_steps"] / p["counters"]["berry_run_s"] for p in plain])
    layers = None
    if "traced" in passes:
        traced = passes["traced"]
        layers = {k: stats.median([p["layers"][k] for p in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = stats.median([p["pass_s"] for p in traced]) - pass_s
    return {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"setup_s": len(setup), "pass_s": len(plain), "pass_s.tail_percentile": tail_pct,
                    "traced": len(passes.get("traced", []))},
        "end_to_end": e2e,
        "extra": extra,
        "wall": wall,
        "layers": layers,
        "counters": counters,
        "pass_times": times,
        "pass_wall_times": [p["pass_wall_s"] for p in plain],
        "command_s": [stats.median(ts) for ts in zip(*(p["command_s"] for p in plain))],
        "digests": dict(zip((" ".join(a) for a in workloads.commands(workload, seed)), first["digests"])),
    }


def metadata() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or None
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_start": os.getloadavg()}


def print_summary(s: dict, units: Dict[str, str]) -> None:
    n = s["samples"]
    print(f"workload {s['workload']}  seed {s['seed']}  passes {n['pass_s']}  traced {n['traced']}  "
          f"correct {s['correct']}  failed {s['failed']}/{s['attempted']}")
    notes = {"setup_s": f"median of {n['setup_s']}", "pass_s": f"median of {n['pass_s']}",
             "pass_s.tail": f"p{n['pass_s.tail_percentile']:.0f} of {n['pass_s']}"}
    rows = [(k, v, units[k]) for k, v in s["end_to_end"].items()]
    rows += [(k, v, "1/s" if k.endswith("_per_s") else "share") for k, v in s["extra"].items()]
    for name, value, unit in rows:
        note = notes.get(name, f"from {n['pass_s']} passes")
        print(f"  {name:<20} {value:>14.6g} {unit:<6} {note}")
    for name, value in s["wall"].items():
        unit = "s" if name.endswith("_s") else "ratio"
        print(f"  {name:<20} {value:>14.6g} {unit:<6} wall clock, median")
    for msg in s["problems"]:
        print(f"  PROBLEM {msg}")


def run_one(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    meta = metadata()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    probes, passes = run_passes(workload, seed, seconds, trace)
    s = summarize(workload, seed, probes, passes)
    meta["loadavg_end"] = os.getloadavg()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = s["layers"] if trace else s["end_to_end"]
    print_summary(s, units)
    print(json.dumps({"detail": {**meta, **{k: v for k, v in s.items() if k != "end_to_end"}}}))
    print(json.dumps({
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if s["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "omegalab", "__init__.py")):
        print(f"bench: no omegalab sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        codes = [run_one(w, args.seed, args.seconds, bool(args.trace), spec) for w in names]
    except PassError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
