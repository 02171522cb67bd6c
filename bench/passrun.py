"""One workload pass in a fresh process:
python3 bench/passrun.py WORKLOAD SEED MODE CPU SPAWN_NS.

MODE is `probe` (import and exit: a set-up sample), `plain` or `traced`;
the process pins itself to CPU first.  SPAWN_NS is time.time_ns() when the
parent started the process.
The process imports omegalab, notes when it is ready (set-up time is
measured from SPAWN_NS, in wall and reference seconds), then calls
omegalab.cli.main(argv) for each command of the pass, capturing stdout as a
user would see it, while a SpeedProbe (bench/speed.py) samples the CPU's
speed.  After the timed commands it checks the reports and prints one JSON
line: the set-up and pass times in wall and reference seconds, digests,
counters and the check verdict.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

from speed import SETUP_EVERY_S, SpeedProbe

os.sched_setaffinity(0, {int(sys.argv[4])})
_setup = SpeedProbe(SETUP_EVERY_S)
_setup.begin(since=(time.time_ns() - int(sys.argv[5])) / 1e9)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from omegalab import cli  # noqa: E402  (set-up ends once the package is imported)

SETUP_WALL_S, SETUP_S, _ = _setup.finish()


class GuestRunTimer:
    """Times each run_machine call the incompleteness layer makes.

    The Berry run is the call with the most steps.  One wrapper on a call
    made twice a pass costs nothing measurable, so untraced passes keep it.
    """

    def __init__(self):
        from omegalab import incompleteness

        self.module = incompleteness
        self.original = incompleteness.run_machine
        self.runs = []

        def timed(*args, **kwargs):
            t = time.perf_counter()
            out = self.original(*args, **kwargs)
            self.runs.append((out.steps, time.perf_counter() - t))
            return out

        incompleteness.run_machine = timed

    def uninstall(self):
        self.module.run_machine = self.original

    def longest(self):
        return max(self.runs, default=(0, 0.0))


def _report(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:  # the checks have already counted it as failed
        return {}


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    import checks
    import spans
    import workloads

    argvs = workloads.commands(workload, seed)
    guest = GuestRunTimer()
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    runs = []
    cmd_s = []
    probe = SpeedProbe()
    probe.begin()
    for argv in argvs:
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            rc = "crash"
        cmd_s.append(time.perf_counter() - t)
        runs.append((argv, rc, buf.getvalue()))
    wall_s, pass_s, probe_s = probe.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    guest.uninstall()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer)

    from omegalab.omega import decided_halting_set

    verdict = checks.check_pass(runs, decided_halting_set)
    reports = [_report(out) if rc == 0 else {} for _, rc, out in runs]
    ensembles = [e for (argv, _, _), rep in zip(runs, reports) if rep
                 for e in workloads.ensembles(argv, rep)]
    steps, run_s = guest.longest()
    return {
        "pass_s": pass_s,
        "pass_wall_s": wall_s,
        "probe_s": probe_s,
        "command_s": cmd_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": [hashlib.sha256(out.encode()).hexdigest() for _, _, out in runs],
        "exit_codes": [rc for _, rc, _ in runs],
        "counters": {
            "sweeps": len(ensembles),
            "prefixes": sum(workloads.prefix_count(*e) for e in ensembles),
            "records": sum(rep["result"].get("contributing", 0) for rep in reports if rep),
            "certified_pairs": verdict.certified_pairs,
            "skipped_pairs": verdict.skipped_pairs,
            "berry_run_steps": steps,
            "berry_run_s": run_s,
        },
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
        "layers": layers,
    }


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    result = {"setup_wall_s": SETUP_WALL_S, "setup_s": SETUP_S}
    if mode != "probe":
        result.update(run_pass(workload, seed, mode == "traced"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
