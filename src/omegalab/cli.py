"""Command-line front door.

Subcommands cover every module; output is a JSON report (or CSV for the
table-shaped ones) whose envelope embeds the schema version, tool version,
and the exact config that produced it.  No persistent state: every run
recomputes, so identical configs give byte-identical reports.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 experiment abort
(unsound formal system).

A plain command line (the command, its positionals, then its flags spelled in
full, each once with one value) is read straight from COMMANDS.  Anything
else (--help, --version, --config, an abbreviation, --flag=value, a usage
error) goes to argparse, with the same texts and exits.  Both give only what
the command line gives, and _completed adds --config and defaults, then
applies each flag's declared bound and the actions that read and need it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from types import SimpleNamespace
from typing import List, Optional

from . import __version__, complexity, incompleteness, machines, omega, reports, vm
from .bits import bs_parse, dyadic_bits, is_prefix_free, kraft_sum
from .complexity import DEFAULT_CHAR_CAP, Ensemble
from .incompleteness import ToyFAS, UnsoundFASError, bundled_fas
from .machines import STRUCTURAL, Program
from .sexpr import parse, print_sexpr, to_bits

USAGE_ERROR, DOMAIN_ERROR, EXPERIMENT_ABORT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message} (try --help)", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _bits_arg(text: str) -> str:
    return bs_parse(text)


def _budget(text: str):
    if text == "structural":
        return STRUCTURAL
    return int(text)


_SWEEP = [
    ("--machine", dict(choices=machines.MACHINES, required=True)),
    ("--L", dict(type=int, required=True)),
    ("--B", dict(type=_budget, default=10**4, lo=0)),
    ("--c-cap", dict(type=int, default=DEFAULT_CHAR_CAP, reads=("machine", "sd total"))),  # c2 sweeps no prefixes
]
_TARGET = [("--target", dict(type=_bits_arg, required=True))]

# Every command once: name -> (help, whether it takes --csv, its own flags in
# order).  --csv prints result["entries"], a reports.Rows, by its own columns.
# A flag's keywords are argparse's, but for _OWN, which _completed applies:
# `default`; `lo`, the least int it takes; and reads=(dest, "v1 v2 ...") and
# needs=(dest, "v1 v2 ..."): the flag is read only, or must be given, when an
# earlier flag's dest holds one of the listed values.
_OWN = ("default", "lo", "reads", "needs")
COMMANDS = {
    "bits": ("prefix-code utilities", False, [
        ("action", dict(choices=["kraft", "prefixfree"])),
        ("--set", dict(required=True, help="comma-separated bit strings (empty string allowed)"))]),
    "sexpr": ("expression parse/encode", False, [
        ("action", dict(choices=["parse", "encode"])),
        ("--text", dict(required=True))]),
    "run": ("run one program on a machine", False, [
        ("--machine", dict(choices=machines.MACHINES, required=True)),
        ("--raw", dict(type=_bits_arg, help="raw program bits (machine c2)",
                       reads=("machine", "c2"), needs=("machine", "c2"))),
        ("--prefix", dict(help="prefix expression text (machines sd/total)",
                          reads=("machine", "sd total"), needs=("machine", "sd total"))),
        ("--payload", dict(type=_bits_arg, default="", reads=("machine", "sd total"))),
        ("--aux", dict(type=_bits_arg, reads=("machine", "sd total"))),
        ("--budget", dict(type=_budget, default=10**4))]),
    "sweep": ("enumerate the domain and build the complexity table", True, _SWEEP),
    "complexity": ("upper bound for one output", False, _SWEEP + _TARGET),
    "elegant": ("minimal program per output", True, _SWEEP),
    "prob": ("algorithmic probability of one output", False, _SWEEP + _TARGET),
    "coding": ("coding-theorem direction check", True, _SWEEP),
    "chain": ("chain-rule / subadditivity report", False, _SWEEP + [
        ("--pairs", dict(required=True, help="semicolon-separated x:y pairs, e.g. '0:1;:'"))]),
    "omega": ("halting-probability operations", False, [
        ("action", dict(choices=["lower", "exact", "bits", "oracle"])),
        ("--machine", dict(choices=machines.MACHINES, default="total")),
        _SWEEP[1],
        ("--B", dict(type=_budget, default=10**4, lo=0, reads=("action", "lower"))),
        *_SWEEP[3:],
        ("--emit-bits", dict(type=int, default=0, lo=0, reads=("action", "lower exact"))),
        ("--k", dict(type=int, lo=0, help="bit count for 'bits'/'oracle'",
                     reads=("action", "bits oracle"), needs=("action", "bits"))),
        ("--kbits", dict(type=_bits_arg, help="override oracle input bits", reads=("action", "oracle"))),
        ("--guard", dict(type=int, default=omega.DEFAULT_GUARD, lo=0, reads=("action", "oracle")))]),
    "normality": ("disjoint-block equidistribution check", False, [
        ("--x", dict(type=_bits_arg, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--tol", dict(required=True))]),
    "fas": ("formal-system experiments", False, [
        ("action", dict(choices=["theorems", "berry", "ceiling", "omegabits"])),
        ("--fas", dict(required=True,
                       help=f"bundled name {incompleteness.BUNDLED_FAS_NAMES} or a JSON file")),
        ("--budget", dict(type=int, default=10**6, lo=0, reads=("action", "theorems ceiling omegabits"))),
        ("--L", dict(type=int, help="ensemble cap for omegabits", reads=("action", "omegabits")))]),
    "fgh": ("fast-growing hierarchy", False, [
        ("action", dict(choices=["eval", "dominate"])),
        ("--ordinal", dict(help="for eval", reads=("action", "eval"), needs=("action", "eval"))),
        ("--n", dict(type=int, help="for eval", reads=("action", "eval"), needs=("action", "eval"))),
        ("--alpha", dict(help="for dominate", reads=("action", "dominate"), needs=("action", "dominate"))),
        ("--beta", dict(help="for dominate", reads=("action", "dominate"), needs=("action", "dominate"))),
        ("--points", dict(default="1,2,3", reads=("action", "dominate"))),
        ("--cap-bits", dict(type=int, lo=1))]),  # default: hierarchy.DEFAULT_CAP_BITS, set by _dispatch
    "diag": ("diagonalize over a total function-program family", False, [
        ("--n", dict(type=int, required=True, lo=0)),
        ("--width", dict(type=int, default=incompleteness.NUMERAL_WIDTH, lo=1)),
        ("--family", dict(help="file with one 'prefix|payload' program per line"))]),
}


def build_parser() -> _Parser:
    """The top parser with a sub-parser for every command: what argparse reads
    off the plain path (help, errors, --version, --config, abbreviations).  A
    sub-parser sets only what the command line gives; _completed does the rest."""
    # the docstring's last paragraph is about this module's code, not for --help
    top = _Parser(prog="omegalab", description=__doc__.rsplit("\n\n", 1)[0])
    top.add_argument("--version", action="version", version=f"omegalab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, takes_csv, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_, argument_default=argparse.SUPPRESS)
        form = p.add_mutually_exclusive_group()
        form.add_argument("--json", action="store_true", help="JSON output (default)")
        if takes_csv:
            form.add_argument("--csv", action="store_true", help="CSV output")
        p.add_argument("--config", help="JSON config file; explicit flags win")
        for flag, kw in flags:
            p.add_argument(flag, **{k: v for k, v in kw.items() if k not in _OWN})
    return top


def _value(kw: dict, text: str):
    """A flag's value from its text, by its type, then in its choices; else an error."""
    value = kw["type"](text) if "type" in kw else text
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(f"{value!r} is not one of {list(kw['choices'])}")
    return value


def _plain_args(argv: List[str]) -> Optional[dict]:
    """What a plain argv gives, by dest, as argparse would read it, read
    straight from COMMANDS; None for any other argv, which argparse then reads.

    Plain: a command, its positionals in declared order, then its flags
    spelled in full, each at most once and followed by one value that does
    not start with '-', every required flag among them, and at most one of
    --json/--csv where declared.  Each value goes through its flag's type and
    choices."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, takes_csv, flags = COMMANDS[argv[0]]
    kws = dict(flags)
    positionals = [name for name in kws if not name.startswith("-")]
    if len(argv) <= len(positionals):
        return None
    texts = dict(zip(positionals, argv[1:]))
    rest = argv[1 + len(positionals):]
    given = {"command": argv[0]}
    while rest:
        token = rest.pop(0)
        if token == "--json" or (token == "--csv" and takes_csv):
            if "json" in given or "csv" in given:
                return None
            given[token[2:]] = True
        elif token.startswith("--") and token in kws and token not in texts and rest:
            texts[token] = rest.pop(0)
        else:
            return None
    for name, kw in flags:
        text = texts.get(name)
        if text is None:  # every positional is given: argv is longer than they are
            if kw.get("required"):
                return None
            continue
        if text.startswith("-"):
            return None
        try:
            given[name.lstrip("-").replace("-", "_")] = _value(kw, text)
        except (TypeError, ValueError):
            return None
    return given


def _completed(given: dict) -> SimpleNamespace:
    """The namespace _dispatch reads, from what either reader gives.  A flag
    not given takes its value from the --config file, else its declared
    default.  The file is a JSON object by dest; a string or a number is its
    flag's text, read through the flag's type and choices, and --json/--csv
    take a boolean.  The output form is one choice: --json or --csv given
    stops both keys, and a file may not set both.  Every value must then be
    at least its flag's `lo`.  A flag that differs from its default under a
    value its `reads` does not list is refused, as is a flag left None under
    a value its `needs` lists: the command never reads the one, and cannot
    run without the other."""
    _, takes_csv, flags = COMMANDS[given["command"]]
    form = {"json": False, "csv": False} if takes_csv else {"json": False}
    args = dict(form)
    path = given.get("config")
    if path is not None:
        with open(path) as f:
            conf = json.load(f)
        if not isinstance(conf, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        kws = {name.lstrip("-").replace("-", "_"): kw for name, kw in flags}
        for key, value in conf.items():
            dest = key.replace("-", "_")
            kw = kws.get(dest)
            if kw is None and dest not in args:
                raise ValueError(f"unknown key {key!r} in config file {path}")
            try:
                if kw is None:  # --json or --csv
                    if type(value) is not bool:
                        raise ValueError(f"{value!r} is not true or false")
                elif type(value) not in (str, int, float):
                    raise ValueError(f"{value!r} is not a string or a number")
                else:
                    value = _value(kw, str(value))
            except ValueError as exc:
                raise ValueError(f"bad value for key {key!r} in config file {path}: {exc}") from exc
            args[dest] = value
        if args.get("json") and args.get("csv"):
            raise ValueError(f"config file {path} sets both 'json' and 'csv'")
    if form.keys() & given.keys():
        args.update(form)
    args.update(given)
    args.setdefault("config", None)
    for name, kw in flags:
        dest = name.lstrip("-").replace("-", "_")
        if dest not in args:
            args[dest] = kw.get("default")  # a declared default meets its bound
        elif "lo" in kw and isinstance(args[dest], int) and args[dest] < kw["lo"]:
            raise ValueError(f"{name} must be >= {kw['lo']}, got {args[dest]}")
        reads, needs = kw.get("reads"), kw.get("needs")
        if reads and args[dest] != kw.get("default") and args[reads[0]] not in reads[1].split():
            on, refusal = reads[0], "does not read"
        elif needs and args[dest] is None and args[needs[0]] in needs[1].split():
            on, refusal = needs[0], "needs"
        else:
            continue
        what = args[on] if on == "action" else f"--{on} {args[on]}"
        raise ValueError(f"{args['command']} {what} {refusal} {name}")
    return SimpleNamespace(**args)


def _load_fas(spec: str) -> ToyFAS:
    if spec in incompleteness.BUNDLED_FAS_NAMES:
        return bundled_fas(spec)
    with open(spec) as f:
        d = json.load(f)
    keys = ("prefix", "payload", "machine", "ensemble_L", "name")
    if not isinstance(d, dict) or "prefix" not in d or not d.keys() <= set(keys):
        raise ValueError(f"formal system file {spec} must be a JSON object with a prefix and no keys "
                         f"but {', '.join(keys)}")
    prefix, payload, name = d["prefix"], d.get("payload", ""), d.get("name", spec)
    machine, L = d.get("machine", "sd"), d.get("ensemble_L")
    if not all(isinstance(v, str) for v in (prefix, payload, name)) or machine not in machines.SELF_DELIMITING:
        raise ValueError(f"formal system file {spec}: prefix, payload and name must be strings "
                         "and machine sd or total")
    if L is not None and (type(L) is not int or L < 0):
        raise ValueError(f"formal system file {spec}: ensemble_L must be an int >= 0, got {L!r}")
    return ToyFAS(Program(parse(prefix), bs_parse(payload)), machine, L, name)


def _outcome_dict(out: vm.RunOutcome) -> dict:
    """The report of one run.  Its value is null where it has no print: a
    value holding a closure or a y-wrapper anywhere, or one nested past the
    print's recursion limit, which the recursive parse could not read back
    either.  Every other field is the run's."""
    try:
        value = print_sexpr(out.value) if out.halted else None
    except (TypeError, RecursionError):
        value = None
    return {
        "outcome": out.kind,
        "value": value,
        "output": machines.output_of(out),
        "payload_consumed": out.payload_consumed,
        "aux_consumed": out.aux_consumed,
        "steps": out.steps,
        "reason": out.reason,
    }


def _config_dict(args: SimpleNamespace) -> dict:
    skip = {"command", "json", "csv", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _dispatch(args: SimpleNamespace) -> dict:
    cmd = args.command

    if cmd == "bits":
        members = args.set.split(",") if args.set else [""]
        members = [bs_parse(m) for m in members]
        ok, witness = is_prefix_free(members)
        if args.action == "kraft":
            return {"kraft_sum": str(kraft_sum(members)), "prefix_free": ok}
        return {"prefix_free": ok, "witness": list(witness) if witness else None}

    if cmd == "sexpr":
        expr = parse(args.text)
        if args.action == "parse":
            return {"canonical": print_sexpr(expr)}
        bits = to_bits(expr)
        return {"canonical": print_sexpr(expr), "bits": bits, "length_bits": len(bits)}

    if cmd == "run":
        machines.check_budget(args.machine, args.budget)
        if args.machine == "c2":
            out = machines.run_c2(args.raw, args.budget)
        else:
            prog = Program(parse(args.prefix), args.payload)
            out = machines.run_machine(args.machine, prog, args.budget, aux=args.aux)
        return _outcome_dict(out)

    if cmd in ("sweep", "elegant", "complexity", "prob", "coding", "chain"):
        ens = Ensemble(args.machine, args.L, args.B, args.c_cap)

    if cmd in ("sweep", "elegant"):
        return reports.table_report(complexity.build_table(ens))

    if cmd == "complexity":
        res = complexity.complexity_upper(ens, args.target)
        return {
            "target": args.target,
            "found": res.found,
            "h_upper": res.h_upper,
            "witness": res.witness,
            "exact": res.exact,
        }

    if cmd == "prob":
        p = complexity.algorithmic_probability(ens, args.target)
        return {"target": args.target, "prob": str(p)}

    if cmd == "coding":
        return complexity.check_coding(ens)

    if cmd == "chain":
        pairs = []
        for chunk in args.pairs.split(";"):
            x, colon, y = chunk.partition(":")
            if not colon:
                raise ValueError(f"--pairs chunk {chunk!r} is not x:y")
            pairs.append((bs_parse(x), bs_parse(y)))
        return complexity.check_chain_rule(ens, pairs)

    if cmd == "omega":
        capped = args.action != "lower"  # exact, bits and oracle: the decidable total ensemble
        if capped and args.machine != "total":
            raise ValueError(f"omega {args.action} needs --machine total, got {args.machine}")
        ens = Ensemble(args.machine, args.L, STRUCTURAL if capped else args.B, args.c_cap)
        flag, count = ("--emit-bits", args.emit_bits) if args.action in ("lower", "exact") else ("--k", args.k)
        if count is not None and count > args.L:
            raise ValueError(f"{flag} {count} exceeds --L {args.L}: a capped omega's bits past L are all 0")
        if args.action in ("lower", "exact"):
            return reports.omega_report(omega.omega_lower_bound(ens), args.emit_bits)
        if args.action == "bits":
            value = omega.omega_lower_bound(ens).mass
            return {"L": args.L, "k": args.k, "value": str(value),
                    "bits": dyadic_bits(value, args.k)}
        # oracle
        if args.kbits is not None:
            if args.k is not None:
                raise ValueError("omega oracle reads --kbits or --k, not both")
            kbits = args.kbits
        else:
            if args.k is None:
                raise ValueError("omega oracle needs --k or --kbits")
            kbits = dyadic_bits(omega.omega_lower_bound(ens).mass, args.k)
        res = omega.oracle_halting_from_omega(kbits, ens, guard=args.guard)
        return {
            "L": args.L,
            "kbits": kbits,
            "guard_tripped": res.tripped,
            "reason": res.reason,
            "halting_set": list(res.halting_set),
            "lower_bound_reached": str(res.reached),
            "steps_spent": res.steps_spent,
        }

    if cmd == "normality":
        return omega.borel_normality(args.x, args.k, args.tol)

    if cmd == "fas":
        fas = _load_fas(args.fas)
        if args.action == "theorems":
            thms = incompleteness.fas_theorems(fas, args.budget)
            return {
                "fas": fas.name,
                "n_bits": fas.n_bits,
                "budget": args.budget,
                "theorems": [
                    {"kind": "elegant", "program_bits": t.program_bits}
                    if isinstance(t, incompleteness.Elegant)
                    else {"kind": "omega_bit", "index": t.index, "bit": t.bit}
                    for t in thms
                ],
            }
        if args.action == "berry":
            P, T = incompleteness.build_berry_program(fas)
            return {
                "fas": fas.name,
                "n_bits": fas.n_bits,
                "threshold": T,
                "p_size_bits": P.size_bits,
                "threshold_minus_n": T - fas.n_bits,
            }
        if args.action == "ceiling":
            return incompleteness.elegance_ceiling_experiment(fas, args.budget)
        return incompleteness.omega_bits_ceiling_experiment(fas, args.L, args.budget)

    if cmd == "fgh":
        from . import hierarchy  # not at module level: no other command needs it

        if args.cap_bits is None:  # set here, so the config echo shows it
            args.cap_bits = hierarchy.DEFAULT_CAP_BITS
        if args.action == "eval":
            val = hierarchy.fgh_eval(hierarchy.ord_parse(args.ordinal), args.n, args.cap_bits)
            return {"ordinal": args.ordinal, "n": args.n, "cap_bits": args.cap_bits,
                    "value": val.as_dict()}
        try:
            points = [int(x) for x in args.points.split(",")]
            if min(points) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"--points must be comma-separated natural numbers, got {args.points!r}") from None
        ordinals = []
        for flag, text in (("--alpha", args.alpha), ("--beta", args.beta)):
            try:
                ordinals.append(hierarchy.ord_parse(text))
            except hierarchy.OrdinalParseError as exc:  # two ordinals: say which one
                raise ValueError(f"{flag} {text!r}: {exc}") from None
        return hierarchy.dominance_check(*ordinals, points, args.cap_bits)

    if cmd == "diag":
        if args.family:
            family = []
            with open(args.family) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    family.append(machines.program_from_text(line))
        else:
            family = incompleteness.bundled_function_family(args.width)
        value, values = incompleteness.diagonalize_total(family, args.n, args.width)
        return {
            "n": args.n,
            "width": args.width,
            "family_sizes": [p.size_bits for p in family],
            "family_values": values,
            "value": value,
        }

    raise ValueError(f"unknown command {cmd!r}")


# the parse, decode, ordinal, theorem and conversion errors are all ValueErrors; an input
# nested too deep for the recursive parsers, ordinal walks or JSON encoder is a RecursionError
DOMAIN_ERRORS = (ValueError, RecursionError, OSError, incompleteness.FASRunError,
                 incompleteness.BerryConstructionError)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line and return its exit code, with the cyclic garbage
    collector paused: disabled, and every object made before the command
    frozen, so a collection that still runs (gc.collect()) walks only what
    the command made.  Unfreezing puts those objects in the oldest
    generation, so in a process that runs command after command the young
    collections between them do not walk them again.  A command's values form
    no cycle (vm's docstring), so reference counting frees them.  main leaves
    the collector as it found it on every exit, an escaping exception
    included: enabled or not, and objects a caller froze stay frozen."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.disable()
    if not frozen:
        gc.freeze()
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    finally:
        if not frozen:
            gc.unfreeze()
        if enabled:
            gc.enable()


def _main(argv: List[str]) -> int:
    given = _plain_args(argv)
    if given is None:  # help, abbreviations, --config and usage errors: argparse's texts and exits
        given = vars(build_parser().parse_args(argv))
    try:
        args = _completed(given)
        result = _dispatch(args)
        if getattr(args, "csv", False):
            text = reports.emit_csv(result["entries"])
        else:
            text = reports.emit_json(reports.envelope(args.command, _config_dict(args), result))
    except UnsoundFASError as exc:
        report = reports.envelope(args.command, _config_dict(args), exc.report)
        sys.stdout.write(reports.emit_json(report))
        return EXPERIMENT_ABORT
    except DOMAIN_ERRORS as exc:
        print(f"omegalab: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
