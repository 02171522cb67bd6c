"""cli.main reads a plain argv straight from COMMANDS, which must give what
argparse gives, and builds the parser of every command for any other argv.
Either reader's result is completed by the one cli._completed."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from omegalab import __version__, cli
from omegalab.cli import COMMANDS, build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

USAGE = """usage: omegalab [-h] [--version]
                {bits,sexpr,run,sweep,complexity,elegant,prob,coding,chain,omega,normality,fas,fgh,diag}
                ...
"""


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal


def _readme_tour_lines():
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    block = text.split("## CLI tour", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("omegalab ")]


def _readme_tour():
    return [shlex.split(line, comments=True)[1:] for line in _readme_tour_lines()]


def _bench_commands():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for name in workloads.WORKLOADS for seed in (1, 2, 3, 4)
            for argv in workloads.commands(name, seed)]


ABBREVIATED = [
    ["run", "--mach", "sd", "--prefix", "(q(l))"],
    ["sweep", "--mach", "total", "--L", "40", "--B", "structural", "--c-c", "5", "--cs"],
    ["omega", "exact", "--L", "24", "--emit", "12", "--js"],
    ["omega", "oracle", "--L", "24", "--kb", "01", "--gu", "9"],
    ["fgh", "dominate", "--al", "w", "--be", "w+1", "--po", "1,2"],
    ["fas", "berry", "--fa", "sound", "--bud", "9"],  # refused alike: berry reads no budget
    ["fas", "theorems", "--fa", "sound", "--bud", "9"],
]

CORPUS = _readme_tour() + _bench_commands() + ABBREVIATED


def _commands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _sub(parser, name):
    return _commands(parser)[name]


def test_corpus_covers_every_command():
    assert len(_readme_tour()) == 22 and len(_bench_commands()) == 4 * (3 + 10 + 1 + 1)
    assert {argv[0] for argv in CORPUS} == set(COMMANDS)


@pytest.mark.parametrize("line", _readme_tour_lines(), ids=lambda line: line.split("#")[0].strip())
def test_readme_tour_runs_as_its_comments_say(capsys, line):
    # each line exits 0, or the code its comment gives ("# exits 3, ...")
    _, _, comment = line.partition("#")
    code = int(comment.split("exits ", 1)[1][0]) if "exits " in comment else 0
    assert main(shlex.split(line, comments=True)[1:]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", COMMANDS)
def test_every_command_prints_its_own_help(capsys, name):
    _, takes_csv, flags = COMMANDS[name]
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == "" and out == _sub(build_parser(), name).format_help()
    assert out.startswith(f"usage: omegalab {name} ")
    for flag in ["--json", "--config"] + ["--csv"] * takes_csv:
        assert flag in out
    assert ("--csv" in out) == takes_csv
    for flag, kw in flags:
        assert (flag if flag.startswith("-") else "{" + ",".join(kw["choices"]) + "}") in out


class _Dispatched(Exception):
    pass


def _spelled_in_full(argv):
    """argv with each abbreviated flag replaced by the one flag it starts."""
    _, takes_csv, flags = COMMANDS[argv[0]]
    names = [flag for flag, _ in flags if flag.startswith("-")] + ["--json", "--config"]
    names += ["--csv"] * takes_csv
    full = []
    for token in argv:
        if token.startswith("--") and token not in names:
            (token,) = [name for name in names if name.startswith(token)]
        full.append(token)
    return full


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_main_hands_the_command_what_the_full_spelling_gives_on_the_plain_path(capsys, monkeypatch, argv):
    def dispatch(args):
        handed.append(vars(args))
        raise _Dispatched

    def read(argv):
        handed.clear()
        try:
            code = main(argv)
        except _Dispatched:
            code = None
        return code, list(handed), capsys.readouterr()

    handed = []
    monkeypatch.setattr(cli, "_dispatch", dispatch)
    full = _spelled_in_full(argv)
    assert (full == argv) == (argv not in ABBREVIATED) and cli._plain_args(full) is not None
    plain = read(full)
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert read(argv) == plain
    assert plain[0] is None or plain[0] == 2 and plain[1] == [] and plain[2].err.startswith("omegalab: ")


def test_argparse_gives_only_what_the_command_line_gives():
    assert vars(build_parser().parse_args(["omega", "lower", "--L", "16", "--js"])) == {
        "command": "omega", "action": "lower", "L": 16, "json": True}


def _completed(given):
    """The namespace cli._completed makes of given, or the text it refuses."""
    try:
        return vars(cli._completed(given))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_plain_argv_reads_like_argparse(argv):
    plain = cli._plain_args(argv)
    if argv in ABBREVIATED:
        assert plain is None
    else:
        parsed = vars(build_parser().parse_args(argv))
        assert plain == parsed and _completed(plain) == _completed(parsed)


@pytest.mark.parametrize("argv", [
    [], ["nosuch"], ["--version"], ["bits", "kraft", "--set", "0", "-h"],
    ["bits", "kraft"],  # a required flag missing
    ["bits", "kraft", "--set"],  # a flag without its value
    ["bits", "kraft", "--set", "--"],
    ["bits", "kraft", "--set", "-5"],
    ["bits", "kraft", "--set", "0", "--set", "1"],
    ["bits", "--set", "0", "kraft"],  # a positional after a flag
    ["bits", "nope", "--set", "0"],
    ["sweep", "--machine", "sd", "--L", "16", "--json", "--csv"],
    ["sweep", "--machine", "sd", "--L", "16", "--json", "--json"],
    ["omega", "lower", "--L", "16", "--csv"],
    ["omega", "lower", "--L", "x"],
    ["run", "--machine=sd", "--prefix", "(r)"],
    ["run", "--machine", "sd", "--prefix", "(r)", "--config", "conf.json"],
    ["run", "--machine", "sd", "--prefix", "(r)", "--"],
])
def test_plain_path_leaves_the_rest_to_argparse(argv):
    assert cli._plain_args(argv) is None


_VALUES = ["", "-5", "x", "--", "01", "0", "16", "structural", "sd", "w", "1,2", "sound"]
_FIT = {int: ["0", "01", "16"], cli._bits_arg: ["", "01"], cli._budget: ["16", "structural"]}


@st.composite
def _argvs(draw):
    """A command line with the command's positionals, its required flags, up
    to two more flags and up to two of --json/--csv, in full and mostly with
    fit values; then up to two edits (abbreviate a flag, join a flag to its
    value with '=', replace, insert or delete a token)."""
    name = draw(st.sampled_from(list(COMMANDS)))
    flags = COMMANDS[name][2]
    words = _VALUES + ["--json", "--csv", "--config", "--help"] + [flag for flag, _ in flags]

    def value(kw):  # fit five times in six
        fit = list(kw["choices"]) if "choices" in kw else _FIT.get(kw.get("type"), ["x", "", "1,2"])
        return draw(st.sampled_from(fit if draw(st.integers(0, 5)) else _VALUES))

    argv = [name] + [value(kw) for flag, kw in flags if not flag.startswith("-")]
    options = [(flag, kw) for flag, kw in flags if flag.startswith("-")]
    chosen = [option for option in options if option[1].get("required")]
    chosen += draw(st.lists(st.sampled_from(options), max_size=2, unique_by=lambda option: option[0]))
    chosen += [(form, None) for form in draw(st.lists(st.sampled_from(["--json", "--csv"]), max_size=2))]
    for flag, kw in draw(st.permutations(chosen)):
        argv += [flag] if kw is None else [flag, value(kw)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(1, len(argv)))
        edit = draw(st.sampled_from(["abbreviate", "join", "replace", "insert", "delete"]))
        if i == len(argv) or edit == "insert":
            argv.insert(i, draw(st.sampled_from(words)))
        elif edit == "replace":
            argv[i] = draw(st.sampled_from(words))
        elif edit == "delete":
            del argv[i]
        elif argv[i].startswith("--") and edit == "abbreviate":
            argv[i] = argv[i][:draw(st.integers(2, len(argv[i])))]
        elif argv[i].startswith("--") and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_plain_path_is_none_or_argparse(argv):
    plain = cli._plain_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = build_parser().parse_args(argv)
    except SystemExit:
        assert plain is None
    else:
        assert plain is None or (plain == vars(parsed) and _completed(plain) == _completed(vars(parsed)))


@pytest.mark.parametrize("argv", [
    ["run"],
    ["sweep", "--machine", "sd", "--L", "16", "extra"],
    ["sweep", "--machine", "sd", "--L", "x"],
    ["sweep", "--machine", "c2", "--L", "2", "--json", "--csv"],
    ["omega", "nope", "--L", "16"],
    ["omega", "lower", "--L", "16", "--csv"],
    ["run", "--ma", "sd", "--prefix", "(r)", "--p", "1"],  # --p is ambiguous
])
def test_argparse_refuses_with_usage_and_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.startswith("usage: omegalab ") and err.endswith(" (try --help)\n") and "error: " in err


def test_main_builds_a_fresh_sub_parser_only_off_the_plain_path(capsys, monkeypatch, tmp_path):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    for _ in range(2):
        assert main(["bits", "kraft", "--set", "0,10"]) == 0
    assert built == []
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"set": "0,10"}))
    for argv in (["bits", "kraft", "--se", "0,10"], ["bits", "kraft", "--set", "0", "--config", str(conf)]):
        for _ in range(2):
            assert main(argv) == 0
    assert built == list(COMMANDS) * 4
    with pytest.raises(SystemExit):
        main(["--version"])
    assert built == list(COMMANDS) * 5


def test_config_of_one_call_leaves_the_next_unchanged(tmp_path, capsys):
    argv = ["omega", "lower", "--machine", "sd", "--L", "16"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"B": 0, "emit_bits": 3}))
    assert main(argv + ["--config", str(conf)]) == 0
    configured = json.loads(capsys.readouterr().out)["config"]
    assert (configured["B"], configured["emit_bits"]) == (0, 3)
    assert main(argv) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 1, "", USAGE + "omegalab: error: the following arguments are required: command "
                        "(try --help)\n"),
    (["nosuch"], 1, "", USAGE + "omegalab: error: argument command: invalid choice: 'nosuch' "
                              "(choose from " + ", ".join(map(repr, COMMANDS)) + ") (try --help)\n"),
    (["--version"], 0, f"omegalab {__version__}\n", ""),
    (["sweep", "--machine", "sd", "--L", "16", "x"], 1, "",
     USAGE + "omegalab: error: unrecognized arguments: x (try --help)\n"),
])
def test_top_level_exits_and_text(capsys, argv, code, out, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code and capsys.readouterr() == (out, err)


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(USAGE + "\n" + cli.__doc__.split("\n")[0])
    for name, (help_, _, _) in COMMANDS.items():
        assert f"    {name}" in out and help_ in out


def test_csv_is_declared_for_the_table_commands_only():
    full = build_parser()
    assert {name for name in COMMANDS
            if "--csv" in _sub(full, name)._option_string_actions} == {"sweep", "elegant", "coding"}
