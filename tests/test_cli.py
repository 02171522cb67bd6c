"""Command-line surface: dispatch, formats, exit-code taxonomy, reproducibility."""

import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import omegalab
from omegalab.cli import main
from omegalab.sexpr import parse, to_bits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out: str) -> dict:
    rep = json.loads(out)
    assert rep["schema_version"] == "omegalab.report/1"
    assert "config" in rep and "tool_version" in rep
    return rep["result"]


def test_run_c2(capsys):
    code, out, _ = run_cli(capsys, "run", "--machine", "c2", "--raw", "0101", "--budget", "10")
    assert code == 0
    res = report(out)
    assert res["outcome"] == "halted" and res["output"] == "101"


def test_run_c2_conversion_reasons(capsys):
    for text, reason in (("(q0)", "conversion: value is not a list"),
                         ("(q(0a))", "conversion: value is not a flat list of bit atoms")):
        raw = "1" + to_bits(parse(text))
        code, out, _ = run_cli(capsys, "run", "--machine", "c2", "--raw", raw, "--budget", "10")
        assert code == 0
        assert report(out) == {"outcome": "faulted", "value": None, "output": None, "payload_consumed": 0,
                               "aux_consumed": 0, "steps": 1, "reason": reason}


def test_run_sd(capsys):
    code, out, _ = run_cli(capsys, "run", "--machine", "sd", "--prefix", "(r)", "--payload", "1")
    assert code == 0 and report(out)["output"] == "1"


def test_run_value_holding_a_closure_is_null(capsys):
    for prefix, steps in (("(lxx)", 1), ("(c(lxx)())", 2), ("(c(q0)(c(lxx)()))", 4), ("(c(y(lxx))())", 3)):
        code, out, _ = run_cli(capsys, "run", "--machine", "sd", "--prefix", prefix)
        assert code == 0
        res = report(out)
        assert (res["outcome"], res["value"], res["output"], res["steps"]) == ("halted", None, None, steps)
    code, out, _ = run_cli(capsys, "run", "--machine", "sd", "--prefix", "(c(q0)(q(l)))")
    assert code == 0 and report(out)["value"] == "(0l)"


def test_run_value_nested_past_the_print_limit_is_null(capsys):
    # a short program builds a value 3,001 lists deep: the run halted, so its
    # report says so, with no print of the value
    prefix = "((y(lf(lx(i(e(r)(q1))(f(cx()))x))))())"
    code, out, _ = run_cli(capsys, "run", "--machine", "sd", "--prefix", prefix, "--payload", "1" * 3000 + "0",
                           "--budget", "100000")
    assert code == 0
    assert report(out) == {"outcome": "halted", "value": None, "output": None, "payload_consumed": 3001,
                           "aux_consumed": 0, "steps": 27010, "reason": None}
    code, out, _ = run_cli(capsys, "run", "--machine", "sd", "--prefix", prefix, "--payload", "1110")
    assert code == 0 and report(out)["value"] == "(((())))"


def test_bits_commands(capsys):
    code, out, _ = run_cli(capsys, "bits", "kraft", "--set", "0,10,110")
    assert code == 0 and report(out)["kraft_sum"] == "7/2^3"
    code, out, _ = run_cli(capsys, "bits", "prefixfree", "--set", "0,01")
    assert code == 0 and report(out) == {"prefix_free": False, "witness": ["0", "01"]}


def test_sexpr_commands(capsys):
    code, out, _ = run_cli(capsys, "sexpr", "encode", "--text", "(ab)")
    assert code == 0 and report(out)["length_bits"] == 32


def test_fgh_commands(capsys):
    code, out, _ = run_cli(capsys, "fgh", "eval", "--ordinal", "w", "--n", "2")
    assert code == 0 and report(out)["value"] == {"exact": 65536}
    code, out, _ = run_cli(capsys, "fgh", "dominate", "--alpha", "0", "--beta", "1",
                           "--points", "1,2,3")
    assert code == 0 and report(out)["first_crossing"] == 1


def test_fgh_values_past_the_decimal_limit_print_in_hex(capsys):
    # f_{w+1}(2) = 2^65536 has 19,729 decimal digits, more than Python
    # converts to decimal text by default
    code, out, _ = run_cli(capsys, "fgh", "eval", "--ordinal", "w+1", "--n", "2")
    assert code == 0 and report(out)["value"] == {"exact_hex": hex(2**65536)}
    code, out, _ = run_cli(capsys, "fgh", "dominate", "--alpha", "w", "--beta", "w+1")
    rows = report(out)["points"]
    assert code == 0 and [(r["f_alpha"], r["f_beta"]) for r in rows] == [
        ({"exact": 4}, {"exact": 16}),
        ({"exact": 65536}, {"exact_hex": hex(2**65536)}),
        ({"tower": 4, "top": 3}, {"tower": 5, "top": 3}),
    ]


@pytest.mark.parametrize("ordinal, value", [
    ("2000", {"tower": 2002, "top": 0}),
    ("w+2000", {"tower": 2003, "top": 0}),
])
def test_fgh_eval_runs_long_successor_chains(capsys, ordinal, value):
    # one stack frame per successor step would pass the recursion limit
    code, out, _ = run_cli(capsys, "fgh", "eval", "--ordinal", ordinal, "--n", "1")
    assert code == 0 and report(out)["value"] == value


def test_fgh_dominate_runs_long_successor_chains(capsys):
    code, out, _ = run_cli(capsys, "fgh", "dominate", "--alpha", "1", "--beta", "990", "--points", "1")
    rows = report(out)["points"]
    assert code == 0 and (rows[0]["f_alpha"], rows[0]["f_beta"]) == ({"exact": 4}, {"tower": 992, "top": 0})


def test_an_error_while_printing_exits_2(capsys, monkeypatch):
    from omegalab import reports

    def refuse(report):
        raise ValueError("cannot print")

    monkeypatch.setattr(reports, "emit_json", refuse)
    assert run_cli(capsys, "fgh", "eval", "--ordinal", "w", "--n", "2") == (
        2, "", "omegalab: cannot print\n")


def test_omega_commands(capsys):
    code, out, _ = run_cli(capsys, "omega", "exact", "--L", "24", "--emit-bits", "12")
    assert code == 0
    res = report(out)
    assert res["value"] == "1/2^16" and res["bits"] == "0" * 12
    code, out, _ = run_cli(capsys, "omega", "oracle", "--L", "24", "--k", "12")
    assert code == 0 and report(out)["halting_set"] == []


def test_omega_answers_zero_bits(capsys):
    code, out, _ = run_cli(capsys, "omega", "bits", "--L", "24", "--k", "0")
    assert code == 0 and report(out)["bits"] == ""
    code, out, _ = run_cli(capsys, "omega", "oracle", "--L", "24", "--k", "0")
    res = report(out)
    assert code == 0 and (res["kbits"], res["halting_set"], res["guard_tripped"]) == ("", [], False)


@pytest.mark.parametrize("argv, flag, field", [
    (["omega", "bits"], "--k", "bits"),
    (["omega", "oracle"], "--k", "kbits"),
    (["omega", "exact"], "--emit-bits", "bits"),
    (["omega", "lower", "--machine", "sd"], "--emit-bits", "bits"),
], ids=["bits", "oracle", "exact", "lower"])
def test_a_bit_count_past_L_exits_2_before_any_sweep(capsys, sweeps, argv, flag, field):
    # a capped omega is a multiple of 2^-L, so its bits past L are all 0;
    # a count past L is refused before the sweep, so no count can exhaust memory
    code, out, _ = run_cli(capsys, *argv, "--L", "16", flag, "16")
    assert code == 0 and len(report(out)[field]) == 16
    sweeps.clear()
    for count in ("17", "100000000000"):
        assert run_cli(capsys, *argv, "--L", "16", flag, count) == (
            2, "", f"omegalab: {flag} {count} exceeds --L 16: a capped omega's bits past L are all 0\n")
    assert sweeps == []


def test_normality_command(capsys):
    code, out, _ = run_cli(capsys, "normality", "--x", "01010101", "--k", "1", "--tol", "0.1")
    assert code == 0 and report(out)["verdict"] == "pass"


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--machine", "c2", "--L", "2", "--B", "10", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "output,kind,h_upper,witness,minimal_count,prob"
    assert len(lines) == 4


def test_csv_only_where_a_csv_form_exists(capsys):
    for argv in (["omega", "lower", "--L", "16", "--csv"],
                 ["sweep", "--machine", "c2", "--L", "2", "--B", "10", "--json", "--csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1 and "--csv" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "elegant", "--machine", "c2", "--L", "2", "--B", "10", "--csv")
    assert code == 0 and out.splitlines()[0] == "output,kind,h_upper,witness,minimal_count,prob"
    code, out, _ = run_cli(capsys, "coding", "--machine", "sd", "--L", "24", "--csv")
    assert code == 0 and out.splitlines() == ["output,h_upper,prob,defect", ",16,1/2^16,0"]


def test_diag_command(capsys):
    code, out, _ = run_cli(capsys, "diag", "--n", "2")
    assert code == 0 and report(out)["value"] == 9


def test_diag_runs_each_family_program_once(capsys, monkeypatch):
    from omegalab import incompleteness

    calls = []
    apply = incompleteness.apply_function_program
    monkeypatch.setattr(incompleteness, "apply_function_program",
                        lambda p, n, width: calls.append(p) or apply(p, n, width))
    code, out, _ = run_cli(capsys, "diag", "--n", "2")
    res = report(out)
    assert code == 0 and res["family_values"] == [2, 4, 8] and res["value"] == 9
    assert calls == incompleteness.bundled_function_family()


def test_diag_reads_a_family_file_in_the_printed_program_form(capsys, tmp_path):
    from omegalab.incompleteness import bundled_function_family

    family = tmp_path / "family.txt"
    family.write_text("".join(f"{p}\n\n" for p in bundled_function_family()))
    code, out, _ = run_cli(capsys, "diag", "--n", "2", "--family", str(family))
    bundled = run_cli(capsys, "diag", "--n", "2")[1]
    assert code == 0 and report(out) == report(bundled)
    family.write_text("(r)|02\n")
    assert run_cli(capsys, "diag", "--n", "2", "--family", str(family)) == (
        2, "", "omegalab: invalid bit character '2' at index 1\n")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required --machine
    assert exc.value.code == 1


def test_domain_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "sexpr", "parse", "--text", "(a")
    assert code == 2 and "omegalab:" in err
    code, _, err = run_cli(capsys, "run", "--machine", "c2", "--budget", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "prob", "--machine", "c2", "--target", "0", "--L", "8")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["sexpr", "parse", "--text", "(" * 1200 + ")" * 1200],
    ["run", "--machine", "sd", "--prefix", "(" * 1200 + ")" * 1200],
    ["fgh", "eval", "--ordinal", "w^" * 1000 + "1", "--n", "2"],
])
def test_nesting_too_deep_exits_2(capsys, argv):
    # every walk of an expression or ordinal recurses once per nesting level
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("omegalab:")


def test_unsound_fas_exits_3(capsys):
    code, out, _ = run_cli(capsys, "fas", "omegabits", "--fas", "omega8-flipped",
                           "--budget", "1000")
    assert code == 3
    res = report(out)
    assert res["verdict"] == "unsound" and res["flipped_index"] == 5


def test_fas_theorems_command(capsys):
    code, out, _ = run_cli(capsys, "fas", "theorems", "--fas", "sound", "--budget", "100")
    assert code == 0
    res = report(out)
    assert len(res["theorems"]) == 7 and res["theorems"][0]["kind"] == "elegant"


def test_formal_system_file_round_trip(capsys, tmp_path):
    # the bundled omega8 system written out with every key gives its report
    from omegalab.incompleteness import bundled_fas
    from omegalab.sexpr import print_sexpr

    omega8 = bundled_fas("omega8")
    path = tmp_path / "omega8.json"
    path.write_text(json.dumps({"prefix": print_sexpr(omega8.enumerator.prefix), "payload": "",
                                "machine": "total", "ensemble_L": 24, "name": omega8.name}))
    reports = [report(run_cli(capsys, "fas", "omegabits", "--fas", fas, "--budget", "1000")[1])
               for fas in ("omega8", str(path))]
    assert reports[0] == reports[1] and reports[0]["verdict"] == "all-correct"
    # the defaults: machine sd, no ensemble, the file as the name; the payload is read
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"prefix": "(c(c(qe)(c(r)(q())))(q()))", "payload": "1"}))
    code, out, _ = run_cli(capsys, "fas", "theorems", "--fas", str(path), "--budget", "100")
    assert code == 0 and report(out) == {"fas": str(path), "n_bits": 209, "budget": 100,
                                         "theorems": [{"kind": "elegant", "program_bits": "1"}]}


@pytest.mark.parametrize("action, fas", [
    ("theorems", [{"prefix": "(q())"}]),  # not an object
    ("theorems", {"payload": "01"}),  # no prefix
    ("theorems", {"prefix": "(q())", "machin": "total"}),  # an unknown key
    ("theorems", {"prefix": "(h(c(q())(c(r)(q()))))", "payload": "x"}),  # payload not bits: (r) read x
    ("theorems", {"prefix": "(q())", "payload": 1}),
    ("theorems", {"prefix": ["(q())"]}),
    ("theorems", {"prefix": "(q())", "machine": "c2"}),
    ("omegabits", {"prefix": "(q())", "ensemble_L": "abc"}),
    ("omegabits", {"prefix": "(q())", "ensemble_L": -1}),
    ("omegabits", {"prefix": "(q())", "ensemble_L": True}),
])
def test_bad_formal_system_file_exits_2(capsys, tmp_path, action, fas):
    path = tmp_path / "fas.json"
    path.write_text(json.dumps(fas))
    code, out, err = run_cli(capsys, "fas", action, "--fas", str(path), "--budget", "100")
    assert (code, out) == (2, "") and err.startswith("omegalab: "), err


def test_config_file_merges(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"ordinal": "w", "n": 2}))
    code, out, _ = run_cli(capsys, "fgh", "eval", "--config", str(conf))
    assert code == 0 and report(out)["value"] == {"exact": 65536}
    # explicit flags win over the config file
    code, out, _ = run_cli(capsys, "fgh", "eval", "--config", str(conf), "--n", "1")
    assert code == 0 and report(out)["value"] == {"exact": 4}


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"ordinal": "w", "n": 2, "ordnal": "w+1"}))
    code, out, err = run_cli(capsys, "fgh", "eval", "--config", str(conf))
    assert code == 2 and out == ""
    assert "'ordnal'" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--machine", "sd", "--L", "40", "--c-cap", "-2"],
    ["sweep", "--machine", "c2", "--L", "-5"],
    ["omega", "lower", "--machine", "sd", "--L", "16", "--B", "-1"],
    ["omega", "bits", "--L", "16", "--k", "-3"],
    ["omega", "exact", "--L", "16", "--emit-bits", "-2"],
    ["run", "--machine", "sd", "--prefix", "(q(0))", "--budget", "structural"],
    ["run", "--machine", "c2", "--raw", "0", "--budget", "structural"],
    ["run", "--machine", "total", "--prefix", "(q(0))", "--budget", "-3"],
    ["fas", "theorems", "--fas", "sound", "--budget", "-5"],
    ["fas", "ceiling", "--fas", "sound", "--budget", "-5"],
    ["fas", "omegabits", "--fas", "omega8", "--budget", "-1"],
    ["diag", "--n", "-1"],
    ["omega", "exact", "--L", "16", "--machine", "sd"],
    ["omega", "bits", "--L", "16", "--k", "4", "--machine", "sd"],
    ["omega", "oracle", "--L", "16", "--k", "4", "--machine", "sd"],
    ["sweep", "--machine", "c2", "--L", "23"],
    ["prob", "--machine", "c2", "--target", "0", "--L", "8"],
    ["coding", "--machine", "c2", "--L", "8"],
    # c2's domain is not prefix-free; chain refuses it before it reads a pair,
    # whether c2's table holds x (the empty x) or not (01010 at L 4)
    ["chain", "--machine", "c2", "--L", "4", "--pairs", "01010:1"],
    ["chain", "--machine", "c2", "--L", "4", "--pairs", ":"],
    ["diag", "--n", "0", "--width", "-1"],
    ["diag", "--n", "0", "--width", "0"],
    ["fgh", "eval", "--ordinal", "w", "--n", "2", "--cap-bits", "-1"],
    ["omega", "oracle", "--L", "20", "--k", "3", "--guard", "-1"],
    ["omega", "lower", "--L", "20", "--guard", "-5"],
    ["omega", "exact", "--L", "16", "--guard", "-1"],
    ["omega", "bits", "--L", "16", "--k", "4", "--guard", "-1"],
    ["omega", "oracle", "--L", "16", "--k", "-3"],
    # flags the action never reads
    ["omega", "lower", "--machine", "sd", "--L", "16", "--k", "5"],
    ["omega", "lower", "--L", "16", "--kbits", "01"],
    ["omega", "lower", "--L", "16", "--guard", "5"],
    ["omega", "exact", "--L", "16", "--k", "5"],
    ["omega", "exact", "--L", "16", "--kbits", "01"],
    ["omega", "exact", "--L", "16", "--guard", "5"],
    ["omega", "bits", "--L", "16", "--k", "4", "--kbits", "01"],
    ["omega", "bits", "--L", "16", "--k", "4", "--guard", "5"],
    ["omega", "bits", "--L", "16", "--k", "4", "--emit-bits", "3"],
    ["omega", "oracle", "--L", "16", "--k", "4", "--emit-bits", "3"],
    ["omega", "oracle", "--L", "24", "--kbits", "0", "--k", "7"],
    ["omega", "exact", "--L", "24", "--B", "5"],
    ["omega", "bits", "--L", "24", "--k", "4", "--B", "structural"],
    ["omega", "oracle", "--L", "24", "--k", "4", "--B", "0"],
    ["omega", "lower", "--machine", "c2", "--L", "14"],
    ["omega", "lower", "--machine", "c2", "--L", "40"],
    ["omega", "exact", "--machine", "c2", "--L", "14"],
    ["run", "--machine", "c2", "--raw", "0101", "--payload", "11"],
    ["run", "--machine", "c2", "--raw", "0101", "--aux", "1"],
    ["run", "--machine", "c2", "--raw", "0101", "--prefix", "()"],
    ["run", "--machine", "sd", "--prefix", "()", "--raw", "0"],
    ["run", "--machine", "total", "--prefix", "()", "--raw", "0"],
    ["normality", "--x", "0110", "--k", "1", "--tol", "-1"],
    ["normality", "--x", "0110", "--k", "1", "--tol", "abc"],
    ["normality", "--x", "0110", "--k", "1", "--tol", "nan"],
    ["normality", "--x", "0110", "--k", "1", "--tol", "1/0"],
    ["normality", "--x", "0110", "--tol", "0", "--k", "0"],
    ["normality", "--x", "0110", "--tol", "0", "--k", "21"],
    ["normality", "--tol", "0", "--x", "0", "--k", "2"],
    ["normality", "--tol", "0", "--k", "2", "--x", "0"],
    ["fgh", "dominate", "--alpha", "1", "--beta", "w", "--points", ""],
    ["fgh", "dominate", "--alpha", "1", "--beta", "w", "--points", "1,,2"],
    ["fgh", "dominate", "--alpha", "1", "--beta", "w", "--points", "-1"],
    ["fgh", "dominate", "--alpha", "w", "--beta", "x"],
    ["fgh", "dominate", "--beta", "w", "--alpha", "x"],
])
def test_out_of_range_sweep_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "omegalab:" in err
    if "c2" in argv and (argv[0] in ("prob", "coding", "chain") or argv[:2] == ["omega", "lower"]):
        # machines states the one refusal; at L 40 c2's size cap refuses first
        assert err.startswith("omegalab: ") and err.endswith(
            "got L=40\n" if "40" in argv else " needs a prefix-free machine (sd or total), got 'c2'\n")
    # the message names the flag
    if argv[0] in ("fas", "diag", "fgh", "normality") or argv[-2] in (
            "--guard", "--emit-bits", "--k", "--kbits", "--B", "--payload", "--aux", "--prefix", "--raw"):
        assert argv[-2] in err


@pytest.mark.parametrize("pairs, chunk", [("01", "'01'"), ("0:1;;1:0", "''"), ("0:1;1", "'1'")])
def test_chain_refuses_a_pair_without_a_colon(capsys, pairs, chunk):
    # before, a chunk with no ':' was read as (chunk, ""); a lone ':' is still
    # the empty pair (the chain stdout pins in test_reports.py)
    code, out, err = run_cli(capsys, "chain", "--machine", "sd", "--L", "16", "--pairs", pairs)
    assert (code, out) == (2, "") and err == f"omegalab: --pairs chunk {chunk} is not x:y\n"


def test_config_values_are_typed_like_flags(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"B": "100"}))
    argv = ["sweep", "--machine", "sd", "--L", "16"]
    code, from_config, _ = run_cli(capsys, *argv, "--config", str(conf))
    assert code == 0
    code, from_flag, _ = run_cli(capsys, *argv, "--B", "100")
    assert code == 0 and from_config == from_flag
    conf.write_text(json.dumps({"B": "x"}))
    code, out, err = run_cli(capsys, *argv, "--config", str(conf))
    assert code == 2 and out == "" and "'B'" in err


def test_config_never_overrides_the_command_line(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"action": "prefixfree"}))
    code, out, _ = run_cli(capsys, "bits", "kraft", "--set", "0,01", "--config", str(conf))
    assert code == 0 and report(out) == {"kraft_sum": "3/2^2", "prefix_free": False}
    # an abbreviated flag is as explicit as the full one
    conf.write_text(json.dumps({"machine": "total"}))
    code, out, _ = run_cli(capsys, "run", "--mach", "sd", "--prefix", "(q(l))", "--config", str(conf))
    assert code == 0 and report(out)["outcome"] == "halted"


@pytest.mark.parametrize("machine_flag", ["--machine", "--mach"])
def test_a_given_value_beats_the_config_even_at_its_default(tmp_path, capsys, machine_flag):
    # 10000 is --B's default, but given on the command line it is given
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"B": 0}))
    code, out, _ = run_cli(capsys, "omega", "lower", machine_flag, "sd", "--L", "16", "--B", "10000",
                           "--config", str(conf))
    assert code == 0 and json.loads(out)["config"]["B"] == 10000


@pytest.mark.parametrize("form, conf", [
    ("--json", {"csv": True}),
    ("--csv", {"json": True}),
    ("--json", {"json": False, "csv": True}),
])
def test_an_output_form_given_stops_both_config_keys(tmp_path, capsys, form, conf):
    # the output form is one choice, which the command line makes
    path = tmp_path / "c.json"
    path.write_text(json.dumps(conf))
    argv = ["coding", "--machine", "sd", "--L", "24", form]
    code, out, _ = run_cli(capsys, *argv, "--config", str(path))
    assert code == 0 and out == run_cli(capsys, *argv)[1]
    assert out.startswith("{") == (form == "--json")


def test_a_config_setting_both_output_forms_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"json": True, "csv": True}))
    for form in ([], ["--json"]):
        code, out, err = run_cli(capsys, "coding", "--machine", "sd", "--L", "24", *form, "--config", str(path))
        assert (code, out) == (2, "") and err == f"omegalab: config file {path} sets both 'json' and 'csv'\n"


@pytest.mark.parametrize("argv, conf", [
    (["bits", "kraft", "--set", "0"], [1, 2]),
    (["fgh", "dominate", "--alpha", "1", "--beta", "w"], {"points": [1, 2]}),
    (["run", "--machine", "sd"], {"prefix": 5}),
    (["fgh", "eval", "--ordinal", "w"], {"n": None}),
    (["fgh", "eval", "--ordinal", "w"], {"n": True}),
    (["sweep", "--machine", "sd", "--L", "16"], {"csv": "yes"}),
    (["sweep", "--machine", "sd", "--L", "16"], {"config": "other.json"}),
], ids=["list", "list-value", "number-prefix", "null", "bool", "csv-text", "config-key"])
def test_a_bad_config_file_exits_2(tmp_path, capsys, argv, conf):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert (code, out) == (2, "") and err.startswith("omegalab: ")
    if argv[0] == "run":  # 5 is the text --prefix 5, which the expression parser refuses
        assert err == run_cli(capsys, *argv, "--prefix", "5")[2]
    else:
        assert str(path) in err


def test_config_numbers_are_flag_text(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"ordinal": 5, "n": 2}))
    code, out, _ = run_cli(capsys, "fgh", "eval", "--config", str(conf))
    assert code == 0 and out == run_cli(capsys, "fgh", "eval", "--ordinal", "5", "--n", "2")[1]
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "3a76b8be6e0d"
    conf.write_text(json.dumps({"csv": True}))
    code, out, _ = run_cli(capsys, "sweep", "--machine", "sd", "--L", "16", "--config", str(conf))
    assert code == 0 and out == run_cli(capsys, "sweep", "--machine", "sd", "--L", "16", "--csv")[1]


BOUNDED = [
    ["omega", "lower", "--L", "16", "--B", "-1"],
    ["sweep", "--machine", "sd", "--L", "16", "--B", "-1"],
    ["omega", "lower", "--L", "16", "--guard", "-1"],
    ["omega", "exact", "--L", "16", "--emit-bits", "-1"],
    ["omega", "bits", "--L", "16", "--k", "-1"],
    ["fas", "ceiling", "--fas", "sound", "--budget", "-1"],
    ["fgh", "eval", "--ordinal", "w", "--n", "1", "--cap-bits", "0"],
    ["diag", "--n", "-1"],
    ["diag", "--n", "0", "--width", "0"],
]


def test_bounds_are_declared_on_their_flags():
    from omegalab.cli import COMMANDS

    declared = {(name, flag, kw["lo"]) for name, (_, _, flags) in COMMANDS.items()
                for flag, kw in flags if "lo" in kw}
    sweeps = {"sweep", "complexity", "elegant", "prob", "coding", "chain", "omega"}
    assert declared == {(name, "--B", 0) for name in sweeps} | {
        ("omega", "--guard", 0), ("omega", "--emit-bits", 0), ("omega", "--k", 0),
        ("fas", "--budget", 0), ("fgh", "--cap-bits", 1), ("diag", "--n", 0), ("diag", "--width", 1)}


@pytest.mark.parametrize("argv", BOUNDED, ids=" ".join)
def test_a_value_below_its_bound_names_the_flag(tmp_path, capsys, argv):
    *rest, flag, value = argv
    text = f"omegalab: {flag} must be >= {int(value) + 1}, got {value}\n"
    assert run_cli(capsys, *argv) == (2, "", text)
    if flag == "--n":  # required on the command line
        return
    # the same bound holds for a value read from --config
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({flag[2:]: int(value)}))
    assert run_cli(capsys, *rest, "--config", str(conf)) == (2, "", text)


def test_run_structural_budget_is_the_prefix_count(capsys):
    argv = ["run", "--machine", "total", "--prefix", "(q(0))", "--budget"]
    code, structural, _ = run_cli(capsys, *argv, "structural")
    assert code == 0
    code, counted, _ = run_cli(capsys, *argv, "4")
    assert code == 0
    r1, r2 = json.loads(structural), json.loads(counted)
    assert r1["config"].pop("budget") == "structural" and r2["config"].pop("budget") == 4
    assert r1 == r2 and r1["result"]["output"] == "0"


def test_run_structural_budget_on_a_deeply_nested_quote(capsys):
    # nested past the depth a recursive subexpression count can reach under the default recursion limit
    argv = ["run", "--machine", "total", "--prefix", "(q" + "(" * 600 + ")" * 600 + ")", "--budget"]
    code, structural, _ = run_cli(capsys, *argv, "structural")
    assert code == 0
    code, counted, _ = run_cli(capsys, *argv, "10000")
    assert code == 0
    r1, r2 = json.loads(structural), json.loads(counted)
    assert r1["config"].pop("budget") == "structural" and r2["config"].pop("budget") == 10000
    assert r1 == r2 and r1["result"]["outcome"] == "halted"


def test_omega_oracle_sweeps_once(capsys, monkeypatch, sweeps):
    from omegalab import complexity, omega

    monkeypatch.setattr(omega, "build_table", complexity.build_table.__wrapped__)  # bypass the memo
    code, out, _ = run_cli(capsys, "omega", "oracle", "--L", "40", "--k", "12")
    assert code == 0 and not report(out)["guard_tripped"]
    assert sweeps == [("total", 40, "structural", 6)]


_FGH_HELP = """\
usage: omegalab fgh [-h] [--json] [--config CONFIG] [--ordinal ORDINAL]
                    [--n N] [--alpha ALPHA] [--beta BETA] [--points POINTS]
                    [--cap-bits CAP_BITS]
                    {eval,dominate}

positional arguments:
  {eval,dominate}

options:
  -h, --help           show this help message and exit
  --json               JSON output (default)
  --config CONFIG      JSON config file; explicit flags win
  --ordinal ORDINAL    for eval
  --n N                for eval
  --alpha ALPHA        for dominate
  --beta BETA          for dominate
  --points POINTS
  --cap-bits CAP_BITS
"""


@pytest.mark.parametrize("argv, digest", [
    (["fgh", "eval", "--ordinal", "w^w+2", "--n", "3"],
     "955057c926386e9e6c4e188ecccb5cbc39050d5320986fbeaaa1892f6dc9ea99"),
    (["fgh", "dominate", "--alpha", "2", "--beta", "w"],
     "2559d5534a5012df3a1bc78df1e0d517a64828aeec65ad451bda5c79d47ad183"),
])
def test_fgh_stdout_is_frozen(capsys, argv, digest):
    # frozen while cli still imported hierarchy at module level
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["fgh", "eval", "--ordinal", "w^w^w^w^1", "--n", "2"],
     "d436e433b3c25b1eec525379f117f7f09d9bd4d87d3b100fd74a115a2b7a6374"),
    (["fgh", "eval", "--ordinal", "w^(w+1)*2+w^3+7", "--n", "3"],
     "9a6bb1890dda132933f630e63444b9ec7fd817a8be0db09dc58ff242c4f74137"),
    (["fgh", "eval", "--ordinal", "w^w", "--n", "5", "--cap-bits", "256"],
     "801e3043fe15e5fd90f759e241aa9a44b3814b6a7dd7028f1a06670da87cd584"),
    (["fgh", "dominate", "--alpha", "w^w", "--beta", "w^(w+1)", "--points", "0,1,2,3"],
     "290b109c9539326c7bd15968fc848c6e28c21fce5b98e415823a2b7d709b1cfa"),
])
def test_fgh_stdout_is_frozen_across_the_closed_form(capsys, argv, digest):
    # frozen while fgh_eval still took the limit rule's max over every k <= n
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest", [
    (["omega", "exact", "--L", "87", "--c-cap", "10"], 0,
     "18ce1b6a0af8421be6911504abb350a2dacf9d5a6e71defebd3d41be7d30d145"),
    (["omega", "lower", "--machine", "sd", "--L", "87", "--c-cap", "10", "--B", "10000"], 0,
     "10a5c32948d0710e6b64d2c6640fca1bd4eccabc1aca338c9e30cb4e9aa79c91"),
    (["fas", "ceiling", "--fas", "unsound", "--budget", "10000000"], 3,
     "809ebcf4534974d0ab07530ecf965a885f5e7ec6c6c73682f3e20fc200225e05"),
], ids=["omega-exact", "omega-lower-sd", "fas-ceiling-unsound"])
def test_frontier_stdout_is_frozen(capsys, argv, code, digest):
    # frozen while the evaluator still copied a guest list on every tail and cons
    got, out, err = run_cli(capsys, *argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fresh_env() -> dict:
    """The environment of a fresh python process that imports this omegalab."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(omegalab.__file__).parent.parent), os.environ.get("PYTHONPATH")])))


FRONTIER = [
    (["omega", "exact", "--L", "95", "--c-cap", "11"],
     "4537898f823ba26201bed97da936dd176e9e41d890db2cdd58767f33ef121820"),
    (["omega", "lower", "--machine", "sd", "--L", "95", "--c-cap", "11", "--B", "10000"],
     "5334c315f56fb76d530d118448990acb9a72e09a484abcf49973ba2c9f48dbd2"),
    # c2's CSV at L 20: 2^20 - 1 rule rows printed from 20 templates
    (["sweep", "--machine", "c2", "--L", "20", "--B", "10000", "--csv"],
     "7f5da551d4d84d58d21652f19aac593d966bd4899a3e5175b039729e9c082413"),
]


# the build against the listing sweep of tests/listing.py at L 95 and 11
# characters, with its record count: (machine, B, count)
LISTING_11 = [("sd", "10000", 122052), ("total", "structural", 64986)]


@pytest.fixture(scope="module")
def frontier_runs():
    """python -m omegalab.cli argv for each FRONTIER command, and python
    tests/listing.py for each LISTING_11 comparison, all started at once, by
    argv: (the process, its stdout file, its stderr file).  Each test waits
    for its own, so the commands run side by side, and each process's caches
    (about 240 MB of listed prefixes for sd's comparison) end with it.
    Files, not pipes, take the output, so no process waits for a reader."""
    runs = {}
    listing = str(Path(__file__).parent / "listing.py")
    with contextlib.ExitStack() as stack:
        for argv in [argv for argv, _ in FRONTIER] + [[listing, m, "95", B, "11"] for m, B, _ in LISTING_11]:
            out, err = stack.enter_context(tempfile.TemporaryFile()), stack.enter_context(tempfile.TemporaryFile())
            command = argv if argv[0] == listing else ["-m", "omegalab.cli", *argv]
            proc = stack.enter_context(subprocess.Popen([sys.executable, *command],
                                                        env=_fresh_env(), stdout=out, stderr=err))
            stack.callback(proc.kill)  # runs before the process's own exit waits for it
            runs[tuple(argv)] = proc, out, err
        yield runs


@pytest.mark.parametrize("argv, digest", FRONTIER, ids=["omega-exact-c11", "omega-lower-sd-c11", "sweep-c2-L20-csv"])
@pytest.mark.watchdog(60)  # a fresh process builds the frontier's caches anew
def test_frontier_stdout_in_a_fresh_process_is_frozen(frontier_runs, argv, digest):
    # frozen while the frontier's sweeps still generated every runnable prefix
    # and c2's CSV still had a printing walk of its own
    proc, out, err = frontier_runs[tuple(argv)]
    proc.wait()
    out.seek(0), err.seek(0)
    assert (proc.returncode, err.read()) == (0, b"")
    assert hashlib.sha256(out.read()).hexdigest() == digest


@pytest.mark.parametrize("k, digest", [
    (16, "b641ab68a21e56a1c6fe0011ba155b5d134fa40c29eb70fb786dd63fdeb55836"),
    (40, "8aa46e2d04233bef23f6237e9c33e5f0151a058b94713bea340bd6da7d3e2dd0"),
])
def test_omega_oracle_lists_no_counted_member_above_k(capsys, monkeypatch, k, digest):
    # frozen while the oracle still listed every member of every counted
    # record; now it lists only the ones of at most k bits
    from omegalab import complexity

    counted_records = complexity._counted_records
    listed = []

    def spy(n, alphabet):
        listed.append(8 * n)
        return counted_records(n, alphabet)

    monkeypatch.setattr(complexity, "_counted_records", spy)
    code, out, err = run_cli(capsys, "omega", "oracle", "--L", "79", "--c-cap", "9", "--k", str(k))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert all(size <= k for size in listed) and (k < 32 or listed)


def test_omega_oracle_lists_up_to_its_cap(capsys, monkeypatch):
    # total has 764 programs of at most 63 bits at c_cap 7: a cap of 764
    # lists them, one of 763 refuses before listing any
    from omegalab import omega

    argv = ("omega", "oracle", "--L", "63", "--c-cap", "7", "--k", "63")
    monkeypatch.setattr(omega, "ORACLE_LIST_CAP", 764)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and len(report(out)["halting_set"]) == 764
    monkeypatch.setattr(omega, "ORACLE_LIST_CAP", 763)
    monkeypatch.setattr(omega, "enumerate_halting", lambda *args: pytest.fail("listed"))
    assert run_cli(capsys, *argv) == (
        2, "", "omegalab: the oracle would list 764 programs of at most k=63 bits, over its cap of 763\n")


def test_omega_oracle_refuses_the_frontier_before_listing(capsys, monkeypatch):
    # total's programs of at most 87 bits at c_cap 10 are 12,540,808, about
    # 1.4 GB listed
    from omegalab import complexity, omega

    monkeypatch.setattr(omega, "enumerate_halting", lambda *args: pytest.fail("listed"))
    monkeypatch.setattr(complexity, "_counted_records", lambda *args: pytest.fail("listed"))
    start = time.monotonic()
    code, out, err = run_cli(capsys, "omega", "oracle", "--L", "87", "--c-cap", "10", "--k", "87")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == f"omegalab: the oracle would list 12540808 programs of at most k=87 bits, " \
                  f"over its cap of {omega.ORACLE_LIST_CAP}\n"


def test_a_sweep_runs_up_to_its_prefix_cap(capsys, monkeypatch, sweeps):
    # sd has 134 runnable prefixes of at most 7 characters: a cap of 134 builds
    # their runs, one of 133 refuses before the build starts
    from omegalab import complexity, omega

    argv = ("omega", "lower", "--machine", "sd", "--L", "63", "--c-cap", "7", "--B", "10000")
    monkeypatch.setattr(omega, "build_table", complexity.build_table.__wrapped__)  # bypass the memo
    monkeypatch.setattr(complexity, "SWEEP_PREFIX_CAP", 134)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and sweeps == [("sd", 63, 10000, 7)]
    monkeypatch.setattr(complexity, "SWEEP_PREFIX_CAP", 133)
    monkeypatch.setattr(complexity, "_store", {})
    monkeypatch.setattr(complexity, "_build", lambda *args: pytest.fail("built"))
    assert run_cli(capsys, *argv) == (
        2, "", "omegalab: the sd sweep would run 134 prefixes of at most 7 characters, over its cap of 133\n")


def test_a_sweep_refuses_sd_at_12_characters_before_listing(capsys, monkeypatch):
    # listing sd's 4,833,719 runnable prefixes of at most 12 characters ran
    # out of a 3 GB address space; the count refuses them before the build
    # starts
    from omegalab import complexity

    monkeypatch.setattr(complexity, "_build", lambda *args: pytest.fail("built"))
    start = time.monotonic()
    code, out, err = run_cli(capsys, "omega", "lower", "--machine", "sd", "--L", "103", "--c-cap", "12",
                             "--B", "10000")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == f"omegalab: the sd sweep would run 4833719 prefixes of at most 12 characters, " \
                  f"over its cap of {complexity.SWEEP_PREFIX_CAP}\n"


@pytest.mark.parametrize("argv", [
    # once usage errors (exit 2) for their values; now the flag is unknown
    ["sweep", "--machine", "total", "--L", "16", "--B", "structural", "--workers", "0"],
    ["sweep", "--machine", "total", "--L", "16", "--B", "structural", "--workers", "-3"],
    ["omega", "bits", "--L", "16", "--k", "4", "--workers", "0"],
    ["omega", "oracle", "--L", "16", "--k", "4", "--workers", "-1"],
    # and every command that once took it
    ["sweep", "--machine", "sd", "--L", "40", "--workers", "2"],
    ["sweep", "--machine", "c2", "--L", "14", "--workers", "2"],
    ["elegant", "--machine", "c2", "--L", "14", "--workers", "2"],
    ["complexity", "--machine", "c2", "--L", "14", "--target", "01", "--workers", "2"],
    ["prob", "--machine", "sd", "--L", "16", "--target", "0", "--workers", "2"],
    ["coding", "--machine", "sd", "--L", "16", "--workers", "2"],
    ["chain", "--machine", "sd", "--L", "16", "--pairs", "0:1", "--workers", "2"],
    ["omega", "lower", "--L", "40", "--workers", "1"],
    ["omega", "exact", "--L", "40", "--workers", "2"],
], ids=" ".join)
def test_the_workers_flag_is_refused(capsys, argv):
    # a sweep runs in one process; the flag that once split it is unknown
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: --workers {argv[-1]}" in captured.err


def test_a_config_file_with_workers_is_refused(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"workers": 2}))
    code, out, err = run_cli(capsys, "sweep", "--machine", "sd", "--L", "40", "--config", str(conf))
    assert (code, out) == (2, "") and f"unknown key 'workers' in config file {conf}" in err


@pytest.mark.parametrize("argv, digest", [
    (["sweep", "--machine", "c2", "--L", "14", "--B", "10000"],
     "3fc6c9ba52ced1208d3bd70ace24b8e1fbacc7a2d01037fa079eddc15a9c411f"),
    (["sweep", "--machine", "c2", "--L", "17", "--B", "0"],
     "58a32e01159e895b67d1db330e1895d9de3b3684a0d2a28677ee73b4c362e0a6"),
    (["elegant", "--machine", "c2", "--L", "14", "--B", "1", "--csv"],
     "5effa6c5daf00f0fa0c81333bac5a17b9997d5ffb93e16aaf71d2fd69f2c02af"),
    # the run record of () meets the leading-0 family: its output "" keeps h = 1
    (["sweep", "--machine", "c2", "--L", "17", "--B", "100"],
     "cb7313a9755828c847cd4e20d06ca4628a418bdde7fbbe83980c494d43183c50"),
    # and so in CSV, and at L 19, where its length 0 is printed entry by
    # entry and every other length under 19 by the rule
    (["sweep", "--machine", "c2", "--L", "17", "--B", "100", "--csv"],
     "c16e0f182e8988cf54ab45b9f5f273dbdcfdce156a2bb34eb45ffc51d8de7667"),
    (["sweep", "--machine", "c2", "--L", "19", "--B", "100"],
     "2fb02ae495604c749360a48cee34ec9facc974d98bab788011f682ef93ead84a"),
], ids=["sweep-L14", "sweep-L17-B0", "elegant-csv", "sweep-L17-B100", "sweep-L17-B100-csv", "sweep-L19-B100"])
def test_c2_stdout_is_frozen(capsys, argv, digest):
    # frozen while the c2 sweep still stored a record for every leading-0 program
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("cmd", [["sweep"], ["elegant"], ["complexity", "--target", "01"]])
def test_c2_table_commands_refuse_flags_c2_never_reads(capsys, cmd):
    code, out, err = run_cli(capsys, *cmd, "--machine", "c2", "--L", "14", "--c-cap", "3")
    assert (code, out) == (2, "") and err == f"omegalab: {cmd[0]} --machine c2 does not read --c-cap\n"


def test_c2_table_commands_accept_the_default_cap(capsys):
    # c2 does not read --c-cap: a non-default value is refused, the default still passes
    for cmd in (["sweep"], ["elegant"], ["complexity", "--target", "01"]):
        code, out, _ = run_cli(capsys, *cmd, "--machine", "c2", "--L", "2", "--B", "10", "--c-cap", "6")
        rep = json.loads(out)
        assert code == 0 and rep["config"]["c_cap"] == 6


@pytest.mark.parametrize("ordinal", ["w^w^w^w^w^1", "w^(" * 400 + "1" + ")" * 400])
def test_fgh_towers_too_tall_to_print_exit_2(capsys, ordinal):
    # f_alpha(2) is a tower of more than 2^65536 twos, whose height has more
    # digits than a report int may have; refused before any such power is built
    code, out, err = run_cli(capsys, "fgh", "eval", "--ordinal", ordinal, "--n", "2")
    assert (code, out) == (2, "") and err.startswith("omegalab:")


def test_fgh_help_and_bad_ordinal_are_frozen(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["fgh", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out == _FGH_HELP
    assert run_cli(capsys, "fgh", "eval", "--ordinal", "w+", "--n", "2") == (
        2, "", "omegalab: expected term at index 2\n")


def test_fgh_cap_bits_defaults_to_the_hierarchy_cap(capsys):
    from omegalab.hierarchy import DEFAULT_CAP_BITS

    assert DEFAULT_CAP_BITS == 1048576
    code, out, _ = run_cli(capsys, "fgh", "eval", "--ordinal", "1", "--n", "2")
    rep = json.loads(out)
    assert code == 0 and rep["config"]["cap_bits"] == rep["result"]["cap_bits"] == DEFAULT_CAP_BITS


def _id(param):
    return " ".join(param) if isinstance(param, list) else param


# a flag its action never reads would otherwise be echoed in the config as if
# it shaped the report
UNREAD = [
    (["fas", "berry", "--fas", "sound"], "--budget", "5"),
    (["fas", "theorems", "--fas", "sound"], "--L", "7"),
    (["fas", "berry", "--fas", "sound"], "--L", "7"),
    (["fas", "ceiling", "--fas", "sound"], "--L", "7"),
    (["fgh", "eval", "--ordinal", "w", "--n", "2"], "--alpha", "w"),
    (["fgh", "eval", "--ordinal", "w", "--n", "2"], "--beta", "w+1"),
    (["fgh", "eval", "--ordinal", "w", "--n", "2"], "--points", "1,2"),
    (["fgh", "dominate", "--alpha", "w", "--beta", "w+1"], "--ordinal", "w"),
    (["fgh", "dominate", "--alpha", "w", "--beta", "w+1"], "--n", "2"),
]


@pytest.mark.parametrize("argv, flag, value", UNREAD, ids=_id)
def test_a_flag_the_action_never_reads_exits_2(tmp_path, capsys, argv, flag, value):
    text = f"omegalab: {argv[0]} {argv[1]} does not read {flag}\n"
    assert run_cli(capsys, *argv, flag, value) == (2, "", text)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({flag[2:]: value}))
    assert run_cli(capsys, *argv, "--config", str(conf)) == (2, "", text)


@pytest.mark.parametrize("argv, flag, value", [
    (["fas", "berry", "--fas", "sound"], "--budget", "1000000"),
    (["fgh", "eval", "--ordinal", "w", "--n", "2"], "--points", "1,2,3"),
], ids=["fas-budget", "fgh-points"])
def test_an_unread_flag_at_its_default_is_accepted(tmp_path, capsys, argv, flag, value):
    # a default counts as not given: the report, config echo included, is unchanged
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, flag, value) == (0, out, "")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({flag[2:]: value}))
    assert run_cli(capsys, *argv, "--config", str(conf)) == (0, out, "")


@pytest.mark.parametrize("argv, text", [
    (["omega", "bits", "--L", "16"], "omega bits needs --k"),
    (["run", "--machine", "c2", "--budget", "5"], "run --machine c2 needs --raw"),
    (["run", "--machine", "sd", "--payload", "1"], "run --machine sd needs --prefix"),
    (["run", "--machine", "total"], "run --machine total needs --prefix"),
    (["fgh", "eval", "--n", "2"], "fgh eval needs --ordinal"),
    (["fgh", "eval", "--ordinal", "w"], "fgh eval needs --n"),
    (["fgh", "dominate", "--beta", "w"], "fgh dominate needs --alpha"),
    (["fgh", "dominate", "--alpha", "w"], "fgh dominate needs --beta"),
], ids=_id)
def test_a_flag_the_action_needs_exits_2_when_missing(capsys, argv, text):
    assert run_cli(capsys, *argv) == (2, "", f"omegalab: {text}\n")


def _malformed(flags):
    """Each reads/needs of flags whose dest no earlier flag declares, or
    whose values are not all among that flag's choices."""
    choices, bad = {}, []
    for name, kw in flags:
        for rule in ("reads", "needs"):
            if rule in kw:
                on, values = kw[rule]
                if on not in choices or not set(values.split()) <= set(choices[on]):
                    bad.append((name, rule))
        choices[name.lstrip("-").replace("-", "_")] = kw.get("choices", ())
    return bad


def test_reads_and_needs_name_an_earlier_flag_and_its_choices():
    from omegalab.cli import COMMANDS

    assert {name: _malformed(flags) for name, (_, _, flags) in COMMANDS.items()} == {
        name: [] for name in COMMANDS}
    # a typo in one declared value is caught
    flags = [(name, dict(kw, reads=("action", "bits orcale")) if name == "--k" else kw)
             for name, kw in COMMANDS["omega"][2]]
    assert _malformed(flags) == [("--k", "reads")]
    # so is a dest declared after the flag that reads it
    assert _malformed(COMMANDS["run"][2][1:] + COMMANDS["run"][2][:1]) == [
        ("--raw", "reads"), ("--raw", "needs"), ("--prefix", "reads"), ("--prefix", "needs"),
        ("--payload", "reads"), ("--aux", "reads")]


# one plain command line per command, as _plain_args reads it (no argparse)
PLAIN = [
    ["bits", "kraft", "--set", "0,10,110"],
    ["sexpr", "encode", "--text", "(q(01))"],
    ["run", "--machine", "sd", "--prefix", "(r)", "--payload", "1"],
    ["sweep", "--machine", "total", "--L", "40", "--B", "structural", "--csv"],
    ["complexity", "--machine", "c2", "--target", "101", "--L", "4", "--B", "100"],
    ["elegant", "--machine", "total", "--L", "33", "--B", "structural"],
    ["prob", "--machine", "sd", "--target", "", "--L", "24"],
    ["coding", "--machine", "sd", "--L", "24", "--B", "10000"],
    ["chain", "--machine", "sd", "--pairs", "0:1;:", "--L", "96", "--B", "10000"],
    ["omega", "lower", "--machine", "sd", "--L", "63", "--c-cap", "7", "--B", "10000"],
    ["normality", "--x", "01010101", "--k", "1", "--tol", "0.1"],
    ["fas", "berry", "--fas", "sound"],
    ["fgh", "eval", "--ordinal", "w+1", "--n", "1"],
    ["diag", "--n", "2"],
]


@pytest.fixture
def collector():
    """The cyclic collector's state, enabled and frozen count, put back after
    the test, whatever it did."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    yield
    if gc.get_freeze_count() != frozen:  # frozen objects cannot be put back one by one
        gc.unfreeze()
    gc.enable() if enabled else gc.disable()


def test_the_plain_lines_cover_every_command_once():
    from omegalab.cli import COMMANDS, _plain_args

    assert [argv[0] for argv in PLAIN] == list(COMMANDS)
    assert all(_plain_args(argv) is not None for argv in PLAIN)


@pytest.mark.parametrize("argv", PLAIN, ids=lambda argv: argv[0])
def test_a_plain_command_leaves_no_cyclic_garbage(capsys, collector, sweeps, argv):
    # with the collector off throughout, so nothing is collected early:
    # reference counting alone frees what the command made, which is why
    # main may pause the collector
    gc.disable()
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0


def test_the_cyclic_garbage_of_a_command_is_collected_after_it():
    # argparse leaves cycles (--flag=value goes to it): in a fresh process
    # with the collector off, none of them is left frozen, neither after a
    # first command nor after a sweep, and one collection after main frees
    # them all (Python 3.12 starts with a few objects frozen)
    code = """if True:
        import contextlib, gc, io, sys
        from omegalab.cli import main
        gc.disable()
        frozen = gc.get_freeze_count()
        for argv in (["bits", "kraft", "--set=0,10,110"],
                     ["omega", "lower", "--machine=sd", "--L", "63", "--c-cap", "7", "--B", "10000"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            print(gc.get_freeze_count() - frozen, gc.collect() > 0, gc.collect())
    """
    done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "0 True 0\n" * 2)


@pytest.mark.parametrize("argv, code", [
    (["bits", "kraft", "--set", "0,10,110"], 0),
    (["run"], 1),  # argparse exits
    (["sexpr", "parse", "--text", "(a"], 2),
    (["fas", "omegabits", "--fas", "omega8-flipped", "--budget", "1000"], 3),
    (["bits", "kraft", "--set", "0"], RuntimeError),
], ids=["exit-0", "exit-1", "exit-2", "exit-3", "exception"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collector, argv, code, enabled, frozen):
    from omegalab import cli

    dispatch, paused = cli._dispatch, []

    def recording_dispatch(args):
        paused.append((gc.isenabled(), gc.get_freeze_count() > 0))
        if code is RuntimeError:
            raise RuntimeError("escapes main")
        return dispatch(args)

    monkeypatch.setattr(cli, "_dispatch", recording_dispatch)
    if frozen:
        gc.freeze()
    gc.enable() if enabled else gc.disable()
    state = gc.isenabled(), gc.get_freeze_count()
    if code in (0, 2, 3):
        assert main(argv) == code
    else:
        with pytest.raises(SystemExit if code == 1 else code):
            main(argv)
    assert (gc.isenabled(), gc.get_freeze_count()) == state
    assert paused == ([] if code == 1 else [(False, True)])


def test_no_collection_starts_inside_a_command(capsys, monkeypatch, collector, sweeps):
    # at a gen-0 threshold of 1, any GC-tracked object the command made would
    # start a collection if the collector ran
    from omegalab import cli

    run, starts = cli._main, []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def hooked(argv):
        gc.callbacks.append(hook)
        try:
            return run(argv)
        finally:
            gc.callbacks.remove(hook)

    monkeypatch.setattr(cli, "_main", hooked)
    threshold = gc.get_threshold()
    gc.enable()
    gc.set_threshold(1)
    try:
        code = main(["omega", "lower", "--machine", "sd", "--L", "63", "--c-cap", "7", "--B", "10000"])
    finally:
        gc.set_threshold(*threshold)
    assert (code, starts) == (0, [])


@pytest.mark.parametrize("machine, B, count", LISTING_11, ids=["sd", "total"])
@pytest.mark.watchdog(60)
def test_the_build_equals_the_listing_sweep_at_11_characters(frontier_runs, machine, B, count):
    # every field of every record; test_complexity compares them at 9 and 10
    # characters and at several budgets.  Last in the module, so the listing
    # (about 4 s for sd), started with the frontier commands, runs beside
    # the module's other tests
    proc, out, err = frontier_runs[(str(Path(__file__).parent / "listing.py"), machine, "95", B, "11")]
    proc.wait()
    out.seek(0), err.seek(0)
    assert (proc.returncode, err.read(), out.read()) == (0, b"", f"{count} True\n".encode())
