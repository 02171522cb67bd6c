"""Report serialization: emit_json prints exactly as json.dumps(indent=2)."""

import copy
import csv
import hashlib
import io
import itertools
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from omegalab import complexity, reports
from omegalab.bits import Dyadic
from omegalab.cli import main
from omegalab.complexity import STRUCTURAL, Ensemble, HaltRecord, TableEntry, build_table
from omegalab.machines import Program
from omegalab.sexpr import to_bits
from omegalab.vm import HALTED, RunOutcome
from omegalab.reports import Family, Rows, emit_json, table_report, table_rows

_text = st.text(st.sampled_from("ab\"\\\n\t\x00\x1f\x7fé☃\U0001f600{}[],:"), max_size=6)
_scalars = (st.none() | st.booleans() | st.integers(min_value=-2**70, max_value=2**70)
            | st.floats() | _text)
_keys = _text | st.none() | st.booleans() | st.integers(min_value=-2**70, max_value=2**70)
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=20,
)
_rows = st.lists(st.dictionaries(_keys, _scalars, min_size=1, max_size=4), min_size=1, max_size=4)
# rows that all have one key tuple, in one order: text keys, or keys of any kind
_table = (st.lists(_text, min_size=1, max_size=4, unique=True)
          | st.dictionaries(_keys, st.none(), min_size=1, max_size=4).map(list)).flatmap(
    lambda keys: st.lists(st.tuples(*[_scalars] * len(keys)).map(lambda vs: dict(zip(keys, vs))),
                          min_size=1, max_size=6))
# a Rows: distinct text column names, and a tuple of scalars per row
_text_rows = st.lists(_text, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.tuples(*[_scalars] * len(keys)), max_size=6).map(lambda vs: (tuple(keys), vs)))


def _nested(rows, depth: int):
    """rows wrapped depth times in a list or dict, beside other values."""
    for _ in range(depth):
        rows = (st.lists(rows | _scalars, min_size=1, max_size=3)
                | st.dictionaries(_keys, rows | _scalars, min_size=1, max_size=3))
    return rows


@settings(max_examples=300, deadline=None)
@given(_values)
def test_emit_json_is_json_dumps_indent_2(value):
    assert emit_json(value) == json.dumps(value, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(lambda depth: _nested(_rows, depth)))
def test_emit_json_row_lists_are_json_dumps_indent_2(value):
    # lists of dicts print through the general path, whatever their keys
    assert emit_json(value) == json.dumps(value, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(lambda depth: _nested(_table, depth)))
def test_emit_json_tables_are_json_dumps_indent_2(value):
    # lists of dicts that share one key order print through the general path
    assert emit_json(value) == json.dumps(value, indent=2) + "\n"


def _wrapped(value, depth: int):
    for _ in range(depth):
        value = {"entries": [value, 1]}
    return value


@settings(max_examples=300, deadline=None)
@given(_text_rows, st.integers(min_value=0, max_value=3))
def test_emit_json_rows_are_json_dumps_of_their_dicts(table, depth):
    # a Rows prints as blocks of values between the columns' text, each
    # column name encoded once, from a list or from a generator alike
    columns, values = table
    expected = json.dumps(_wrapped([dict(zip(columns, v)) for v in values], depth), indent=2) + "\n"
    assert emit_json(_wrapped(Rows(columns, values), depth)) == expected
    assert emit_json(_wrapped(Rows(columns, iter(values)), depth)) == expected


def _wide_rows(n: int) -> list:
    return [{"output": format(i, "b"), "kind": "bits" if i % 2 else "pair", "h_upper": i,
             "witness": "0" * (i % 7) + "\n\"}", "minimal_count": i % 3 == 0,
             "prob": None if i % 5 else (float("nan"), -float("inf"), 2**70, i / 3)[i % 5 - 1]}
            for i in range(n)]


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_emit_json_table_block_edges(n):
    rows = _wide_rows(n)
    for value in (rows, {"result": {"entries": rows}}, [[rows, 1]]):
        assert emit_json(value) == json.dumps(value, indent=2) + "\n"


def _as_rows(rows: list, values=iter) -> Rows:
    """rows (dicts with one key order) as a Rows whose values come from values."""
    return Rows(tuple(rows[0]), values([tuple(r.values()) for r in rows])) if rows else Rows(("output",), [])


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_emit_json_lazy_rows_print_as_the_rows_listed(n):
    rows = _wide_rows(n)
    for wrap in (lambda v: v, lambda v: {"result": {"entries": v}}, lambda v: [[v, 1]]):
        for values in (iter, list):
            assert emit_json(wrap(_as_rows(rows, values))) == json.dumps(wrap(rows), indent=2) + "\n"


class _Row(tuple):
    pass


_BREAKS = [lambda row: row[:-1], lambda row: row + (0,), lambda row: (*row[:3], ["0"], *row[4:]), _Row,
           list, lambda row: 0]
_BREAK_IDS = ["short-tuple", "long-tuple", "list-value", "tuple-subclass", "list-row", "not-a-tuple"]


@pytest.mark.parametrize("at", [0, 1, 1500])
@pytest.mark.parametrize("change", _BREAKS, ids=_BREAK_IDS)
def test_emit_json_lazy_row_that_breaks_the_rows_raises(change, at):
    # a Rows' values may be read only once, so they cannot fall back to the
    # general path: a row that is not a tuple of one exact scalar per column
    # raises instead
    rows = _as_rows(_wide_rows(2049), list)
    rows.values[at] = change(rows.values[at])
    for values in (iter, list):
        with pytest.raises(ValueError, match="is not a tuple of 6 exact scalars"):
            emit_json({"entries": Rows(rows.columns, values(rows.values))})


def _expand(values):
    """values with each Family as the tuples it stands for, made one at a time."""
    for v in values:
        if type(v) is Family:
            for r in map("".join, itertools.product("01", repeat=v.n)):
                yield tuple(x.replace("\0", r) if type(x) is str else x for x in v.row)
        else:
            yield v


def _c2_l12_sweep_fails(capsys, monkeypatch, change_values) -> None:
    # JSON and CSV alike, the text is joined only once the whole table is
    # printed, so stdout gets no bytes of a report that fails past its first block
    table_rows = reports.table_rows

    def broken(table):
        rows = table_rows(table)
        return rows._replace(values=change_values(rows.values))

    monkeypatch.setattr(reports, "table_rows", broken)
    for fmt in ([], ["--csv"]):
        assert main(["sweep", "--machine", "c2", "--L", "12", "--B", "1", *fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("omegalab: a row of columns ('output', 'kind',")


@pytest.mark.parametrize("change", _BREAKS, ids=_BREAK_IDS)
def test_sweep_whose_lazy_row_breaks_prints_nothing(capsys, monkeypatch, change):
    # the c2 table's families listed as their rows, the 1,501st broken
    _c2_l12_sweep_fails(capsys, monkeypatch, lambda values: (
        change(row) if i == 1500 else row for i, row in enumerate(_expand(values))))


@pytest.mark.parametrize("change", _BREAKS, ids=_BREAK_IDS)
def test_sweep_whose_family_template_breaks_prints_nothing(capsys, monkeypatch, change):
    # the template of the last family, 11-bit outputs after 2,047 rows, broken
    def change_values(values):
        values = list(values)
        assert [v.n for v in values] == list(range(12))  # no program runs below 17 bits
        return (v._replace(row=change(v.row)) if type(v) is Family and v.n == 11 else v for v in values)

    _c2_l12_sweep_fails(capsys, monkeypatch, change_values)


_FAMILY_COLUMNS = ("output", "kind", "h_upper", "witness", "minimal_count", "prob")
_TEMPLATE = ("\0", "bits", 3, "0\0|\0\"", None, "")  # two NULs in one value, a third in another


def _with_families(at: str) -> list:
    """Families of n = 0, 1 and 10 first, in the middle or last among 1,500
    tuple rows (past a block of 1,024), or between them."""
    families = [Family(n, _TEMPLATE) for n in (0, 1, 10)]
    rows = [tuple(r.values()) for r in _wide_rows(1500)]
    return {"first": families + rows, "middle": rows[:700] + families + rows[700:], "last": rows + families,
            "between": [families[0], *rows[:2], families[1], *rows[2:], families[2]]}[at]


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("at", ["first", "middle", "last", "between"])
def test_family_prints_as_the_rows_it_stands_for(depth, at):
    values = _with_families(at)
    rows = [dict(zip(_FAMILY_COLUMNS, v)) for v in _expand(values)]
    assert len(rows) == 1500 + 1 + 2 + 1024
    expected = json.dumps(_wrapped(rows, depth), indent=2) + "\n"
    for read in (iter, list):
        assert emit_json(_wrapped(Rows(_FAMILY_COLUMNS, read(values)), depth)) == expected


@pytest.mark.parametrize("at", ["first", "middle", "last", "between"])
def test_family_csv_is_the_csv_of_the_rows_it_stands_for(at):
    values = _with_families(at)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_FAMILY_COLUMNS, *_expand(values)])
    assert reports.emit_csv(Rows(_FAMILY_COLUMNS, iter(values))) == buf.getvalue()


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("template", [_TEMPLATE, ("x\\\0\\", "\0\0", 7, None, True, "")],
                         ids=["three-nuls", "backslashes-beside-nuls"])
def test_family_past_a_block_prints_as_the_rows_it_stands_for(template, n):
    # the text of 1,024 rows joined by each of the 2^(n - 10) leading (n - 10)-bit strings
    family = Family(n, template)
    expected = list(_expand([family]))
    for depth in (0, 2):
        assert emit_json(_wrapped(Rows(_FAMILY_COLUMNS, [family]), depth)) == json.dumps(
            _wrapped([dict(zip(_FAMILY_COLUMNS, v)) for v in expected], depth), indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_FAMILY_COLUMNS, *expected])
    assert reports.emit_csv(Rows(_FAMILY_COLUMNS, [family])) == buf.getvalue()


@pytest.mark.parametrize("n", [4, 9, 10, 11, 13])
@pytest.mark.parametrize("template", [
    ("x", "bits", 3, "0", 1, ""),
    ("\0", "bits", 2, "0", None, "1/2"),
    ("\0", "bits", 5, "0\0", 1, ""),
    ("a\0", "pair", 3, "\0|\0\"", True, "\0"),
], ids=["no-nul", "one-nul-first", "two-nuls-first", "three-nuls-last"])
def test_family_block_prints_as_the_rows_it_stands_for(template, n):
    # a block built from the row's pieces (2^(n // 2) rows in JSON, up to
    # 1,024 in CSV) under each string of the other leading bits, between
    # tuple rows; a first value that starts with a NUL leaves CSV an empty
    # first piece
    rows = Rows(_FAMILY_COLUMNS, [("y", "bits", 0, "", 0, ""), Family(n, template), ("z", "pair", 1, "1", 2, "")])
    expected = list(_expand(rows.values))
    assert emit_json({"entries": rows}) == json.dumps(
        {"entries": [dict(zip(_FAMILY_COLUMNS, v)) for v in expected]}, indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_FAMILY_COLUMNS, *expected])
    assert reports.emit_csv(rows) == buf.getvalue()


def test_c2_json_text_is_copied_once():
    # a Family's rows are laid out in emit_json's pieces by reference, so its
    # one join is the only full-size copy of the text
    report = table_report(build_table(Ensemble("c2", 17, 1)))
    tracemalloc.start()
    try:
        text = emit_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text)


@settings(max_examples=300, deadline=None)
@given(_text_rows, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2))
def test_emit_json_families_are_json_dumps_of_their_rows(table, n, depth):
    # each row also as a family: its NULs (any text holds some) and the
    # escapes of names and values around them
    columns, values = table
    values = [v for row in values for v in (row, Family(n, row))]
    expected = [dict(zip(columns, v)) for v in _expand(values)]
    assert emit_json(_wrapped(Rows(columns, iter(values)), depth)) == json.dumps(
        _wrapped(expected, depth), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(_text_rows, st.integers(min_value=0, max_value=3))
def test_emit_csv_families_are_the_csv_of_their_rows(table, n):
    columns, values = table
    values = [v for row in values for v in (row, Family(n, row))]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *_expand(values)])
    assert reports.emit_csv(Rows(columns, iter(values))) == buf.getvalue()


@pytest.mark.parametrize("columns, family", [
    (("a\0", "b"), Family(2, ("\0", 1))),  # a name's NUL is not a row's
    (("a", "b"), Family(2, ("\\u0000\0", "\\\0"))),  # text that prints as a NUL does in JSON
    (("a", "b"), Family(2, ("\uf8ff\0", 1))),  # the character that stands for a NUL in CSV
    (("a",), Family(0, ("\0",))),  # an empty field alone on a CSV line is quoted
], ids=["nul-in-name", "escaped-nul-in-value", "csv-mark-in-value", "empty-field-alone"])
def test_family_whose_text_holds_its_mark_prints_as_its_rows(columns, family):
    expected = list(_expand([family]))
    assert emit_json({"entries": Rows(columns, [family])}) == json.dumps(
        {"entries": [dict(zip(columns, v)) for v in expected]}, indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *expected])
    assert reports.emit_csv(Rows(columns, [family])) == buf.getvalue()


@pytest.mark.parametrize("B", [0, 1])
def test_c2_table_rows_hold_a_family_per_rule_length(B):
    # 2^20 - 1 rows, one Family per length, none made for each leading-0
    # output; where no 0r halts, the leading-1 program's row alone
    values = list(table_rows(build_table(Ensemble("c2", 20, B))).values)
    if B:
        assert values == [Family(n, ("\0", "bits", n + 1, "0\0", 1, "")) for n in range(20)]
    else:
        assert values == [("", "bits", 17, "1" + to_bits(()), 1, "")]


@pytest.mark.parametrize("change", [
    lambda row: dict(reversed(row.items())),
    lambda row: {**row, "extra": 0},
    lambda row: {**row, "witness": ["0"]},
    type("_DictRow", (dict,), {}),
    lambda row: {**row, "h_upper": True},
], ids=["key-order", "extra-key", "list-value", "dict-subclass", "bool-in-int-column"])
def test_emit_json_table_row_past_the_first_block(change):
    # a list of dicts prints through the general path, whatever a row past
    # the first 1,024 holds
    rows = _wide_rows(2049)
    rows[1500] = change(rows[1500])
    value = {"entries": rows}
    assert emit_json(value) == json.dumps(value, indent=2) + "\n"


def test_emit_json_edge_cases():
    for value in ({}, [], (), {"a": {}, "b": [[], ()]}, [{}, {"x": []}], {1: None, None: 1.5, True: "é"},
                  {"n": 2**64 + 1, "f": float("nan"), "g": -float("inf")}, [[[{"k": [1]}]]],
                  # lists of dicts that are not all nonempty dicts of scalars
                  [{}, {"a": 1}], [{"a": 1}, {}], [{"a": []}], [{"a": 1}, 2], ({"a": 1}, {"b": 2}),
                  # text that looks like a row boundary
                  [{"a": "},\n      {"}, {"b": "}"}], [{"}, {": "}"}, {"}": 1}],
                  # keys equal as dict keys that json prints apart, and rows
                  # whose keys all run as one key order repeated
                  [{1: 0}, {True: 0}, {1.0: 0}], [{0.0: 1}, {-0.0: 1}],
                  [{"a": 1, "b": 2}, {"a": 1}, {"b": 2, "a": 3}], [{"a": 1}, {"a": 1, "b": 2}]):
        assert emit_json(value) == json.dumps(value, indent=2) + "\n"


_REPORT = {"schema": "s", "n": 3, "ok": True, "none": None, "f": 0.5, "nan": float("nan"), 7: "seven",
           "nested": {"list": [1, "a", None, [], {}], "dicts": [{"k": 1.5}, {"k": [2, {"deep": "é\n"}]}], None: False}}
_ROWS = [(1, "x"), (None, 2.5)]


def test_emit_json_builds_no_encoder_at_a_depth_it_printed(encoders_built):
    # each C encoder is built once, at import or at a depth's first print:
    # str and other keys, scalars, flat and nested containers and a Rows
    # cost no new one
    report = dict(_REPORT, rows=Rows(("a", "b"), _ROWS))
    listed = dict(_REPORT, rows=[{"a": a, "b": b} for a, b in _ROWS])
    want = json.dumps(listed, indent=2) + "\n"
    assert emit_json(report) == want
    encoders_built.clear()
    assert emit_json(report) == emit_json(listed) == want
    assert encoders_built == []


@pytest.mark.parametrize("value", [
    {"a": 1, "b": {1}},  # a set among a dict's scalars
    {"rows": [[1, "x"], [2, {3}]]},  # a set in a row
    {"a": {"b": 1, (1, 2): 0}},  # a tuple key in a dict of scalars
    {"a": {(1, 2): [1]}},  # a tuple key in a nested dict
], ids=["set-in-dict", "set-in-row", "tuple-key-flat", "tuple-key-nested"])
def test_emit_json_refuses_what_json_cannot_encode_and_keeps_no_state(value):
    with pytest.raises(TypeError) as got:
        emit_json(value)
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    assert str(got.value) == str(want.value)
    for report in (dict(_REPORT, rows=[list(row) for row in _ROWS]), {"a": {"b": 1, "c": [1, {"d": {}}]}}):
        assert emit_json(report) == json.dumps(report, indent=2) + "\n"


# tables with bit and pair rows: quoting a pair takes 9 characters
_PAIRED_TABLES = [Ensemble("total", 80, STRUCTURAL, 10), Ensemble("sd", 80, 10**4, 10)]


@pytest.mark.parametrize("ens", _PAIRED_TABLES, ids=["total-L80", "sd-L80"])
def test_tables_iterate_in_report_order_and_rows_follow_them(monkeypatch, ens):
    # the report's order belongs to build_table: bit outputs by (length,
    # output), pairs by (total length, output), whatever order the records
    # come in; table_rows keeps the table's
    table = build_table(ens)
    bits, pairs = list(table.entries), list(table.pair_entries)
    assert bits and pairs
    assert bits == sorted(bits, key=lambda k: (len(k), k))
    assert pairs == sorted(pairs, key=lambda k: (len(k[0]) + len(k[1]), k))
    records = complexity.explicit_records(ens)
    monkeypatch.setattr(complexity, "explicit_records", lambda ens: records[::-1])
    reversed_table = build_table.__wrapped__(ens)
    assert (list(reversed_table.entries), list(reversed_table.pair_entries)) == (bits, pairs)
    rows = table_rows(table)
    rows = [dict(zip(rows.columns, v)) for v in rows.values]
    assert [(r["kind"], r["output"]) for r in rows] == ([("bits", k) for k in bits]
                                                        + [("pair", "|".join(k)) for k in pairs])
    for row, e in zip(rows, [*table.entries.values(), *table.pair_entries.values()]):
        assert row == {"output": row["output"], "kind": row["kind"], "h_upper": e.h_upper,
                       "witness": e.witness, "minimal_count": e.minimal_count, "prob": str(e.prob)}


@pytest.mark.parametrize("argv", [
    [command, "--machine", machine, *flags] for machine, flags in (
        ("c2", ["--L", "14"]), ("total", ["--L", "80", "--B", "structural", "--c-cap", "10"]))
    for command in ("sweep", "elegant")] + [
    ["coding", "--machine", "total", "--L", "80", "--B", "structural", "--c-cap", "10"]])
def test_table_columns_are_stated_once_for_json_and_csv(capsys, argv):
    # the --csv header is every JSON row's keys, in order, and each CSV line
    # is its JSON row's values as text, null as an empty field
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["entries"]
    assert main(argv + ["--csv"]) == 0
    header, *lines = csv.reader(capsys.readouterr().out.splitlines())
    assert rows and all(list(row) == header for row in rows)
    assert lines == [["" if v is None else str(v) for v in row.values()] for row in rows]
    if argv[0] == "sweep" and argv[2] == "total":
        assert {row["kind"] for row in rows} == {"bits", "pair"}


def test_records_and_entries_are_immutable():
    # the sweep store and build_table's memo share them between callers
    rec = HaltRecord("0", "", None, 1, 1)
    assert rec.aux_read == ""
    entry = TableEntry("", 16, "0" * 16, 1, None)
    table = build_table(Ensemble("total", 24, STRUCTURAL))
    for obj, attr in ((rec, "steps"), (rec, "aux_read"), (entry, "h_upper"), (entry, "prob"),
                      (table, "mass"), (Dyadic(1, 1), "num"), (Program(("r",)), "payload"),
                      (Ensemble("sd", 40, 100), "L"), (RunOutcome(HALTED), "steps")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)


def test_checked_records_check_every_construction():
    # Dyadic, Program and Ensemble check (and Dyadic reduces) in __new__,
    # which copies and unpickling pass through too
    assert Dyadic(12, 5) == Dyadic(3, 3) and repr(Dyadic(12, 5)) == "Dyadic(num=3, exp=3)"
    assert copy.copy(Dyadic(12, 5)) == pickle.loads(pickle.dumps(Dyadic(12, 5))) == Dyadic(3, 3)
    assert repr(Program(("q", "0"))) == "Program(prefix=('q', '0'), payload='')"
    assert repr(Ensemble("sd", 40, 100)) == "Ensemble(machine='sd', L=40, B=100, c_cap=6)"
    for bad in (lambda: Dyadic(-1, 0), lambda: Dyadic(1, -1), lambda: Program("q"),
                lambda: Ensemble("sd", -1, 100), lambda: Ensemble("sd", 40, STRUCTURAL),
                lambda: Ensemble("c2", 40, 1), lambda: Ensemble("sd", 40, 100, c_cap=-1)):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(TypeError):  # a sweep runs in one process
        Ensemble("sd", 40, 100, workers=4)


@pytest.mark.parametrize("argv, size, digest", [
    (["sweep", "--machine", "c2", "--L", "14", "--B", "10000"], 2965205,
     "3fc6c9ba52ced1208d3bd70ace24b8e1fbacc7a2d01037fa079eddc15a9c411f"),
    (["sweep", "--machine", "c2", "--L", "17", "--B", "0"], None,
     "58a32e01159e895b67d1db330e1895d9de3b3684a0d2a28677ee73b4c362e0a6"),
    (["sweep", "--machine", "c2", "--L", "17", "--B", "1", "--csv"], None,
     "c16e0f182e8988cf54ab45b9f5f273dbdcfdce156a2bb34eb45ffc51d8de7667"),
])
def test_c2_sweep_stdout_is_frozen(capsys, argv, size, digest):
    # frozen from the raw-scan c2 sweep and json.dumps(indent=2) itself
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert size is None or len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["sweep", "--machine", "sd", "--L", "40", "--B", "10000"],
     "d3ad62f079883589681d42ec9532a8d27ffe96624121f43090b0ec6ee6acafa7"),
    (["coding", "--machine", "sd", "--L", "40", "--B", "10000"],
     "b6ff28295915e393ae527354226165f05f01c05f2d635efcc9e6ffd58a787bb7"),
    (["chain", "--machine", "sd", "--pairs", ":;:1;0:;0:1", "--L", "96", "--B", "10000", "--c-cap", "5"],
     "8290eff34f9bce632989d574ff02942860581ccacd575853d00c9e784dea4979"),
    # the benchmark's seed-1 chain command, whose 2-bit x is skipped
    (["chain", "--machine", "sd", "--pairs", ":;:1;0:;0:0;00:;00:1", "--L", "96", "--B", "10000", "--c-cap", "5"],
     "a465935849c92f2e0fd0484dd311c8fddeb62aefcef8eb9719f1b10cb1eca3dd"),
    # machine total refuses the composer, which holds l and y: composed_verified
    # is false on all four pairs
    (["chain", "--machine", "total", "--pairs", ":;:1;0:;0:0", "--L", "96", "--B", "structural", "--c-cap", "5"],
     "c06ae516ab3003c669553d549ac09c9dff9bd28ba8e6f2dd986e593e3e91f815"),
    (["elegant", "--machine", "total", "--L", "40", "--B", "structural", "--csv"],
     "29346268f02f041f656029a4ff302a0cd64c804d017b41638452cebe29d2cfe6"),
    (["sweep", "--machine", "total", "--L", "80", "--c-cap", "10", "--B", "structural"],
     "da6a8143cdfae434b33ac696dd61b1fbdc5bbb3eb71a69667ab798add48216ce"),
    # the one CSV with pair rows (69 lines), and coding's own columns
    (["sweep", "--machine", "total", "--L", "80", "--B", "structural", "--c-cap", "10", "--csv"],
     "e1d173f7b24c9a78c82377d7040ea96e78680f5ecad212f408a87447980946b0"),
    (["coding", "--machine", "total", "--L", "80", "--B", "structural", "--c-cap", "10", "--csv"],
     "2e979570e0aa6d9ceb0f4ed55a4c396a02717a6f8df056803b73f3b8dde7931b"),
    (["coding", "--machine", "total", "--L", "80", "--B", "structural", "--c-cap", "10"],
     "e2c017bc59454ffe06bd98d7c6824065d8a21efbf34d42662c2d7270013bb11a"),
])
def test_report_stdout_is_frozen(capsys, argv, digest):
    # frozen from the reports as json.dumps(indent=2) and csv printed them
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["omega", "exact", "--L", "71", "--c-cap", "8"],
     "42dcaa4f799b480e1349a876d8ccce266310fdcbb04c7dfe5d94134b2bc2f1f8"),
    (["omega", "lower", "--machine", "sd", "--L", "71", "--c-cap", "8"],
     "e6aa4ddbdf8c0bea74e9a55fd91fa8c092b3debdf77ce3a3739c3e890229d179"),
    (["omega", "exact", "--L", "79", "--c-cap", "9"],
     "542d2cf3b426b8ec47d7f3f4f50304f60dcb40bdf1bf48de24e0e93e1b7f9ec4"),
    (["omega", "lower", "--machine", "sd", "--L", "79", "--c-cap", "9"],
     "d3da16afd3f9038bc2861c71986b83f96a67cc3f92e9f395890683fe0d9e9ff6"),
    # the bits a report prints from a capped omega
    (["omega", "exact", "--L", "40", "--emit-bits", "12"],
     "0f1a4a1b59d8df4456cb1c403d3403452761e3a98ac380376cc18a81f644e971"),
    (["omega", "lower", "--machine", "total", "--L", "40", "--B", "3", "--emit-bits", "20"],
     "fca9a32af59e8b5a9cbd5481a720562b40acdd2d13e4001198a5f143e3e956ac"),
    (["omega", "bits", "--L", "24", "--k", "16"],
     "21cac4a44fa9218ffc79f533d1271afe6780f6c81e6a83d1a0fd0576dd319226"),
])
def test_capped_omega_stdout_is_frozen(capsys, argv, digest):
    # frozen from the sweeps that ran every evaluable prefix, constants too
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["fas", "berry", "--fas", "sound"],
     "ae376f3847bab8d41f0d267f2f0fb1538a390604aea3a85d47b163ba39090394"),
    (["fas", "berry", "--fas", "unsound"],
     "48bd37da275fe7d61076d87082675158e3ed824edd84803e476b2ac6e42258fb"),
    (["fas", "ceiling", "--fas", "sound", "--budget", "1000000"],
     "30a06f2605d6f13fdf53c37744eea354e811978c4f2acd3b3ffb8ef6a8473036"),
    (["fas", "omegabits", "--fas", "omega8", "--budget", "1000"],
     "3880a2bdfd247cb8e4cd1a69529cb6d96a2f5200d22c55f234153d396636f047"),
    (["fas", "theorems", "--fas", "unsound", "--budget", "100000"],
     "bc4c6721218285cf624f291bdd83a4b5379fef5b40e897bf1d62abc67fa3a270"),
    (["diag", "--n", "2"],
     "76be029d7b2a857157654434efc2dee1c9a7bfdb56b599c2e466e3216785be5f"),
])
def test_fas_and_diag_stdout_is_frozen(capsys, argv, digest):
    # frozen from the Berry, oracle, padding and diagonal reports while the
    # oracle budget, the claim's output bits and the omega sweep were parameters
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
