"""Sweeps, tables, and the operations computed from them."""

import hashlib
import itertools
import sys
import tracemalloc

import pytest

import listing
import spec
from omegalab.bits import Dyadic, InvariantError
from omegalab.complexity import (
    STRUCTURAL,
    ComplexityResult,
    Ensemble,
    TableEntry,
    algorithmic_probability,
    build_table,
    check_chain_rule,
    check_coding,
    complexity_upper,
    domain_runs,
    enumerate_halting,
    explicit_records,
    find_elegant,
    joint_complexity,
    relative_complexity,
)
from omegalab.machines import Program, covers, output_of, run_machine, split_program_bits
from omegalab.sexpr import ALPHABET, parse, print_sexpr, to_bits
from omegalab import machines, progs


def test_c2_table_hand_case():
    table = build_table(Ensemble("c2", 2, 10))
    assert [(e.witness, e.output) for e in table.entries.values()] == [("0", ""), ("00", "0"), ("01", "1")]
    assert table.contributing == 3


def test_enumerate_empty_limits():
    table = build_table(Ensemble("c2", 0, 0))
    assert len(table.entries) == table.contributing == 0 and list(table.entries.by_length()) == []
    assert enumerate_halting(Ensemble("sd", 15, 100)) == []  # the shortest prefix () is 16 bits
    assert enumerate_halting(Ensemble("total", 0, STRUCTURAL)) == []


@pytest.mark.parametrize("read", [explicit_records, enumerate_halting])
def test_the_sweep_refuses_c2(sweeps, read):
    # c2's domain is not prefix-free: its table is in closed form, and no sweep serves it
    with pytest.raises(ValueError, match=r"^a sweep needs a prefix-free machine \(sd or total\), got 'c2'$"):
        read(Ensemble("c2", 17, 1))
    assert sweeps == []


def test_c2_table_answers_its_leading_0_family_by_rule():
    # the 2^20 - 1 entries of the leading-0 family are answered by rule, not
    # stored; the one leading-1 program, () at 17 bits, prints "", which is in it
    ens = Ensemble("c2", 20, 1)
    tracemalloc.start()
    try:
        table = build_table.__wrapped__(ens)
        added = tracemalloc.get_traced_memory()[0]
        small = list(build_table.__wrapped__(Ensemble("c2", 12, 1)).entries.values())
        per_entry = (tracemalloc.get_traced_memory()[0] - added) / len(small)
    finally:
        tracemalloc.stop()
    assert added < 2**20 < 100 * 2**20 < per_entry * len(table.entries)  # materialized, over 100 MB
    assert len(table.entries) == 2**20 - 1 and table.contributing == 2**20
    assert "0" * 19 in table.entries and "0" * 20 not in table.entries and "2" not in table.entries
    assert table.entries.get("2") is None and table.entries.get(("0", "1")) is None
    assert table.entries["0" * 19] == ("0" * 19, 20, "0" * 20, 1, None)
    assert table.entries[""] == ("", 1, "0", 1, None)
    assert list(itertools.islice(table.entries, 4)) == ["", "0", "1", "00"]
    assert list(itertools.islice(table.entries.items(), 2)) == [("", ("", 1, "0", 1, None)),
                                                                ("0", ("0", 2, "00", 1, None))]


@pytest.mark.parametrize("L, B", [(4, 1), (4, 0), (16, 0), (17, 0), (22, 0), (17, 1)])
def test_c2_entries_by_length_are_its_entries(L, B):
    # each length under L is the rule's template entry, its NULs standing
    # for each r; the leading-1 program's entry follows where no 0r halts
    from omegalab.complexity import _C2Entries
    from omegalab.reports import Family

    entries = _C2Entries(Ensemble("c2", L, B))
    read = []
    for e in entries.by_length():
        if type(e) is Family:
            assert e.row == ("\0", e.n + 1, "0\0", 1, None)
            outputs = map("".join, itertools.product("01", repeat=e.n))
            read += [TableEntry(r, e.n + 1, "0" + r, 1, None) for r in outputs]
        else:
            read.append(e)
    assert read == list(entries.values()) and len(read) == len(entries)
    if B == 0 and L >= 17:
        assert read == [("", 17, "1" + to_bits(parse("()")), 1, None)]


@pytest.mark.parametrize("B", [0, 1, 10**4])
def test_no_c2_table_command_sweeps(monkeypatch, sweeps, B):
    # sweep, elegant and complexity answer c2 from its closed form at every L
    # the cap allows: no sweep runs and the store holds no c2 key
    from omegalab import complexity
    from omegalab.cli import main

    build_table.cache_clear()
    monkeypatch.setattr("omegalab.reports.emit_json", lambda report: "")  # c2's JSON is 826 MB at L 22
    for L in range(complexity.C2_RAW_CAP + 1):
        for argv in (["sweep"], ["elegant"], ["complexity", "--target", "01"]):
            assert main([*argv, "--machine", "c2", "--L", str(L), "--B", str(B)]) == 0
    assert sweeps == [] and not any(machine == "c2" for machine, _ in complexity._store)


def test_the_c2_cap_names_the_report_size_it_bounds(capsys):
    # c2 is never swept, so the refusal past the cap speaks of the report
    from omegalab import complexity
    from omegalab.cli import main

    Ensemble("c2", complexity.C2_RAW_CAP, 10**4)
    want = "c2 is capped at L=22, which bounds a report's size (826 MB of JSON at L 22), got L=23"
    with pytest.raises(ValueError) as exc:
        Ensemble("c2", 23, 10**4)
    assert str(exc.value) == want
    assert main(["sweep", "--machine", "c2", "--L", "23"]) == 2
    assert capsys.readouterr() == ("", f"omegalab: {want}\n")


def test_complexity_upper_c2_examples():
    res = complexity_upper(Ensemble("c2", 4, 10), "101")
    assert (res.h_upper, res.witness, res.exact) == (4, "0101", True)
    res = complexity_upper(Ensemble("c2", 1, 10), "")
    assert (res.h_upper, res.witness, res.exact) == (1, "0", True)
    assert not complexity_upper(Ensemble("c2", 4, 10), "1" * 12).found


def test_c2_bound_is_exact_only_where_the_leading_0_program_runs():
    # 0 prints "" in one step: at B = 0 it never halts, so the run record (), at
    # 17 bits, is only an upper bound; from B = 1 on, h = 1 is exact
    res = complexity_upper(Ensemble("c2", 17, 0), "")
    assert (res.h_upper, res.exact) == (17, False)
    for B in (1, 10):
        res = complexity_upper(Ensemble("c2", 17, B), "")
        assert (res.h_upper, res.witness, res.exact) == (1, "0", True)


@pytest.mark.parametrize("B", [0, 1, 100])
def test_c2_bound_is_exact_where_0x_fits(B):
    # exact iff the one-step program 0x runs within B and fits in L, and then
    # 0x is the bound, as the spec's scan of every raw string finds it
    for L in range(7):
        scan, found = dict(spec.fold(spec.c2_records(L, B), "c2")[0]), 0
        for x in (x for n in range(6) for x in map("".join, itertools.product("01", repeat=n))):
            res = complexity_upper(Ensemble("c2", L, B), x)
            if res.found:
                found += 1
                assert res.exact == (B >= 1 and len(x) < L), (L, x)
                assert (res.h_upper, res.witness) == scan[x][:2]
        assert found == (2**L - 1 if B else 0)


def test_complexity_upper_sd_empty_string():
    res = complexity_upper(Ensemble("sd", 20, 100), "")
    assert res.h_upper == 16
    assert res.witness == to_bits(parse("()"))
    assert res.exact is False  # sd never certifies exactness


@pytest.mark.parametrize("x", ["00", "01", "10", "11"])
def test_a_total_quote_bound_above_the_exhaustive_sweep_is_not_exact(x):
    # no prefix of at most 5 characters outputs x: the bound is the 56-bit
    # quote witness, and programs of 48 to 55 bits were never swept
    res = complexity_upper(Ensemble("total", 80, STRUCTURAL, 5), x, include_constructed=True)
    assert (res.h_upper, res.source, res.exact) == (56, "quote", False)
    assert build_table(Ensemble("total", 80, STRUCTURAL, 5)).exhaustive_limit == 47


@pytest.mark.parametrize("B", [0, 1, 3, STRUCTURAL])
def test_total_bounds_are_exact_where_the_spec_decides_them(B):
    # exact holds exactly when every program shorter than h was swept (h - 1
    # bits within the exhaustive limit) and B covers its run (h // 8 + 1
    # steps); there the spec's fold of every program of up to 5 characters
    # decides h: the least of its swept size and the quote witness's
    everything = spec.halting("total", 47, B, 5)
    xs = ["".join(bits) for n in range(4) for bits in itertools.product("01", repeat=n)]
    for L in (0, 8, 15, 16, 24, 31, 32, 40, 47, 48, 55, 56, 64, 80):
        ens = Ensemble("total", L, B, 5)
        limit = build_table(ens).exhaustive_limit
        swept = dict(spec.fold(spec.under([r for r in everything if r[4] <= L], None), "total")[0])
        for x in xs:
            res = complexity_upper(ens, x, include_constructed=True)
            if not res.found:
                continue
            h = res.h_upper
            assert res.exact == (covers(B, h // 8 + 1) and h - 1 <= limit), (L, x)
            if res.exact:
                quote = progs.quote_program(x).size_bits
                sizes = [swept[x][0]] if x in swept else []
                assert h == min(sizes + [quote] if quote <= L else sizes), (L, x)


def test_algorithmic_probability():
    p = algorithmic_probability(Ensemble("sd", 16, 100), "")
    assert p == Dyadic.pow2(16)
    assert algorithmic_probability(Ensemble("sd", 0, 100), "0") == Dyadic.zero()
    with pytest.raises(ValueError):
        algorithmic_probability(Ensemble("c2", 16, 100), "")


def test_probability_monotone_in_limits():
    p16 = algorithmic_probability(Ensemble("sd", 16, 100), "")
    p24 = algorithmic_probability(Ensemble("sd", 24, 100), "")
    p56 = algorithmic_probability(Ensemble("sd", 56, 100), "")
    assert p16 <= p24 <= p56
    h24 = complexity_upper(Ensemble("sd", 24, 100), "").h_upper
    h56 = complexity_upper(Ensemble("sd", 56, 100), "").h_upper
    assert h56 <= h24


def test_find_elegant_c2():
    entries = find_elegant(Ensemble("c2", 3, 10))
    by_output = {e.output: e for e in entries}
    assert by_output["1"].witness == "01"
    assert by_output["1"].h_upper == 2
    assert all(e.minimal_count >= 1 for e in entries)


def test_counting_bound_c2():
    table = build_table(Ensemble("c2", 9, 100))
    for m in range(1, 10):
        count = sum(1 for e in table.entries.values() if e.h_upper < m)
        assert count < 2**m


def test_c2_max_complexity_small():
    table = build_table(Ensemble("c2", 9, 100))
    for n in range(1, 9):
        hs = []
        for i in range(1 << n):
            x = format(i, f"0{n}b")
            res = complexity_upper(Ensemble("c2", n + 1, 100), x)
            assert res.found and res.exact
            hs.append(res.h_upper)
        assert max(hs) == n + 1


def test_total_alphabet_generates_exactly_the_l_y_free_prefixes():
    # total is sd restricted to the prefixes without the atoms l and y
    from omegalab.vm import contains_general_only_prims

    for n in range(1, 6):
        total = spec.trees(n, spec.TOTAL_ALPHABET)
        filtered = [p for p in spec.trees(n) if not contains_general_only_prims(p)]
        assert len(total) == len(set(total)) == len(filtered)
        assert set(total) == set(filtered)


def test_evaluable_prefixes_are_pinned_to_6_characters():
    # the sweep builds the runs of the evaluable lists alone; test_spec shows
    # by the reference evaluator that no other tree of up to 5 characters
    # halts within 47 bits
    from omegalab.complexity import _exprs_exact

    for alphabet, counts in ((ALPHABET, [1, 2, 28, 481, 54]), (spec.TOTAL_ALPHABET, [1, 2, 26, 4, 32])):
        for n, count in zip(range(2, 7), counts):
            kept = listing.evaluable(n, alphabet)
            assert len(kept) == len(set(kept)) == count, (alphabet, n)
            assert set(kept) <= set(_exprs_exact(n, alphabet)), (alphabet, n)


def test_if_forms_with_neither_branch_evaluable_never_halt():
    # (i C T E) runs the branch it takes with no bindings, so the sweep keeps
    # it only when T or E is evaluable; every form that rule drops, from the
    # shortest (7 characters) up, faults or runs out of budget under every
    # payload and aux
    for alphabet, B in ((ALPHABET, 10**4), (spec.TOTAL_ALPHABET, STRUCTURAL)):
        for n, count in ((6, 0), (7, len(alphabet) ** 2), (8, 2 * len(alphabet) ** 2)):
            kept = set(listing.runnable(n, alphabet))
            dropped = [("i",) + items for items in listing.fill(n - 3, "vxx", alphabet)
                       if ("i",) + items not in kept]
            assert len(dropped) == count, (alphabet, n)  # at 7: (i () a b) for atoms a, b
            for prefix in dropped:
                assert not listing.domain_runs(prefix, 79 - 8 * n, B), (alphabet, prefix)


def _fields(out):
    return type(out), tuple(out)


@pytest.mark.parametrize("machine, B", [("sd", 10**4), ("total", STRUCTURAL)])
def test_every_composed_outcome_of_criterion_8_equals_a_fresh_run(monkeypatch, machine, B):
    # the composer runs along the trie of the 49 payloads: each node's
    # outcome, a pair's when it is the pair's payload, is a fresh run's, field
    # by field.  sd continues the composer's underruns; total refuses the
    # composer, and its fragment fault stands for every payload
    composer = progs.pair_composer()
    run, continue_run = machines.run_machine, machines.continue_run
    nodes = {}  # payload -> the outcome the chain rule got for it

    def recorded(out, p):
        if p.prefix is composer:
            assert p.payload not in nodes
            nodes[p.payload] = out
        return out

    monkeypatch.setattr(machines, "run_machine", lambda machine, p, budget, aux=None: recorded(
        run(machine, p, budget, aux), p))
    monkeypatch.setattr(machines, "continue_run", lambda out, p: recorded(continue_run(out, p), p))
    pairs = list(itertools.product(spec.PAIR_ALPHABET, repeat=2))
    ens = Ensemble(machine, 96, B)
    rep = check_chain_rule(ens, pairs)
    assert len(rep["pairs"]) + len(rep["skipped"]) == 49
    for payload, out in nodes.items():
        assert _fields(out) == _fields(run(machine, Program(composer, payload), progs.GUEST_BUDGET)), payload
    payloads = set()
    for x, y in pairs:
        x_star = complexity_upper(ens, x, include_constructed=True).witness
        payloads.add(x_star + relative_complexity(ens, y, x_star).witness)
    assert len(payloads) == 49 and payloads <= set(nodes)
    assert all(row["composed_verified"] == (machine == "sd") for row in rep["pairs"])


@pytest.mark.parametrize("machine, B", [("sd", 10**4), ("total", STRUCTURAL)])
def test_a_chain_report_joins_the_reports_of_its_pairs(machine, B):
    # sharing the composer's runs changes no row and no skip: at L=40 the
    # skips of every reason (on total all three) stay in pair order, and a
    # repeated pair is reported again
    ens = Ensemble(machine, 40, B)
    pairs = list(itertools.product(spec.PAIR_ALPHABET, repeat=2))
    pairs += pairs[::6]
    rep = check_chain_rule(ens, pairs)
    alone = [check_chain_rule(ens, [pair]) for pair in pairs]
    assert rep["pairs"] == [row for r in alone for row in r["pairs"]]
    assert rep["skipped"] == [skip for r in alone for skip in r["skipped"]]
    reasons = {"h(x) not found", "h(y|x*) not found"} | ({"h(x,y) not found"} if machine == "total" else set())
    assert {skip["reason"] for skip in rep["skipped"]} == reasons


def test_chain_starts_the_composer_from_step_0_once_per_command(monkeypatch, capsys):
    # the runs on every other payload, a repeated pair's included, continue
    # the one run of the trie's root
    from omegalab import vm
    from omegalab.cli import main

    composer = progs.pair_composer()
    eval_expr = vm.eval_expr
    starts = []

    def counted_eval_expr(expr, *args):
        starts.append(expr is composer)
        return eval_expr(expr, *args)

    monkeypatch.setattr(vm, "eval_expr", counted_eval_expr)
    for pairs in (":;:1;0:;0:1", ":1;:1;0:1;:1;11:0;0:1"):
        starts.clear()
        assert main(["chain", "--machine", "sd", "--pairs", pairs, "--L", "96", "--B", "10000"]) == 0
        assert starts.count(True) == 1
    capsys.readouterr()


def test_counted_records_equal_the_generated_constants():
    from omegalab import vm
    from omegalab.complexity import _CONSTANTS, _SLOTS, _count, _counted_records, _exprs_exact, _split_constants
    from omegalab.machines import pair_output_of

    # an X with an atom other than 0 and 1 never converts, so a third atom
    # stands for all of them; pairs first fit at 9 characters, (q(()()))
    for n in range(4, 13):
        values = [vm.RunOutcome(vm.HALTED, value=x, steps=1) for x in _exprs_exact(n - 3, "01a")]
        assert sorted(r.program_bits for r in _split_constants(n, ALPHABET) if r.count == 1) == sorted(
            to_bits(("q", out.value)) for out in values
            if output_of(out) is not None or pair_output_of(out) is not None), n
    for alphabet in (ALPHABET, spec.TOTAL_ALPHABET):
        # the counting reading of the grammar agrees with the listing one
        for n in range(1, 6):
            assert _count(n, "x", alphabet) == len(_exprs_exact(n, alphabet)), (alphabet, n)
            for head in _CONSTANTS:
                assert _count(n, _SLOTS[head], alphabet) == len(listing.fill(n, _SLOTS[head], alphabet)), (alphabet, n)
        for n in range(2, 8):
            # every constant run: each halts in one step, reading nothing
            converting, counted = [], []
            for prefix in listing.forms(n, _CONSTANTS, alphabet):
                out = vm.eval_expr(prefix, 1, "", "")
                assert out.halted and out.steps == 1, prefix
                rec = (to_bits(prefix), output_of(out), pair_output_of(out), 1, 8 * n, "", 1)
                (counted if rec[1] is None and rec[2] is None else converting).append(rec)
            records = _split_constants(n, alphabet)
            assert sorted(tuple(r) for r in records if r.count == 1) == sorted(converting), (alphabet, n)
            # at most one counted record: its count is the rest, its program one of them
            classes = [r for r in records if r.count > 1]
            assert [r.count for r in classes] == ([len(counted)] if counted else []), (alphabet, n)
            assert all(tuple(r._replace(count=1)) in counted for r in classes), (alphabet, n)
            if counted:
                assert [tuple(r) for r in _counted_records(n, alphabet)] == sorted(counted), (alphabet, n)


@pytest.mark.parametrize("alphabet, counts, digests", [
    (ALPHABET, [1, 2, 0, 4, 9, 118, 2048, 1635, 13898],
     ["4b4469173a97925727686580f13c638d116640a56c76e33ad6f51122244f5f53",
      "9ce6bf889f7b67a3808c84bfbcdbc3a22febf548cb004bbe0bedb8a7aaa9c837"]),
    (spec.TOTAL_ALPHABET, [1, 2, 0, 3, 6, 80, 72, 417, 5461],
     ["7871d11d2caee612142fcac09a1a93417a06134cfa32f57a80e9b6fd1c096644",
      "767f3cdb6a2f9323870f22d9d770f02f31ef5ee5939ffc1c8e8eef94a7c51a3f"]),
], ids=["sd", "total"])
def test_runnable_prefixes_are_frozen_to_10_characters(alphabet, counts, digests):
    # frozen while the grammar was still written out in several recursions:
    # the runnable prefixes of 2..10 characters, and the sorted prints of those
    # of 9 and 10, past the 8 characters the sweep tests run
    assert [len(listing.runnable(n, alphabet)) for n in range(2, 11)] == counts
    assert [hashlib.sha256("\n".join(sorted(map(print_sexpr, listing.runnable(n, alphabet)))).encode()).hexdigest()
            for n in (9, 10)] == digests


@pytest.mark.parametrize("machine, B", [("sd", 10**4), ("sd", 1), ("total", STRUCTURAL), ("total", 0)])
def test_table_equals_a_fraction_fold_of_a_materialized_sweep(machine, B):
    # at c_cap 7 every tree is too many (test_spec runs them all up to 5
    # characters), so the spec runs the evaluable ones, constants included.
    # The table, which folds the counted constants by count in integers, must
    # equal the spec's Fraction fold of those runs, every field.  No tree up
    # to 7 characters reads two aux bits: (c(s)(s)) has 8, so three auxes
    # cover every record
    ens, alphabet = Ensemble(machine, 63, B, 7), ALPHABET if machine == "sd" else spec.TOTAL_ALPHABET
    found = spec.records([e for n in range(2, 8) for e in listing.evaluable(n, alphabet)], 63, B)
    assert {r[5] for r in found} <= {"", "0", "1"}
    for aux in (None, "0", "1"):
        assert [tuple(r) for r in enumerate_halting(ens, aux)] == spec.under(found, aux), aux
    table = build_table.__wrapped__(ens)
    assert spec.table_view(table) == spec.fold(spec.under(found, None), machine)
    assert table.exhaustive_limit == 63
    assert table.conv_fail_mass < table.mass <= Dyadic.one()


def test_joint_complexity_quote_witness():
    res = joint_complexity(Ensemble("sd", 96, 100), "", "")
    assert res.found and res.h_upper == 72  # (q(()())) is 9 characters
    prog = split_program_bits(res.witness)
    assert progs.verify_pair("sd", prog, "", "")
    assert not joint_complexity(Ensemble("sd", 32, 100), "", "").found  # L too small


def test_joint_symmetry_bound():
    for x, y in [("", "0"), ("0", "1"), ("01", "1")]:
        a = joint_complexity(Ensemble("sd", 120, 100), x, y)
        b = joint_complexity(Ensemble("sd", 120, 100), y, x)
        assert a.found and b.found
        assert abs(a.h_upper - b.h_upper) <= 16  # mirrored quote witnesses differ by |x|-|y| chars


def test_relative_complexity():
    y_star = to_bits(parse("(r)")) + "0"  # a domain program with output "0"
    # aux unused: plain witnesses remain valid
    res = relative_complexity(Ensemble("sd", 40, 100, c_cap=3), "", y_star)
    assert res.found and res.h_upper == 16
    # sweeping with the aux loaded finds genuine (s)-readers
    res = relative_complexity(Ensemble("sd", 40, 100, c_cap=3), "0", y_star)
    assert res.found
    assert res.h_upper <= 25
    with pytest.raises(ValueError):
        relative_complexity(Ensemble("sd", 40, 100), "", "1111")  # y_star not in domain


def test_each_constructed_witness_is_printed_once(monkeypatch):
    # a quote or plain witness is encoded once, its size read from its bits
    from omegalab import sexpr

    ens = Ensemble("sd", 128, 10**4, c_cap=3)  # no witness below is swept
    x, y, y_star = "0110", "101", to_bits(parse("(r)")) + "0"
    build_table(ens), enumerate_halting(ens, aux=y_star)
    original, printed = sexpr.print_sexpr, []

    def spy(e):
        printed.append(e)
        return original(e)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "omegalab" and getattr(module, "print_sexpr", None) is original:
            monkeypatch.setattr(module, "print_sexpr", spy)
    for query, witness in ((lambda: complexity_upper(ens, x, include_constructed=True), ("q", tuple(x))),
                           (lambda: joint_complexity(ens, x, y), ("q", (tuple(x), tuple(y)))),
                           (lambda: relative_complexity(ens, x, y_star), ("q", tuple(x)))):
        printed.clear()
        res = query()
        assert printed.count(witness) == 1, res.source
        assert res.found and res.source in ("quote", "plain") and res.witness == to_bits(witness)


def test_relative_via_replay_is_size_independent():
    # a long enough output: its plain witness grows with |x|, the replay does not
    x = "01" * 1000
    y_star = progs.quote_program(x).bits
    res = relative_complexity(Ensemble("sd", 10**6, 10**7, c_cap=2), x, y_star)
    assert res.found and res.source == "replay"
    assert res.h_upper == progs.replay_program().size_bits
    assert res.h_upper < progs.quote_program(x).size_bits


def test_the_oracle_relative_complexity_and_the_chain_rule_read_the_store_in_any_order(monkeypatch, capsys):
    # the store's records are in no particular order: served reversed, and
    # with the tables built again from them, the omega oracle at L 40 for
    # every k <= 40 (Ω < 2^-15 there, so only k >= 16 reads a record),
    # relative complexity and criterion 8's chain report are unchanged, every
    # result and every byte
    from omegalab import complexity, omega
    from omegalab.cli import main
    from omegalab.reports import emit_json

    ens, pairs = Ensemble("sd", 96, 10**4), list(itertools.product(spec.PAIR_ALPHABET, repeat=2))

    def answers():
        build_table.cache_clear()
        oracle = []
        for k in range(41):
            assert main(["omega", "oracle", "--L", "40", "--k", str(k)]) == 0
            oracle.append(capsys.readouterr().out)
        x_stars = [complexity_upper(ens, x, include_constructed=True).witness for x in spec.PAIR_ALPHABET]
        relative = [relative_complexity(ens, y, x_star) for x_star in x_stars for y in spec.PAIR_ALPHABET]
        chain = emit_json(check_chain_rule(ens, pairs))
        build_table.cache_clear()
        return oracle, relative, chain

    stored = answers()
    assert {res.source for res in stored[1]} == {"sweep", "plain"}
    explicit = complexity.explicit_records
    for module in (complexity, omega):
        monkeypatch.setattr(module, "explicit_records", lambda ens, aux=None: explicit(ens, aux)[::-1])
    assert answers() == stored


def test_check_coding_sd():
    rep = check_coding(Ensemble("sd", 24, 10**4))
    columns, rows = rep["entries"]
    assert columns == ("output", "h_upper", "prob", "defect")
    assert [row[0] for row in rows] == [""]
    assert rows[0][3] == 0
    assert rep["max_defect"] == 0
    # defects are h - ceil(-log2 prob) >= 0 whenever prob's leading term is the witness
    rep56 = check_coding(Ensemble("sd", 56, 10**4))
    assert all(defect >= 0 for _, _, _, defect in rep56["entries"].values)


def test_check_chain_rule_small():
    rep = check_chain_rule(Ensemble("sd", 56, 10**4, c_cap=4), [("", ""), ("0", "1")])
    assert rep["K"] == 8 * len(print_sexpr(progs.pair_composer()))
    assert not rep["skipped"]
    for row in rep["pairs"]:
        assert row["composed_verified"]
        assert row["h_xy"] <= row["h_x"] + row["h_y_given_xstar"] + rep["K"]


def test_check_chain_rule_takes_h_x_from_quote_witness():
    # at c_cap=4 no swept prefix outputs "00" or "11"; only their quote
    # witness (q(00)) bounds h(x), and the pair must not be skipped for it
    rep = check_chain_rule(Ensemble("sd", 56, 10**4, c_cap=4), [("00", ""), ("11", "1")])
    assert not rep["skipped"], rep["skipped"]
    assert len(rep["pairs"]) == 2
    assert rep["pairs"][0]["h_x"] == progs.quote_program("00").size_bits == 56
    for row in rep["pairs"]:
        assert row["composed_verified"], row
        assert row["h_xy"] <= row["h_x"] + row["h_y_given_xstar"] + rep["K"], row


@pytest.mark.parametrize("h_exp, raises", [(3, False), (4, True)])
def test_check_coding_raises_where_prob_lacks_the_witness_term(monkeypatch, h_exp, raises):
    # prob(x) >= 2^-h(x): the witness's own term is in the sum, so a table
    # entry of h 3 with prob 2^-4 cannot come from a sweep; 2^-3 holds
    from omegalab import complexity

    entry = TableEntry("0", 3, "000", 1, Dyadic.pow2(h_exp))
    monkeypatch.setattr(complexity, "find_elegant", lambda ens: [entry])
    if raises:
        with pytest.raises(InvariantError, match=r"lacks its witness term 2\^-3"):
            check_coding(Ensemble("sd", 24, 10**4))
    else:
        assert check_coding(Ensemble("sd", 24, 10**4))["max_defect"] == 0


@pytest.mark.parametrize("shift, raises", [(0, False), (1, True)])
def test_check_chain_rule_raises_past_K(monkeypatch, shift, raises):
    # with no joint witness h(x,y) is the composed program's size, K plus
    # both witnesses' sizes, so d = K; h(x) read shift bits under its
    # witness's size makes d = K + shift
    from omegalab import complexity

    upper = complexity.complexity_upper

    def lowered(*args, **kwargs):
        res = upper(*args, **kwargs)
        return res._replace(h_upper=res.h_upper - shift)

    monkeypatch.setattr(complexity, "complexity_upper", lowered)
    monkeypatch.setattr(complexity, "joint_complexity", lambda ens, x, y: ComplexityResult(False))
    ens = Ensemble("sd", 56, 10**4, c_cap=4)
    if raises:
        with pytest.raises(InvariantError, match=r"exceeds h\(x\) \+ h\(y\|x\*\) \+ K"):
            check_chain_rule(ens, [("0", "1")])
    else:
        rep = check_chain_rule(ens, [("0", "1")])
        assert [(row["h_xy_source"], row["d"]) for row in rep["pairs"]] == [("composed", rep["K"])]


def test_subadditivity_via_plain_composer():
    # h(x,y) <= h(x) + h(y) + K2: witnesses concatenate behind the fixed prefix
    table = build_table(Ensemble("sd", 56, 10**4))
    comp = progs.pair_composer()
    K2 = 8 * len(print_sexpr(comp))
    for x, y in [("", "0"), ("1", "1"), ("0", "1")]:
        wx = table.entries[x].witness
        wy = table.entries[y].witness
        composed = Program(comp, wx + wy)
        assert progs.verify_pair("sd", composed, x, y)
        assert composed.size_bits == len(wx) + len(wy) + K2


def test_one_ensemble_is_one_memo_entry(sweeps):
    # however its defaults are written, one ensemble is one table
    build_table.cache_clear()
    t = build_table(Ensemble("total", 32, STRUCTURAL))
    assert build_table(Ensemble("total", 32, STRUCTURAL, c_cap=6)) is t
    assert build_table.cache_info().misses == 1
    assert sweeps == [("total", 32, STRUCTURAL, 6)]


def test_store_projection_equals_direct_sweep(monkeypatch):
    # up to 40 bits every halting program takes one step, () none; B = 0 and
    # the 56-bit total ensemble, with its two-step runs, test the budget axis
    from omegalab import complexity

    sweep_direct = complexity._sweep
    swept = []

    def direct(machine, L, B, c_cap):  # the aux-free records of a sweep that bypasses the store
        return [r for r in complexity._with_counted(sweep_direct(machine, L, B, c_cap),
                                                    Ensemble(machine, L, B, c_cap)) if r.aux_read == ""]

    def sweep(*args):
        swept.append(args[:3])
        return sweep_direct(*args)

    monkeypatch.setattr(complexity, "_store", {})
    monkeypatch.setattr(complexity, "_sweep", sweep)
    y_star = to_bits(parse("(r)")) + "0"
    enumerate_halting(Ensemble("sd", 24, 10**4))
    enumerate_halting(Ensemble("sd", 40, 0))  # a smaller L cannot serve it
    enumerate_halting(Ensemble("sd", 40, 10**4))  # nor a smaller budget
    enumerate_halting(Ensemble("total", 56, 1))  # stored at the structural budget
    enumerate_halting(Ensemble("sd", 40, 10**4, c_cap=3), aux=y_star)
    assert swept == [("sd", 24, 10**4), ("sd", 40, 0), ("sd", 40, 10**4), ("total", 56, STRUCTURAL),
                     ("sd", 40, 10**4)]
    for L, B in itertools.product((24, 32, 40), (0, 1, 3, 100, 10**4)):
        assert enumerate_halting(Ensemble("sd", L, B)) == direct("sd", L, B, 6), (L, B)
    for L, B in itertools.product((24, 32, 40), (0, 1, 3, 100, STRUCTURAL)):
        assert enumerate_halting(Ensemble("total", L, B)) == direct("total", L, B, 6), (L, B)
    one_step = enumerate_halting(Ensemble("total", 56, 1))
    assert one_step == direct("total", 56, 1, 6)
    assert len(one_step) < len(enumerate_halting(Ensemble("total", 56, STRUCTURAL)))
    for L, B in ((32, 0), (40, 100)):
        got = enumerate_halting(Ensemble("sd", L, B, c_cap=3), aux=y_star)
        assert [tuple(r) for r in got] == spec.halting("sd", L, B, 3, y_star), (L, B)  # y_star loaded whole
    assert len(swept) == 5
    # a projection is a fresh list the caller may change
    enumerate_halting(Ensemble("sd", 40, 10**4)).clear()
    assert enumerate_halting(Ensemble("sd", 40, 10**4)) == direct("sd", 40, 10**4, 6)
    # one sweep per (machine, c_cap): each sd sweep at c_cap 6 replaced the one before
    assert len(complexity._store) == 3


def test_aux_readers_are_found_on_demand():
    # (s) halts only by reading one aux bit: it serves every aux, never aux=None
    s_bits = to_bits(parse("(s)"))
    for aux in ("0", "1", "01", "1101"):
        recs = [r for r in enumerate_halting(Ensemble("sd", 32, 100, c_cap=3), aux=aux)
                if r.program_bits == s_bits]
        assert [(r.output, r.aux_read) for r in recs] == [(aux[0], aux[0])], aux
    for aux in (None, ""):
        swept = enumerate_halting(Ensemble("sd", 32, 100, c_cap=3), aux=aux)
        assert s_bits not in [r.program_bits for r in swept]


def test_domain_runs_refuse_a_halt_that_left_payload_unread(monkeypatch):
    # a run that halts has read its whole payload, or it would not have been
    # given one more bit; an outcome that says otherwise is refused
    from omegalab import vm

    monkeypatch.setattr(vm, "apply", lambda fun, arg, budget, payload, aux, steps: vm.RunOutcome(
        vm.HALTED, (), len(payload) + 1, 0, steps + 1))
    with pytest.raises(InvariantError, match="halted having read 1 of 0 payload bits"):
        domain_runs(vm.Closure("x", ("r",), None), (), 0, 8, 100)


@pytest.mark.parametrize("machine, c_cap, B, count", [
    (machine, c_cap, B, count) for machine, c_cap, counts in (
        ("sd", 9, (1, 77, 1045, 1045)), ("sd", 10, (1, 142, 6790, 6790)),
        ("total", 9, (1, 74, 502, 502)), ("total", 10, (1, 137, 4618, 4618)))
    for B, count in zip((0, 1, 3, 10**4) if machine == "sd" else (0, 1, 3, STRUCTURAL), counts)])
def test_the_build_equals_the_listing_sweep(machine, c_cap, B, count):
    # every field of every record, against every runnable prefix listed and
    # run from step 0 (tests/listing.py), at L = 8 c_cap + 7; at 9 characters
    # ((lxx)()) is the first closure body run, and (c(r)(r)) the first form
    # with two payload readers.  test_cli compares them at 11 characters in a
    # fresh process
    assert listing.build_equals_listing(machine, 8 * c_cap + 7, B, c_cap) == (count, True)


@pytest.mark.parametrize("machine, L, B, c_cap, count", [
    ("sd", 64, 10**4, 8, 574), ("total", 64, STRUCTURAL, 8, 93), ("sd", 79, 2, 9, 1025), ("total", 79, 2, 9, 482)])
def test_the_build_equals_the_listing_sweep_where_the_admission_cuts(machine, L, B, c_cap, count):
    # at L = 8 c_cap the longest lists have no room for a payload bit, so the
    # build's admission cuts composed runs that read one, as the listing's
    # payload bound does (at L = 8 c_cap + 7 no composed run meets the cap);
    # at B = 2 it cuts (e(r)(r)), 3 steps over two parts of one step, where
    # the rows at B 1 and 3 above compose no run over B
    assert listing.build_equals_listing(machine, L, B, c_cap) == (count, True)


@pytest.mark.parametrize("B", [0, 1, 10**4])
def test_the_c2_closed_form_equals_the_listing(B):
    # the closed-form table against every evaluable list run by run_c2 and
    # folded with the leading-0 programs, at every L the cap allows: a raised
    # cap reaches lists the closed form does not cover
    from omegalab import complexity

    for L in range(complexity.C2_RAW_CAP + 1):
        assert listing.build_equals_listing("c2", L, B, 6) == (L >= 17, True), (L, B)


@pytest.mark.parametrize("alphabet, chars", [("crs", 16), ("chtr", 16), ("lycer", 16), ("cqr0", 13), ("ceirs", 13),
                                             ("lxcers", 13), ("lfxrs", 14)])
def test_the_build_equals_the_listing_on_few_atoms_past_11_characters(alphabet, chars):
    # a few atoms reach forms no sweep of 28 atoms can: a cons of two payload
    # or aux readers, (c(r)(c(s)())) at 14 characters, and more bodies that
    # read, ((lx(r))()) at 11.  Every halting run of every runnable list,
    # its value included (closures as spec.plain shows them)
    from omegalab import complexity

    L = 8 * chars + 7
    built = [(bits + p, a, repr(spec.plain(v)), s)
             for _, runs in complexity._build(alphabet, chars, L, 10**4) for bits, p, a, v, s, _ in runs]
    listed = [(to_bits(e) + p, a, repr(spec.plain(out.value)), out.steps) for n in range(2, chars + 1)
              for e in listing.runnable(n, alphabet) for p, a, out in listing.domain_runs(e, L - 8 * n, 10**4)]
    assert sorted(built) == sorted(listed) and len(built) > 30


def test_the_parts_of_a_form_never_share_a_closure():
    # the build makes one run of (lxx) and uses it wherever a form holds
    # (lxx), so (c (lxx) (c (lxx) ())) would hold that closure twice, where a
    # run makes two; a body that compares them by identity tells them apart
    from omegalab import complexity, vm

    clo = vm.Closure("x", "x", None)
    [(_, _, _, value, steps, fn)] = complexity._cons("", [("", "", "", clo, 1, True)],
                                                     [("", "", "", (clo,), 2, True)])
    assert (steps, fn, value[0]) == (4, True, clo)
    assert type(value[1]) is vm.Closure and value[1] is not clo and (value[1].param, value[1].body) == ("x", "x")
    body = parse("(e(c(hz)())(c(h(tz))()))")
    program = (("l", "z", body), parse("(c(lxx)(c(lxx)()))"))
    assert vm.apply(vm.Closure("z", body, None), value, 100).value == vm.eval_expr(program, 100).value == ()
    assert vm.apply(vm.Closure("z", body, None), (clo, clo), 100).value == "1"


def test_equality_of_values_holding_a_function_is_false():
    # (e (c(lxx)()) (c(lxx)())): each operand holds its own closure, and the
    # build's runs of both may hold one shared closure, which the values'
    # structural walk finds equal; e must still find them unequal
    from omegalab import complexity, vm

    clo = vm.Closure("x", "x", None)
    run = ("", "", "", (clo,), 2, True)
    [(_, _, _, value, steps, fn)] = complexity._equalities("", [run], [run])
    assert (value, steps, fn) == ((), 5, False)
    out = vm.eval_expr(parse("(e(c(lxx)())(c(lxx)()))"), 100)
    assert (out.value, out.steps) == ((), 5)


def test_chain_rule_runs_one_sweep_for_every_x_star(monkeypatch, sweeps):
    from omegalab import complexity

    monkeypatch.setattr(complexity, "build_table", complexity.build_table.__wrapped__)  # bypass the memo
    pairs = [("", ""), ("0", "1"), ("1", "0"), ("00", "1")]
    rep = check_chain_rule(Ensemble("sd", 56, 10**4, c_cap=4), pairs)
    assert len(rep["pairs"]) == 4 and not rep["skipped"]
    x_stars = {complexity_upper(Ensemble("sd", 56, 10**4, c_cap=4), x, include_constructed=True).witness
               for x, _ in pairs}
    assert len(x_stars) >= 3
    assert sweeps == [("sd", 56, 10**4, 4)]


def test_chain_encodes_each_fixed_guest_program_once_for_all_its_candidates(monkeypatch, capsys):
    # the composer is encoded once per chain command and the replay prefix
    # once per process; each composed candidate, in pair order, is the
    # composer's bits followed by its payload, as Program(composer, payload)
    # would give
    from omegalab import complexity, sexpr
    from omegalab.cli import main

    composer, replay = progs.pair_composer(), progs.replay_prefix()
    encoded = []
    for attr in ("to_bits", "print_sexpr"):
        original = getattr(sexpr, attr)

        def spy(e, original=original, attr=attr):
            encoded.append((attr, "composer" if e is composer else "replay" if e is replay else None))
            return original(e)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "omegalab" and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, spy)
    least = complexity._least
    composed = []  # (size, bits) of each composed candidate

    def recording_least(L, cands):
        composed.extend(c[:2] for c in cands if c[2] == "composed")
        return least(L, cands)

    monkeypatch.setattr(complexity, "_least", recording_least)
    commands = [":;:1;0:;0:1", ":;:1;0:;0:0;00:;00:1;0:1"]
    for pairs in commands:
        encoded.clear()
        assert main(["chain", "--machine", "sd", "--pairs", pairs, "--L", "96", "--B", "10000",
                     "--c-cap", "5"]) == 0
        assert encoded.count(("to_bits", "composer")) == 1
        assert encoded.count(("print_sexpr", "composer")) == 1  # the print inside to_bits
        assert encoded.count(("to_bits", "replay")) <= (1 if pairs == commands[0] else 0)
    capsys.readouterr()
    ens = Ensemble("sd", 96, 10**4, c_cap=5)
    expected = []
    for x, y in (pair.split(":") for pairs in commands for pair in pairs.split(";")):
        x_star = complexity_upper(ens, x, include_constructed=True).witness
        p = Program(composer, x_star + relative_complexity(ens, y, x_star).witness)
        expected.append((p.size_bits, p.bits))
    assert composed == expected


def test_a_constructed_witness_runs_only_when_it_would_be_the_bound(monkeypatch):
    runs = []
    verify_output = progs.verify_output

    def recording_verify_output(machine, p, *args, **kwargs):
        runs.append(p.prefix)
        return verify_output(machine, p, *args, **kwargs)

    monkeypatch.setattr(progs, "verify_output", recording_verify_output)
    # the 16-bit sweep witness () beats the quote witness, which is not run
    res = complexity_upper(Ensemble("sd", 96, 10**4, c_cap=5), "", include_constructed=True)
    assert (res.found, res.h_upper, res.witness, res.source) == (True, 16, to_bits(()), "sweep")
    assert runs == []


def test_a_constructed_witness_whose_run_fails_is_skipped(monkeypatch):
    # the sweep misses 0110 given its quote witness; the plain program (the
    # quote) is the least candidate, and when its run fails the replay of the
    # aux program, 8,368 bits, is the bound
    x, quote = "0110", ("q", tuple("0110"))
    x_star = progs.quote_program(x).bits
    ens = Ensemble("sd", len(progs.replay_bits()), 10**4, c_cap=3)
    runs, failing = [], []
    verify_output = progs.verify_output

    def recording_verify_output(machine, p, *args, **kwargs):
        runs.append(p.prefix)
        return p.prefix not in failing and verify_output(machine, p, *args, **kwargs)

    monkeypatch.setattr(progs, "verify_output", recording_verify_output)
    res = relative_complexity(ens, x, x_star)
    assert (res.h_upper, res.witness, res.source) == (72, x_star, "plain")
    assert runs == [quote]  # the replay, larger, is not run
    runs.clear()
    failing.append(quote)
    res = relative_complexity(ens, x, x_star)
    assert (res.found, res.h_upper, res.witness, res.source) == (True, ens.L, progs.replay_bits(), "replay")
    assert runs == [quote, progs.replay_prefix()]


@pytest.mark.parametrize("x, y", [("", ""), ("0110", "0110"), ("0110", "1"), ("01" * 200, "01" * 200),
                                  ("01" * 1000, "01" * 1000)],  # the last one's quote is past L
                         ids=["empty", "x=y", "x!=y", "x=y-400-bits", "x=y-2000-bits"])
@pytest.mark.parametrize("plain_fails", [False, True], ids=["plain-runs", "plain-fails"])
def test_the_replay_is_built_only_where_L_can_hold_it(monkeypatch, x, y, plain_fails):
    # at L one bit short of the replay prefix nothing builds or encodes it,
    # and each bound is the one the rule gives that builds it for every L
    ens = Ensemble("sd", progs.REPLAY_SIZE_BITS - 1, 10**4, c_cap=3)
    y_star = progs.quote_program(y).bits
    built = []
    for name in ("replay_prefix", "replay_bits", "replay_program"):
        monkeypatch.setattr(progs, name, lambda name=name, f=getattr(progs, name): built.append(name) or f())
    if plain_fails:
        verify_output = progs.verify_output
        monkeypatch.setattr(progs, "verify_output", lambda machine, p, *args, **kwargs: (
            p.prefix != progs.quote_program(x).prefix and verify_output(machine, p, *args, **kwargs)))
    res = relative_complexity(ens, x, y_star)
    assert built == []
    monkeypatch.setattr(progs, "REPLAY_SIZE_BITS", 0)
    assert relative_complexity(ens, x, y_star) == res
    assert bool(built) == (x == y)  # that rule builds it wherever the replay reproduces x


def test_count_agrees_with_the_listing_for_every_slot_kind():
    from omegalab.complexity import _ALPHABETS, _SLOTS, _count

    # a slot of kind x holds 0.6 million expressions of 6 characters and 17
    # million of 7, so alternatives of kinds x, p and * alone stop at 5
    for alphabet in _ALPHABETS.values():
        for alt in {alt for slots in _SLOTS.values() for alt in slots.split("|")}:
            for m in range(8 if set(alt) & set("vfn") else 6):
                assert _count(m, alt, alphabet) == len(listing.fill(m, alt, alphabet)), (alphabet, alt, m)


def test_the_counts_of_evaluable_and_runnable_lists_equal_the_listing():
    from omegalab.complexity import _ALPHABETS, _RUN, _SLOTS, _count_forms

    # the evaluable lists of 9 characters quote any of 0.6 million expressions
    # of 6, so they are counted against the listing up to 8
    for alphabet in _ALPHABETS.values():
        for n in range(1, 11):
            assert _count_forms(n, _RUN, alphabet) == len(listing.runnable(n, alphabet)), (alphabet, n)
        for n in range(1, 9):
            assert _count_forms(n, _SLOTS, alphabet) == len(listing.evaluable(n, alphabet)), (alphabet, n)


def test_the_prefixes_a_sweep_runs_are_counted_past_the_listing():
    # at c_cap 11, 12 and 13, by the recursion alone; the cap lets total run
    # at 12 and refuses sd there
    from omegalab.complexity import _ALPHABETS, _RUN, SWEEP_PREFIX_CAP, _count_forms

    counts = {name: list(itertools.accumulate(_count_forms(n, _RUN, alphabet) for n in range(2, 14)))[-3:]
              for name, alphabet in _ALPHABETS.items()}
    assert counts == {"sd": [264935, 4833719, 122867549], "total": [68140, 1539033, 39048100]}
    assert counts["total"][1] <= SWEEP_PREFIX_CAP < counts["sd"][1]


# sha256 of repr([(program_bits, output, pair, steps, size_bits), ...]) per sweep
FROZEN_RECORD_DIGESTS = {
    ("sd", 40, 10**4): "ac0f16a5293a681b6a5b06f251890f3b3c86698be6e649c4dc3f6b4a0af11f14",
    ("total", 40, STRUCTURAL): "cff47e4dfb19f1e8c63d4151f1e57a166be46fb59478f6112f9311a980ea08f9",
    # taken from the renaming-class sweep; they check the pruning up to 7 characters
    ("sd", 55, 10**4): "4cf8a9d54b59efe1b3bd9d7e8226911296ce5501c6feeec458cd61cbc543be6c",
    ("total", 55, STRUCTURAL): "533da9e4a853c1c41f9a34ed669a414f6846eecc8ed23bb3d2d5795bfde22064",
    ("sd", 63, 10**4, 7): "0276ee1dc246c2e981761b6fc87c5f7723afff2fc02c28a06113922776d61a8c",
    ("total", 63, STRUCTURAL, 7): "b5360efca5f468882fc886211d684f2c0ac2bf3695354ab48fe1b13c1148c868",
}


def test_frozen_record_digests():
    for args, digest in FROZEN_RECORD_DIGESTS.items():
        rows = [(r.program_bits, r.output, r.pair, r.steps, r.size_bits) for r in enumerate_halting(Ensemble(*args))]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, args
