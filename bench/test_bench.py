"""Self-tests for the benchmark's own arithmetic: python3 -m pytest bench -q"""

import json
import os
import sys
import types

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _span(tracer, name, start, end, parent):
    tracer.name.append(tracer._name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    return len(tracer.name) - 1


def test_self_time_subtracts_direct_children_only():
    t = spans.Tracer()
    a = _span(t, "a", 0.0, 10.0, -1)
    b = _span(t, "b", 1.0, 5.0, a)
    _span(t, "c", 2.0, 3.0, b)
    _span(t, "b", 6.0, 7.0, a)
    assert t.self_times() == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert t.child_spans("b", "a") == 2 and t.child_spans("c", "a") == 0


def test_recursive_calls_are_counted_but_open_no_nested_span():
    t = spans.Tracer()
    box = {}

    def fact(n):
        return 1 if n == 0 else n * box["fact"](n - 1)

    box["fact"] = t.wrap(fact, "fact")
    assert box["fact"](5) == 120
    assert t.calls == [6]
    assert len(t.name) == 1 and t.parent[0] == -1


def test_unwrapped_recursion_is_counted_from_the_result():
    mod = types.ModuleType("printer")
    exec("def show(e):\n"
         "    return e if isinstance(e, str) else '(' + ''.join(show(x) for x in e) + ')'\n",
         mod.__dict__)
    t = spans.Tracer()
    wrapped = t.wrap(mod.show, "show", recursion=(mod, lambda s: len(s) - s.count(")") - 1))
    mod.show = wrapped
    assert mod.show(("a", ("b",), ())) == "(a(b)())"
    assert t.calls == [5]  # the list, a, (b), b and ()
    assert len(t.name) == 1 and mod.show is wrapped


def test_nested_layers_record_their_parent():
    t = spans.Tracer()
    inner = t.wrap(lambda x: x + 1, "inner")
    outer = t.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert [t.span_names[i] for i in t.name] == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert t.end[1] <= t.end[0]


def test_fault_classes_cover_every_vm_reason():
    assert spans.fault_class("payload-underrun") == "payload_underrun"
    assert spans.fault_class("aux-underrun") == "aux_underrun"
    assert spans.fault_class("type: unbound atom 'x'") == "type"
    assert spans.fault_class("fragment") == "fragment"
    with pytest.raises(ValueError):
        spans.fault_class("something new")


@pytest.mark.parametrize("n, value, percentile", [
    (5, 5, 100.0),  # below eleven samples: the maximum
    (10, 10, 100.0),
    (11, 1, 100.0 / 11),
    (20, 10, 50.0),
    (100, 90, 90.0),
])
def test_tail_has_ten_samples_beyond_it(n, value, percentile):
    samples = list(range(n, 0, -1))
    got, pct = stats.tail(samples)
    assert got == value and pct == pytest.approx(percentile)
    if n > stats.TAIL_BEYOND:
        assert sum(1 for s in samples if s > got) == stats.TAIL_BEYOND


def _chain_report(rows, skipped):
    return json.dumps({"result": {"K": 16448, "pairs": rows, "skipped": skipped}})


def _row(x, y, h_xy=40, h_x=16, h_y=20, ok=True):
    return {"x": x, "y": y, "h_xy": h_xy, "h_x": h_x, "h_y_given_xstar": h_y, "composed_verified": ok}


CHAIN = ["chain", "--machine", "sd", "--pairs", ":;:1;0:;0:1;01:;01:1", "--L", "96"]


def _no_decided(L, k):
    raise AssertionError("not used")


def test_failed_share_counts_skipped_pairs_as_failed_but_correct():
    rows = [_row("", ""), _row("", "1"), _row("0", ""), _row("0", "1")]
    skipped = [{"x": "01", "y": y, "reason": "h(x) not found"} for y in ("", "1")]
    v = checks.check_pass([(CHAIN, 0, _chain_report(rows, skipped))], _no_decided)
    assert (v.attempted, v.failed, v.problems) == (6, 2, [])
    assert (v.certified_pairs, v.skipped_pairs) == (4, 2)


def test_failed_share_counts_exits_and_broken_invariants():
    rows = [_row("", ""), _row("", "1", h_xy=10**6), _row("0", ""), _row("0", "1")]
    coding = ["coding", "--machine", "sd", "--L", "40"]
    bad_coding = json.dumps({"result": {"entries": [{"output": "", "h_upper": 3, "prob": "1/2^4"}]}})
    skipped = [{"x": "01", "y": y, "reason": "h(x) not found"} for y in ("", "1")]
    v = checks.check_pass([(CHAIN, 0, _chain_report(rows, skipped)), (coding, 0, bad_coding),
                           (["omega", "exact", "--L", "40"], 2, "")], _no_decided)
    assert (v.attempted, v.failed) == (8, 8)
    assert len(v.problems) == 3


def _omega(B, value, contributing=1):
    return json.dumps({"result": {"machine": "total", "L": 40, "B": B, "value": value,
                                  "contributing": contributing}})


def _lower(B):
    return ["omega", "lower", "--machine", "total", "--L", "40", "--B", str(B)]


def test_omega_checks_monotone_and_structural_agreement():
    good = [(_lower(1), 0, _omega(1, "1/2^3")), (_lower(100), 0, _omega(100, "3/2^3", 2)),
            (["omega", "exact", "--L", "40"], 0, _omega("structural", "3/2^3", 2))]
    assert checks.check_pass(good, _no_decided).problems == []
    shrinking = good[:1] + [(_lower(3), 0, _omega(3, "1/2^4"))]
    assert checks.check_pass(shrinking, _no_decided).failed == 1
    disagree = good[:2] + [(["omega", "exact", "--L", "40"], 0, _omega("structural", "7/2^3", 3))]
    assert checks.check_pass(disagree, _no_decided).failed == 1
    above_one = [(_lower(1), 0, _omega(1, "9/2^3"))]
    assert checks.check_pass(above_one, _no_decided).failed == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prefix_count_matches_gen_exprs(k):
    from omegalab.complexity import gen_exprs
    from omegalab.vm import contains_general_only_prims

    exprs = gen_exprs(k)
    assert workloads.prefix_count("sd", 8 * k, 99) == len(exprs)
    assert workloads.prefix_count("total", 8 * k + 7, k) == sum(
        1 for e in exprs if not contains_general_only_prims(e))
    assert workloads.prefix_count("sd", 8 * k + 8, k) == len(exprs)  # the cap binds
    assert workloads.prefix_count("c2", 8 * k, k) == 0


def test_chain_draw_is_seeded_and_always_holds_a_two_bit_x():
    for seed in range(20):
        pairs = workloads.draw_pairs(seed)
        assert pairs == workloads.draw_pairs(seed)
        assert sorted(len(x) for x, _ in pairs) == [0, 0, 1, 1, 2, 2]
        assert all(x in workloads.PAIR_ALPHABET and y in workloads.PAIR_ALPHABET for x, y in pairs)
    assert len({workloads.pairs_arg(workloads.draw_pairs(s)) for s in range(20)}) > 1


def test_pass_count_is_fixed_by_seconds():
    assert workloads.pass_count("sweep", 20) == 10
    assert workloads.pass_count("berry", 20) == 1  # never zero
    assert workloads.pass_count("reuse", 20) == 5


def test_chain_ensembles_follow_the_report():
    argv = workloads.commands("chain", 3)[0]
    report = {"result": {"pairs": [_row("", ""), _row("1", "0")],
                         "skipped": [{"x": "10", "y": "", "reason": "h(x) not found"}]}}
    assert workloads.ensembles(argv, report) == [("sd", 96, workloads.CHAIN_CHAR_CAP)] * 3


def test_reference_seconds_rescale_by_the_loop_and_drop_its_own_time():
    ref = speed.REF_LOOP_S
    # full speed throughout: wall time less the two loops run inside the pass
    at_full = [(1.0, ref), (2.0, ref)]
    assert speed.reference_seconds(0.0, 3.0, at_full, ref) == pytest.approx(3.0 - 2 * ref)
    # the same pass at half speed takes twice the wall time and as many reference seconds
    at_half = [(2.0, 2 * ref), (4.0, 2 * ref)]
    assert speed.reference_seconds(0.0, 6.0, at_half, 2 * ref) == pytest.approx(3.0 - 2 * ref)
    # each stretch is scaled by the loop that ends it; the last by the loop after the end
    mixed = [(1.0, ref), (3.0, 2 * ref)]
    assert speed.reference_seconds(0.0, 5.0, mixed, 2 * ref) == pytest.approx(
        (1.0 - ref) + (2.0 - 2 * ref) / 2 + 2.0 / 2)
    assert speed.reference_seconds(0.0, 0.5, [], 2 * ref) == pytest.approx(0.25)
