"""The public API against tests/spec.py, which lists every program and runs
it by the reference evaluator: records, tables, capped Ω and the oracle, on
every tree of up to 5 characters and on every raw c2 string of up to 17 bits;
and the sweep's records on seeded draws of 7 to 10 characters."""

import itertools
import random
from fractions import Fraction

import pytest

import spec
from omegalab.complexity import STRUCTURAL, Ensemble, build_table, enumerate_halting, explicit_records
from omegalab.omega import decided_halting_set, omega_exact_capped, omega_lower_bound, oracle_halting_from_omega
from omegalab.sexpr import ALPHABET, SExprParseError, from_bits_prefix, parse, print_sexpr, to_bits

_AUXES = (None, "", "0", "1", "01")


def test_the_spec_lists_every_list_once():
    # every list of up to 5 characters is "(", 0 to 3 characters, ")": the
    # strings of that form that parse are the spec's trees, shortest first
    for alphabet, count in ((ALPHABET, 22_850), (spec.TOTAL_ALPHABET, 18_358)):
        parsed = set()
        for n in range(4):
            for inner in itertools.product(alphabet + "()", repeat=n):
                try:
                    parsed.add(parse("(" + "".join(inner) + ")"))
                except SExprParseError:
                    pass
        trees = spec.trees(5, alphabet)
        assert len(trees) == len(set(trees)) == len(parsed) == count and set(trees) == parsed, alphabet
        assert [len(print_sexpr(t)) for t in trees] == sorted(len(print_sexpr(t)) for t in trees)
        assert spec.trees(5, alphabet, atoms=True) == [*alphabet, *trees]


def test_the_spec_folds_records_by_hand():
    # (bits, output, pair, steps, size, aux read, count), out of order: a tie
    # at "1"'s least size met larger witness first, a larger program of "1",
    # a pair, a counted record that converts to neither, and output ""
    found = [("100", "1", None, 1, 3, "", 1), ("01", "1", None, 1, 2, "", 1), ("00", "1", None, 1, 2, "", 1),
             ("101", None, ("0", ""), 1, 3, "", 1), ("1100", None, None, 1, 4, "", 3),
             ("11100", "", None, 1, 5, "", 1)]
    assert spec.fold(found, "sd") == (
        [("", (5, "11100", 1, Fraction(1, 32))), ("1", (2, "00", 2, Fraction(5, 8)))],
        [(("0", ""), (3, "101", 1, Fraction(1, 8)))], Fraction(31, 32), Fraction(3, 16), 8)
    assert spec.fold(found, "c2") == ([("", (5, "11100", 1, None)), ("1", (2, "00", 2, None))],
                                      [(("0", ""), (3, "101", 1, None))], 0, 0, 8)


@pytest.mark.parametrize("machine, B", [("sd", 0), ("sd", 1), ("sd", 3), ("sd", 10**4), ("total", 0),
                                        ("total", 1), ("total", 3), ("total", 10**4), ("total", STRUCTURAL)])
def test_records_and_tables_equal_the_spec(machine, B):
    # every tree of at most 5 characters (22,850 on sd, 18,358 on total), at
    # every L <= 47 and under every aux; aux readers and every member of a
    # counted record are among them once a step is allowed
    everything = spec.halting(machine, 47, B, 5)
    assert {r[5] for r in everything} == ({""} if B == 0 else {"", "0", "1"})
    assert (to_bits(("q", "z")) in {r[0] for r in everything}) == (B != 0)
    for L in range(48):
        found = [r for r in everything if r[4] <= L]
        for aux in _AUXES:
            got = enumerate_halting(Ensemble(machine, L, B, 5), aux)
            assert [tuple(r) for r in got] == spec.under(found, aux), (L, aux)
        table = build_table(Ensemble(machine, L, B, 5))
        assert spec.table_view(table) == spec.fold(spec.under(found, None), machine), L
        assert table.exhaustive_limit == L and omega_lower_bound(Ensemble(machine, L, B, 5)) is table
    got = enumerate_halting(Ensemble(machine, 47, B, 5), "01")
    assert [tuple(r) for r in got] == spec.under(everything, "01")
    # the spec's projection by aux read is the run of every tree with the aux loaded
    assert B != 10**4 or spec.under(everything, "01") == spec.halting(machine, 47, B, 5, "01")


def test_the_oracle_decides_the_spec_halting_set():
    # on the first k bits of the spec's Ω, for every k <= L <= 47
    everything = spec.halting("total", 47, STRUCTURAL, 5)
    for L in range(48):
        found = spec.under([r for r in everything if r[4] <= L], None)
        omega = spec.fold(found, "total")[2]
        for k in range(L + 1):
            res = oracle_halting_from_omega(spec.leading_bits(omega, k), Ensemble("total", L, STRUCTURAL, 5))
            assert (res.tripped, res.halting_set) == (False, spec.halting_set(found, k)), (L, k)
            assert decided_halting_set(L, k, 5) == res.halting_set, (L, k)


def test_exact_capped_omega_equals_the_spec():
    # at the default c_cap a program of at most 47 bits has at most 5 characters
    everything = spec.halting("total", 47, STRUCTURAL, 5)
    for L in range(48):
        found = spec.under([r for r in everything if r[4] <= L], None)
        assert spec.table_view(omega_exact_capped(L)) == spec.fold(found, "total"), L


def test_tied_records_in_either_order_fold_as_the_spec(monkeypatch):
    # the sweeps up to c_cap 10 have no two programs tied at an output's least
    # size, so each record gets a twin of its size and output, its last bit
    # flipped.  The store serves records in no order, so the fold may not
    # rely on one: reversed, the records give the same table
    from omegalab import complexity

    ens = Ensemble("sd", 56, 10**4)
    records = explicit_records(ens)
    records += [r._replace(program_bits=r.program_bits[:-1] + "10"[int(r.program_bits[-1])]) for r in records]
    tables = []
    for order in (records, records[::-1]):
        monkeypatch.setattr(complexity, "explicit_records", lambda ens, order=order: order)
        tables.append(build_table.__wrapped__(ens))
    assert tables[0] == tables[1] and spec.table_view(tables[0]) == spec.fold(records, "sd")
    assert [e.minimal_count for e in tables[0].entries.values()] == [2] * len(tables[0].entries)


@pytest.mark.parametrize("B", [0, 1, 100])
def test_c2_records_and_tables_equal_the_spec(B):
    # every raw string of 1..L bits; at 17 the first leading-1 program, 1 +
    # bits("()"), meets the leading-0 family (L 15 and 16 would cost as much)
    everything = spec.c2_records(17, B)
    for L in [*range(15), 17]:
        found = [r for r in everything if r[4] <= L]
        table = build_table(Ensemble("c2", L, B))
        assert spec.table_view(table) == spec.fold(found, "c2"), L
        assert table.exhaustive_limit == L


def _drawn_list(rng, m, alphabet):
    """A list of alphabet printing to m >= 2 characters, drawn over the
    calculus's forms: most often a primitive form of its arity, else where l
    is in alphabet a let ((l p B) A), its p an atom of B when B has one, else
    an application (F A), else any items; an item of one character is an atom."""
    inner, kind = m - 2, rng.random()
    if kind < 0.6 and inner:
        head = rng.choice([a for a in alphabet if a in spec.ARITY])
        count = spec.ARITY[head] if rng.random() < 0.9 else rng.randint(0, 3)
        return (head,) + _drawn_items(rng, inner - 1, count, alphabet)
    if kind < 0.7 and "l" in alphabet and inner >= 6:
        n = rng.randint(1, inner - 5)  # B's print length: (l p B) has n + 4 characters, A at least 1
        (body,), (arg,) = _drawn_items(rng, n, 1, alphabet), _drawn_items(rng, inner - n - 4, 1, alphabet)
        names = [a for a in _atoms(body) if a not in spec.ARITY] or [a for a in alphabet if a not in spec.ARITY]
        return ("l", rng.choice(names), body), arg
    return _drawn_items(rng, inner, 2 if kind < 0.85 else rng.randint(0, 4), alphabet)


def _atoms(e):
    """The atoms of e, in print order."""
    return [e] if isinstance(e, str) else [a for x in e for a in _atoms(x)]


def _drawn_items(rng, m, count, alphabet):
    """About count items printing to m characters in all: between 1 and m of
    them, or none when m is 0."""
    if not m:
        return ()
    bounds = [0, *sorted(rng.sample(range(1, m), max(1, min(count, m)) - 1)), m]
    return tuple(rng.choice(alphabet) if b - a == 1 else _drawn_list(rng, b - a, alphabet)
                 for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("machine, B", [("sd", 100), ("total", STRUCTURAL)])
def test_drawn_trees_of_7_to_10_characters_halt_only_as_swept(machine, B):
    # past the grid above: 6,000 seeded draws of 7 to 10 characters, each run
    # by the reference evaluator with payload and aux grown one bit per
    # underrun.  Every halting (program, aux read) is a record of the sweep
    # at c_cap 10, field by field.  Listing the members of its counted
    # records would make 29 million records on sd, so a program with no
    # record of its own must be a (q X) or (l p X) that converts to no
    # output, with a counted record of its size, steps and aux read
    alphabet = ALPHABET if machine == "sd" else spec.TOTAL_ALPHABET
    rng = random.Random(f"{machine} 7-10")
    trees = list(dict.fromkeys(_drawn_list(rng, rng.randint(7, 10), alphabet) for _ in range(6000)))
    found = spec.records(trees, 87, B)
    ens, swept = Ensemble(machine, 87, B, 10), {}
    for r in found:
        if r[5] not in swept:
            records = explicit_records(ens, r[5] or None)
            swept[r[5]] = ({tuple(x) for x in records}, {tuple(x)[1:6] for x in records if x.count > 1})
        explicit, counted = swept[r[5]]
        tree = from_bits_prefix(r[0])[0]
        assert r in explicit or (tree[0] in ("q", "l") and r[1:6] in counted), (print_sexpr(tree), r)
    halting = {from_bits_prefix(r[0])[0] for r in found}  # enough draws halt, constants or not, lets on sd
    assert len(halting) >= 300 and sum(tree[0] not in ("q", "l") for tree in halting) >= 50
    assert sum(type(tree[0]) is tuple for tree in halting) >= (20 if machine == "sd" else 0)
