"""Expression parsing, printing, and the self-delimiting bit codec."""

import pytest
from hypothesis import given, strategies as st

import spec
from omegalab.bits import is_prefix_free
from omegalab.progs import pair_composer
from omegalab.sexpr import (
    ALPHABET,
    SExprDecodeError,
    SExprParseError,
    from_bits_prefix,
    parse,
    print_sexpr,
    to_bits,
)


def test_parse_examples():
    assert parse("()") == ()
    assert parse("(ab)") == ("a", "b")
    assert parse("q") == "q"
    assert parse("(a(b))") == ("a", ("b",))


def test_parse_errors_carry_index():
    with pytest.raises(SExprParseError) as exc:
        parse("(a")
    assert exc.value.index == 2
    with pytest.raises(SExprParseError) as exc:
        parse("(a)b")
    assert exc.value.index == 3
    with pytest.raises(SExprParseError):
        parse("(A)")


def test_print_examples():
    assert print_sexpr(("a", ("b",))) == "(a(b))"
    assert print_sexpr("q") == "q"
    assert print_sexpr(()) == "()"


def test_to_bits_lengths():
    assert len(to_bits(parse("()"))) == 16
    assert len(to_bits(parse("(a)"))) == 24
    with pytest.raises(SExprDecodeError):
        to_bits("a")


def test_from_bits_prefix_examples():
    e, n = from_bits_prefix(to_bits(parse("()")) + "101")
    assert e == () and n == 16
    e, n = from_bits_prefix(to_bits(parse("(a)")))
    assert e == ("a",) and n == 24
    with pytest.raises(SExprDecodeError):
        from_bits_prefix(to_bits(parse("(a)"))[:8])  # just "("
    with pytest.raises(SExprDecodeError):
        from_bits_prefix("00000000" + "0" * 16)  # NUL is not in the alphabet
    with pytest.raises(SExprDecodeError):
        from_bits_prefix(to_bits(parse("(a)"))[8:])  # first char not "("


exprs = st.recursive(
    st.sampled_from(ALPHABET),
    lambda kids: st.lists(kids, max_size=4).map(tuple),
    max_leaves=12,
)
list_exprs = exprs.filter(lambda e: isinstance(e, tuple))


@given(exprs)
def test_roundtrip(e):
    assert parse(print_sexpr(e)) == e


def _printed(e):
    # the canonical print written out recursively, character by character
    return e if isinstance(e, str) else "(" + "".join(_printed(x) for x in e) + ")"


@given(exprs)
def test_print_equals_a_recursive_printer(e):
    assert print_sexpr(e) == _printed(e)
    if isinstance(e, tuple):
        assert to_bits(e) == "".join(format(ord(ch), "08b") for ch in _printed(e))


def test_a_closure_has_no_print():
    from omegalab import vm

    closure = vm.eval_expr(parse("(lxx)"), 10).value
    for value in (closure, ("0", (closure,)), vm.Rec(closure)):
        with pytest.raises(TypeError):
            print_sexpr(value)


def test_a_print_builds_no_encoder(encoders_built):
    # the print's C encoder is built once, at import
    composer = pair_composer()
    assert parse(print_sexpr(composer)) == composer and len(to_bits(composer)) == 8 * len(print_sexpr(composer))
    assert encoders_built == []


@given(list_exprs, st.text(alphabet="01", max_size=20))
def test_self_delimiting_with_any_suffix(e, suffix):
    decoded, consumed = from_bits_prefix(to_bits(e) + suffix)
    assert decoded == e
    assert consumed == 8 * len(print_sexpr(e))


def test_encoding_prefix_free_exhaustive_small():
    codes = [to_bits(e) for e in spec.trees(4)]
    assert len(codes) == len(set(codes))
    ok, witness = is_prefix_free(codes)
    assert ok, witness
