"""Symbolic expressions: parser, canonical printer, and the bit-level codec.

An expression is either a one-character atom (a-z, 0, 1) or a list of
expressions.  Atoms are Python one-character strings, lists are tuples, so
expressions are immutable and hashable.  The canonical printed form has no
whitespace and round-trips exactly.

The bit codec writes 8 bits per printed character (ASCII, MSB first): to_bits
reads the print as one big-endian integer and writes it in binary, zero-padded
to 8 digits a character.  A list expression is self-delimiting under this
encoding: a decoder reading 8-bit characters can tell where it ends by
tracking parenthesis balance, which is what lets encoded expressions serve as
machine prefixes.
"""

from __future__ import annotations

import json
from typing import Tuple, Union

from .bits import BitString

SExpr = Union[str, tuple]

ALPHABET = "abcdefghijklmnopqrstuvwxyz01"
_CHARS = ALPHABET + "()"
CHAR_BITS = {ch: format(ord(ch), "08b") for ch in _CHARS}
BITS_CHAR = {v: k for k, v in CHAR_BITS.items()}
# A tuple of one-character atoms is a JSON array of strings; json's C encoder
# writes it as ["a"["b"]], and dropping the quotes and swapping the brackets
# for parentheses gives the canonical print (a(b)).  An expression is a tree
# of tuples, so no cycle check is needed; the encoder's depth guard still
# raises RecursionError on one nested too deep.
_ENCODE = json.JSONEncoder(separators=("", ""), check_circular=False).encode
_JSON_TO_PRINT = str.maketrans({'"': None, "[": "(", "]": ")"})


class SExprParseError(ValueError):
    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(f"{message} at index {index}")


class SExprDecodeError(ValueError):
    """Bit-level decode failure; machine callers treat this as a non-halting program."""


def is_atom(e: SExpr) -> bool:
    return isinstance(e, str)


def parse(text: str) -> SExpr:
    """Parse one expression: expr := atom-char | '(' expr* ')'."""
    expr, pos = _parse_at(text, 0)
    if pos != len(text):
        raise SExprParseError("trailing garbage", pos)
    return expr


def _parse_at(text: str, pos: int) -> Tuple[SExpr, int]:
    if pos >= len(text):
        raise SExprParseError("unexpected end of input", pos)
    ch = text[pos]
    if ch in ALPHABET:
        return ch, pos + 1
    if ch != "(":
        raise SExprParseError(f"illegal character {ch!r}", pos)
    pos += 1
    items = []
    while True:
        if pos >= len(text):
            raise SExprParseError("unbalanced parenthesis", pos)
        if text[pos] == ")":
            return tuple(items), pos + 1
        item, pos = _parse_at(text, pos)
        items.append(item)


def print_sexpr(e: SExpr) -> str:
    """Canonical whitespace-free form; parse(print_sexpr(e)) == e.  A value
    holding a closure is not an expression: it raises TypeError."""
    return _ENCODE(e).translate(_JSON_TO_PRINT)


def to_bits(e: SExpr) -> BitString:
    """Encode a list expression, 8 bits per printed character."""
    if is_atom(e):
        raise SExprDecodeError("bare atoms are not self-delimiting; only lists encode")
    text = print_sexpr(e)
    return format(int.from_bytes(text.encode(), "big"), f"0{8 * len(text)}b")


def from_bits_prefix(bits: BitString) -> Tuple[SExpr, int]:
    """Decode one list expression from the front of a bit string.

    Reads 8-bit characters until parenthesis balance returns to zero and
    returns (expression, bits consumed); the remaining bits are untouched.
    """
    chars = []
    depth = 0
    pos = 0
    while True:
        if pos + 8 > len(bits):
            raise SExprDecodeError("bits exhausted before expression closed")
        code = bits[pos : pos + 8]
        ch = BITS_CHAR.get(code)
        if ch is None:
            raise SExprDecodeError(f"8-bit group {code} at bit {pos} is not in the alphabet")
        if pos == 0 and ch != "(":
            raise SExprDecodeError("prefix must start with '('")
        pos += 8
        chars.append(ch)
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return parse("".join(chars)), pos
