"""Report serialization: emit_json prints exactly as json.dumps(indent=2)."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from omegalab.cli import main
from omegalab.reports import emit_json

_text = st.text(st.sampled_from("ab\"\\\n\t\x00\x1f\x7fé☃\U0001f600"), max_size=6)
_scalars = (st.none() | st.booleans() | st.integers(min_value=-2**70, max_value=2**70)
            | st.floats() | _text)
_keys = _text | st.none() | st.booleans() | st.integers(min_value=-2**70, max_value=2**70)
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_emit_json_is_json_dumps_indent_2(value):
    assert emit_json(value) == json.dumps(value, indent=2) + "\n"


def test_emit_json_edge_cases():
    for value in ({}, [], (), {"a": {}, "b": [[], ()]}, [{}, {"x": []}], {1: None, None: 1.5, True: "é"},
                  {"n": 2**64 + 1, "f": float("nan"), "g": -float("inf")}, [[[{"k": [1]}]]]):
        assert emit_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("argv, size, digest", [
    (["sweep", "--machine", "c2", "--L", "14", "--B", "10000"], 2965223,
     "c7cdab824ea117c570de6a551d27ad430d682e346d99ba210911b80c304e00c7"),
    (["sweep", "--machine", "c2", "--L", "17", "--B", "0"], None,
     "0def7c445ba8b166dba28ba24e2c4961b9b0746b28d19dc7104f1020a58563cd"),
    (["sweep", "--machine", "c2", "--L", "17", "--B", "1", "--csv"], None,
     "c16e0f182e8988cf54ab45b9f5f273dbdcfdce156a2bb34eb45ffc51d8de7667"),
])
def test_c2_sweep_stdout_is_frozen(capsys, argv, size, digest):
    # frozen from the raw-scan c2 sweep and json.dumps(indent=2) itself
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert size is None or len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest
