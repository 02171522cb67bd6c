"""The benchmark tracer's rebind table names only functions that exist."""

import importlib.util
import os

import omegalab.cli  # noqa: F401  (imports every module the tracer rebinds in)

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # rebind raises on a name the package no longer has
    finally:
        tracer.uninstall()
    assert "vm.eval" in tracer.span_names and "sexpr.to_bits" in tracer.span_names
