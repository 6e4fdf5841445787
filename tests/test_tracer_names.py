"""The names the benchmark tracer (perfbench/spans.py) wraps and reads.

A traced run resolves each name against the library; an internal rename
would otherwise surface only as a failing `--trace 1` run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_function_resolves(spans):
    for target in spans.TARGETS:
        assert callable(spans._resolve(target.module, target.attr)[2]), target.span


def test_every_traced_cache_reports(spans):
    for metric, (module, attr) in spans.CACHES.items():
        info = spans._resolve(module, attr)[2].cache_info()
        assert info.hits >= 0 and info.misses >= 0, metric
