"""The library names the benchmark harness reaches into still exist.

``bench/run.py --trace 1`` wraps module attributes by name
(``install_full_trace``) and calls the two point counters directly
(``check_point_counts``).  A refactor that drops or renames one of them
fails here rather than crashing a traced benchmark run.  Nothing under
``bench/`` is modified.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from lambda_forge import cli, config, curves, density, forms, levels, residual

BENCH = Path(__file__).resolve().parents[1] / "bench"
DEFAULT_CFG = BENCH.parent / "configs" / "default.cfg"


@pytest.fixture(scope="module")
def bench_run():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # run.py imports its sibling modules by name
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


class RecordingTracer:
    """Stands in for ``bench/tracer.Tracer``: records what would be wrapped, wraps nothing."""

    def __init__(self):
        self.patched = []

    def patch(self, module, attr, name, *, generator=False):
        self.patched.append((module, attr))


def test_every_traced_attribute_exists(bench_run):
    tracer = RecordingTracer()
    bench_run.install_full_trace(tracer, cli, config, curves, density, forms, levels, residual)
    assert tracer.patched
    missing = [f"{module.__name__}.{attr}" for module, attr in tracer.patched
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_point_count_oracle_calls_resolve(bench_run):
    # both engines at each ell, naive past its limit: 11a1 from the shipped config
    wl = SimpleNamespace(point_count_ranges=[(DEFAULT_CFG, [13, 3001, 5003])])
    tally = bench_run.Tally(wl)
    assert bench_run.check_point_counts(wl, config, curves, tally) == 3
    assert (tally.attempted, tally.failed) == (1, 0)
