"""The benchmark's tracer (bench/tracing.py) must keep working on the
library: it wraps entry points by name and binds their signatures, so a
renamed or re-shaped layer would break traced runs without this check."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from cpsurf import quadrature as quad
from cpsurf.quadrature import QuadratureSettings

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
# Taken by bench/run.py from the process and the traced pass as a whole,
# not from the tracer's layer counts.
RUN_LEVEL = {"process.cpu_s", "trace.overhead_frac"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("cpsurf_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_integrals_count_every_layer(tracing, osc_rb, silicon):
    coarse = QuadratureSettings(rel_tol=1e-4)
    plain = quad.plane_force(osc_rb, silicon, 1e-6, coarse)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = quad.plane_force(osc_rb, silicon, 1e-6, coarse)
        plane_counts = dict(tracer.counts)
        quad.response_g(osc_rb, silicon, 1e-6, 2e6, coarse)
    assert traced == plain
    assert plane_counts["quadrature.xi_nodes"] > 0
    assert plane_counts["optics.fresnel.elements"] > 0
    assert tracer.counts["kernel.points"] > 0
    assert tracer.counts["quadrature.xi_nodes"] > plane_counts["quadrature.xi_nodes"]
    assert quad.adaptive_gauss is tracing._integrate.adaptive_gauss

    metrics = tracer.layer_metrics()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for name in (m["name"] for m in declared if m["name"] not in RUN_LEVEL):
        assert math.isfinite(metrics[name]), name
    # Every adaptive panel hands the integrand the 17 G8/K17 nodes.
    gl_nodes = metrics["integrate.gl_nodes"]
    assert gl_nodes > 0 and gl_nodes % 17 == 0
