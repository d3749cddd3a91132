"""The benchmark's tracer (bench/tracing.py) must keep working on the
library: it wraps entry points by name and binds their signatures, so a
renamed or re-shaped layer would break traced runs without this check."""

import contextlib
import importlib.util
import inspect
import io
import json
import math
from pathlib import Path

import pytest

from cpsurf import _integrate, cli, quadrature as quad
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


# Distances no other test uses, so nothing earlier in the session can have
# made a pass cheap; --rel-tol 1e-4 keeps each pass small.
TRACED_CLI_RUNS = {
    "plane": ["plane", "--atom", "rb87", "--surface", "gold", "--z", "1.2345e-6,3.4567e-6"],
    "response": [
        "response", "--atom", "rb87", "--surface", "silicon", "--z", "1.2345e-6", "--kz", "0,3",
    ],
    "corrugation": [
        "corrugation", "--atom", "rb87-static", "--surface", "perfect", "--z", "2.3456e-6",
        "--lambda-c", "1.0123e-5", "--x-points", "3",
    ],
}


@pytest.mark.parametrize("name", sorted(TRACED_CLI_RUNS))
def test_traced_cli_passes_repeat_and_match_untraced(tracing, name):
    # bench/run.py fails a traced run whose layer counts differ between
    # passes or whose CSV bytes differ from the untraced ones. State kept
    # from one invocation to the next (a cross-call cache) makes a later
    # pass count less work, or none: the first pass must integrate.
    argv = TRACED_CLI_RUNS[name] + ["--rel-tol", "1e-4"]

    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    texts, counts = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            texts.append(run())
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    texts.append(run())
    assert counts[0] == counts[1]
    assert counts[0]["optics.fresnel.calls"] > 0
    assert texts[0] == texts[1] == texts[2]


def test_tracer_patches_resolve_and_restore(tracing):
    # Every (owner, attribute) the tracer patches must exist on its owner
    # itself (installed() reads vars(owner)[attr]: a name the library no
    # longer binds is a KeyError that ends every traced run), and on exit
    # each must be the original object again.
    tracer = tracing.Tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer._patches()]
    originals = [vars(owner)[attr] for owner, attr in targets]
    with tracer.installed():
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, (owner, attr)
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, (owner, attr)


def test_adaptive_gauss_keeps_the_options_the_tracer_reads():
    # The tracer binds adaptive_gauss's signature (_AG_SIG) and reads the
    # bound n_high and initial_panels to count the useful G8/K17 nodes.
    # The rule is a fixed table, so n_high admits 17 alone.
    params = inspect.signature(_integrate.adaptive_gauss).parameters
    assert params["n_high"].default == 17
    assert params["initial_panels"].default == 4
    assert _integrate.adaptive_gauss(lambda x: x, 0.0, 1.0, 1e-10, n_high=17)[0] == 0.5
    with pytest.raises(ValueError, match="n_high"):
        _integrate.adaptive_gauss(lambda x: x, 0.0, 1.0, 1e-10, n_high=15)
