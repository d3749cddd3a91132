"""cpsurf benchmark: seeded CLI sweeps run in-process, closed loop.

    python3 bench/run.py --workload plane_gold --seed 1 --seconds 10 --trace 0

One pass of a workload runs its CLI invocations (``cpsurf.cli.main``) one
after another in this process; passes repeat until ``--seconds`` is spent
(at least three untraced passes). Every pass is checked: exit code 0,
finite values within their reported error of a closed form or the stored
reference, and CSV bytes identical to the first pass of the run. The
last stdout line is one JSON object; the lines before it list every
metric with its unit, quartiles and sample count.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
spends half the time on untraced passes and half on traced ones
(tracing.py, at least two), reports the per-layer metrics, and also
fails the run unless the traced CSV bytes equal the untraced ones, the
per-layer counts repeat exactly between traced passes, and the span self
times of each traced pass sum to its wall time. Spans are written to
.bench_work/<workload>/spans.csv.

CPSURF_THREADS is removed from the environment, so the default sweep
path is measured. Files go under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(".bench_work")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
SELF_SUM_REL_TOL = 1e-3
MAX_PROBLEMS_SHOWN = 5

# Cold start: a fresh interpreter imports cpsurf, builds the workload's
# atom and surface models and the argument parser.
SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
from cpsurf import cli
cli.build_atom({atom!r})
cli.build_surface({surface!r})
cli.build_parser()
"""


def import_program():
    """Import cpsurf from this checkout's src/, or exit without a result."""
    if not (SRC / "cpsurf" / "__init__.py").is_file():
        sys.exit(f"error: cpsurf sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from cpsurf import cli

    if Path(cli.__file__).resolve().parent != (SRC / "cpsurf").resolve():
        sys.exit(f"error: imported cpsurf from {cli.__file__}, not {SRC}")
    return cli


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_reuse", "_p50")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.first_texts: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.rel_errs: list[float] = []
        self.problems: list[str] = []

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
            err.write(traceback.format_exc())
        if rc != 0:
            self.problems.append(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        return rc, out.getvalue()

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One timed pass; returns (wall s, cpu s) and checks the outputs."""
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        results = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with span("bench.pass"):
            for inv in self.workload.invocations:
                with span("cli.main"):
                    results.append(self._invoke(inv.argv))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self._check(results)
        return wall, cpu

    def _check(self, results: list[tuple[int, str]]) -> None:
        invocations = self.workload.invocations
        codes = [rc for rc, _ in results]
        texts = [
            Path(inv.output).read_text() if inv.output and rc == 0 else stdout
            for inv, (rc, stdout) in zip(invocations, results)
        ]
        first = self.first_texts is None
        if first:
            self.first_texts = texts
        for inv, rc, text, ref_text in zip(invocations, codes, texts, self.first_texts):
            rows = inv.check(text) if rc == 0 else []
            same = text == ref_text
            if not same:
                self.problems.append(f"{inv.argv[0]}: CSV bytes differ from the first pass")
            self.attempted += inv.rows
            bad = inv.rows - sum(1 for r in rows if r.ok and same and rc == 0)
            if bad and rc == 0 and same:
                self.problems.append(f"{inv.argv[0]}: {bad} grid point(s) failed the check")
            self.failed += bad
            if first:
                self.rel_errs += [e for r in rows for e in r.rel_errs]


def timed_passes(runner: Runner, budget: float, minimum: int, tracer_factory=None):
    """Run passes until the budget would be overrun; returns walls, cpus, tracers."""
    walls, cpus, tracers = [], [], []
    start = time.perf_counter()
    while len(walls) < minimum or (
        time.perf_counter() - start + statistics.median(walls) <= budget
    ):
        if tracer_factory is None:
            wall, cpu = runner.run_pass()
        else:
            tracer = tracer_factory()
            with tracer.installed():
                wall, cpu = runner.run_pass(tracer)
            tracers.append((tracer, wall))
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, tracers


def measure_setup(workload) -> list[float]:
    code = SETUP_CODE.format(src=str(SRC), atom=workload.atom, surface=workload.surface)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return times


def trace_checks(runner: Runner, tracers) -> dict[str, float]:
    """Per-layer metrics of the traced passes, plus the tracer self-checks."""
    per_pass = [tracer.layer_metrics() for tracer, _ in tracers]
    counts = [{k: v for k, v in m.items() if unit_of(k) != "s"} for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        runner.problems.append("per-layer counts differ between traced passes")
    for tracer, wall in tracers:
        total = sum(tracer.self_times().values())
        if abs(total - wall) > SELF_SUM_REL_TOL * wall:
            runner.problems.append(f"span self times sum to {total:.6f} s, wall {wall:.6f} s")
    return {
        name: statistics.median(m[name] for m in per_pass) if unit_of(name) == "s" else value
        for name, value in per_pass[0].items()
    }


def emit(runner: Runner, metrics: dict[str, float], spread: dict[str, list[float]]) -> None:
    frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"# workload {runner.workload.name}: {runner.attempted} grid points, "
          f"{runner.failed} failed, fail_frac = {frac:.6g} ratio")
    for problem in runner.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"# problem: {problem}")
    if len(runner.problems) > MAX_PROBLEMS_SHOWN:
        print(f"# ... {len(runner.problems) - MAX_PROBLEMS_SHOWN} more problems")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    for name, values in spread.items():
        q1, q2, q3 = quartiles(values)
        print(f"# {name}: median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)}")
    result = {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    os.environ.pop("CPSURF_THREADS", None)
    cli = import_program()
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work, workloads.load_reference())
    runner = Runner(cli, workload)

    if args.trace == 0:
        walls, cpus, _ = timed_passes(runner, args.seconds, MIN_PASSES)
        setups = measure_setup(workload)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # No checked value (the first pass failed): report 100% error.
            "reported_rel_err_p50": statistics.median(runner.rel_errs or [1.0]),
        }
        emit(runner, metrics, {"wall_s": walls, "setup_s": setups})
        return 0

    walls, cpus, _ = timed_passes(runner, args.seconds / 2, 1)
    traced_walls, _, tracers = timed_passes(
        runner, args.seconds / 2, MIN_TRACED_PASSES, tracing.Tracer
    )
    metrics = trace_checks(runner, tracers)
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    with open(work / "spans.csv", "w") as fh:
        fh.write("pass,span,name,start_s,end_s,parent\n")
        for n, (tracer, _) in enumerate(tracers):
            tracer.write_spans(fh, str(n))
    emit(runner, metrics, {"untraced wall_s": walls, "traced wall_s": traced_walls})
    return 0


if __name__ == "__main__":
    sys.exit(main())
