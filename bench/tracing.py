"""Out-of-program tracing of cpsurf's layers for the benchmark.

``Tracer.installed()`` replaces each layer entry point, at the module
attribute its callers look up (``quadrature.fresnel``, ``kernel.fresnel``,
``cli.g_evaluator``, ...), with a wrapper that records a span (name,
start, end, parent) and the counts behind the per-layer metrics, and puts
every original back on exit. Spans stay in flat in-memory arrays until
``write_spans``. A span's self time is its duration minus the durations of
its direct children, so the self times of one pass sum to the root span.

Counts are taken before a span opens, so their bookkeeping is charged to
the caller's self time rather than to the layer being counted.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

from cpsurf import _integrate, cli, kernel, optics, quadrature

_AG_SIG = inspect.signature(_integrate.adaptive_gauss)
_EPS_CLASSES = (optics.PlasmaMetal, optics.DrudeLorentz, optics.TabulatedPermittivity)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.cc_max_points = 0
        self._kp_legs: list[tuple[float, np.ndarray]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        per_name = np.bincount(
            np.frombuffer(self.name_id, dtype=np.int32), weights=own, minlength=len(self.names)
        )
        return dict(zip(self.names, per_name.tolist()))

    def write_spans(self, fh, label: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        for i in range(len(self.start)):
            fh.write(
                f"{label},{i},{self.names[self.name_id[i]]},"
                f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n"
            )

    # -- counts derived after the pass --------------------------------------

    def kp_distinct(self) -> int:
        seen: set[tuple[float, float]] = set()
        for xi, kp in self._kp_legs:
            seen.update((xi, v) for v in np.unique(kp).tolist())
        return len(seen)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, fn, name: str, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return wrapper

    def _counted(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _adaptive_gauss(self, fn):
        tracer = self
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            bound = _AG_SIG.bind(f, *args, **kwargs)
            bound.apply_defaults()
            opts = bound.arguments
            seen = [0, 0]  # abscissae, integrand calls

            def counted(x):
                seen[0] += len(x)
                seen[1] += 1
                return f(x)

            counts["integrate.adaptive_gauss.calls"] += 1
            i = tracer.open("integrate.adaptive_gauss")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.close(i)
                # Each panel estimate is one low- and one high-order call;
                # every split adds two panels and retires one.
                estimates = seen[1] // 2
                accepted = (estimates + opts["initial_panels"]) // 2
                counts["integrate.gl_nodes"] += seen[0]
                counts["integrate.gl_useful_nodes"] += accepted * opts["n_high"]

        return wrapper

    def _cc_batch(self, fn):
        tracer = self
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            points = [0]

            def counted(phi):
                points[0] += len(phi)
                return f(phi)

            counts["integrate.cc_batch.calls"] += 1
            i = tracer.open("integrate.cc_batch")
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.close(i)
                tracer.cc_max_points = max(tracer.cc_max_points, points[0])

        return wrapper

    def _count_kernel_point(self, surface, xi, kp, kpp, cos_dphi, sin_dphi):
        self.counts["kernel.points"] += np.size(kpp)
        self._kp_legs.append((xi, kp))

    def _count_fresnel(self, model, k, xi):
        self.counts["optics.fresnel.calls"] += 1
        self.counts["optics.fresnel.elements"] += np.size(k)

    def _count(self, counter: str, amount=lambda *a, **k: 1):
        counts = self.counts

        def count(*args, **kwargs):
            counts[counter] += amount(*args, **kwargs)

        return count

    def _g_evaluator(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            g_of_k = fn(*args, **kwargs)
            return tracer._spanned(g_of_k, "quadrature.g_of_k", tracer._count("profile.g_lookups"))

        return wrapper

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        quad_call = self._count("quadrature.calls")
        spanned = self._spanned

        def response_count(*args, **kwargs):
            quad_call()
            self.counts["quadrature.response_g.calls"] += 1

        yield cli, "plane_potential", spanned(cli.plane_potential, "quadrature.plane_potential", quad_call)
        yield cli, "plane_force", spanned(cli.plane_force, "quadrature.plane_force", quad_call)
        yield quadrature, "response_g", spanned(quadrature.response_g, "quadrature.response_g", response_count)
        yield cli, "g_evaluator", self._g_evaluator(cli.g_evaluator)
        yield quadrature, "polarizability", self._counted(quadrature.polarizability, "quadrature.xi_nodes")
        yield quadrature, "adaptive_gauss", self._adaptive_gauss(quadrature.adaptive_gauss)
        yield quadrature, "cc_batch", self._cc_batch(quadrature.cc_batch)
        yield quadrature, "kernel_point", spanned(
            quadrature.kernel_point, "kernel.kernel_point", self._count_kernel_point
        )
        yield quadrature, "a_exact", spanned(quadrature.a_exact, "kernel.a_exact")
        yield quadrature, "a_perfect", spanned(quadrature.a_perfect, "kernel.a_perfect")
        for module in (quadrature, kernel):
            yield module, "fresnel", spanned(module.fresnel, "optics.fresnel", self._count_fresnel)
        eps_count = self._count("optics.eps.calls")
        for cls in _EPS_CLASSES:
            for attr in ("eps", "eps_times_xi2"):
                yield cls, attr, spanned(vars(cls)[attr], "optics.eps", eps_count)
        yield cli, "kramers_kronig_imaginary_axis", spanned(
            cli.kramers_kronig_imaginary_axis,
            "optics.kramers_kronig",
            self._count("optics.kramers_kronig.xi_points", lambda data, xi, **kw: np.size(xi)),
        )
        for attr in ("first_order_potential", "lateral_force", "detectability_report"):
            yield cli, attr, spanned(getattr(cli, attr), f"profile.{attr}")

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore every original on exit."""
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of this pass."""
        c = self.counts
        self_s = self.self_times()

        def spent(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        kp_elements = c["kernel.points"]
        return {
            "cli.self_s": self_s.get("cli.main", 0.0),
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.xi_nodes": c["quadrature.xi_nodes"],
            "quadrature.self_s": spent("quadrature."),
            "integrate.adaptive_gauss.calls": c["integrate.adaptive_gauss.calls"],
            "integrate.gl_nodes": c["integrate.gl_nodes"],
            "integrate.gl_useful_frac": ratio(c["integrate.gl_useful_nodes"], c["integrate.gl_nodes"]),
            "integrate.adaptive_gauss.self_s": spent("integrate.adaptive_gauss"),
            "integrate.cc_batch.calls": c["integrate.cc_batch.calls"],
            "integrate.cc_batch.max_points": self.cc_max_points,
            "integrate.cc_batch.self_s": spent("integrate.cc_batch"),
            "kernel.points": kp_elements,
            "kernel.kp_leg_reuse": ratio(self.kp_distinct(), kp_elements),
            "kernel.kernel_point.self_s": spent("kernel.kernel_point"),
            "kernel.a_exact.self_s": spent("kernel.a_exact"),
            "kernel.a_perfect.self_s": spent("kernel.a_perfect"),
            "optics.fresnel.calls": c["optics.fresnel.calls"],
            "optics.fresnel.elements": c["optics.fresnel.elements"],
            "optics.fresnel.self_s": spent("optics.fresnel"),
            "optics.eps.calls": c["optics.eps.calls"],
            "optics.eps.self_s": spent("optics.eps"),
            "optics.kramers_kronig.self_s": spent("optics.kramers_kronig"),
            "optics.kramers_kronig.xi_points": c["optics.kramers_kronig.xi_points"],
            "profile.g_lookups": c["profile.g_lookups"],
            "profile.g_hit_frac": 1.0 - ratio(c["quadrature.response_g.calls"], c["profile.g_lookups"])
            if c["profile.g_lookups"]
            else 0.0,
            "profile.self_s": spent("profile."),
        }
