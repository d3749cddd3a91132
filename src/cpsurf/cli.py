"""Command-line front end: grid sweeps over the plane and corrugation
results, CSV/JSON emission, and optical-data ingestion.

Configuration is a single JSON document (see README for the schema);
command-line flags override config keys. All numeric output uses
``%.12e`` and every quadrature value is paired with an error column, so
identical configs produce byte-identical files. Grid points run one after
another in grid order; no environment variable changes the output.

The sweep subcommands share one setup (_Sweep: config, models, settings,
z grid, CSV writer) and two loops: over z_A (plane, eta) and over
z_A x k (response, rho); corrugation uses the same setup.

Every CSV, of a sweep or of ingest-optical, goes through one writer,
which writes the same bytes to a file as to stdout.

Exit codes: 0 success, 2 validation error (also for a malformed table or
optical data file, inputs that put the arithmetic out of floating-point
range, and point counts too large to allocate), 3 quadrature
non-convergence. A failure prints one ``error:`` line and no numpy
warnings; each distinct advisory prints one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from ._integrate import ConvergenceError
from .atomics import (
    MultilevelPolarizability,
    SingleOscillatorPolarizability,
    StaticPolarizability,
    polarizability,
    rubidium_single_oscillator,
)
from .closedforms import f_cp0, rho_cp_perf
from .constants import EV, TWO_PI, constants_header_fields
from .optics import (
    DrudeLorentz,
    PerfectConductor,
    PlasmaMetal,
    gold_plasma,
    kramers_kronig_imaginary_axis,
    read_imaginary_axis_csv,
    read_optical_csv,
    silicon_drude_lorentz,
)
from .profile import (
    BecProbeConfig,
    Sinusoid,
    detectability_report,
    first_order_potential,
    lateral_force,
    rb87_bec_probe,
)
from .quadrature import (
    IntegralResult,
    QuadratureSettings,
    g_evaluator,
    plane_force,
    plane_potential,
    ratio,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _pick(flag_value, cfg: dict, key: str, default=None):
    """Flag beats config beats default."""
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _parse_grid(spec, name: str) -> list[float]:
    """Grid from a JSON list or a string: 'a,b,c', 'lin:a:b:n', 'log:a:b:n'.

    name is the grid's config key; a non-finite value is rejected with it.
    """
    if isinstance(spec, (list, tuple)):
        try:
            values = [float(v) for v in spec]
        except TypeError:
            raise ValueError(f"grid entries must be numbers, got {spec!r}") from None
        except OverflowError:
            raise ValueError(f"{name} grid values must be finite") from None
    else:
        text = str(spec).strip()
        if text.startswith(("lin:", "log:")):
            kind, lo, hi, n = text.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            _require_finite([lo, hi], name)
            if n < 1:
                raise ValueError("grid needs at least one point")
            if kind == "log":
                if not (lo > 0.0 and hi > 0.0):
                    raise ValueError("log grid endpoints must be positive")
                values = list(np.geomspace(lo, hi, n))
            else:
                values = list(np.linspace(lo, hi, n))
        else:
            values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError("empty grid")
    _require_finite(values, name)
    return [float(v) for v in values]


def _require_finite(values, name: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} grid values must be finite")


def _positive_grid(spec, name: str) -> list[float]:
    values = _parse_grid(spec, name)
    if any(not v > 0.0 for v in values):
        raise ValueError(f"{name} grid values must be positive")
    return values


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not finite")
    return number


def _field(kind: str, spec: dict, key: str, convert=_finite):
    """spec[key] through convert (a finite float by default); a wrong type
    or form is a ValueError naming the field (a missing key stays a KeyError)."""
    value = spec[key]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{kind} field {key!r} cannot take {value!r}") from None


def _section(cfg: dict, key: str) -> dict:
    """A copy of the config object under key ({} when absent)."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"config {key!r} must be an object, got {section!r}")
    return dict(section)


def _whole(value) -> int:
    number = float(value)
    if not number.is_integer():
        raise ValueError("not a whole number")
    return int(number)


def _vector(value) -> tuple[float, ...]:
    return tuple(float(v) for v in value)


def _pairs(value) -> tuple[tuple[float, float], ...]:
    return tuple((float(w), float(d)) for w, d in value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def build_atom(spec):
    """Atom model from a preset name or a config object."""
    if spec is None:
        spec = "rb87"
    if isinstance(spec, str):
        name = spec.lower().replace("_", "-")
        if name == "rb87":
            return rubidium_single_oscillator()
        if name == "rb87-static":
            base = rubidium_single_oscillator()
            return StaticPolarizability(base.alpha0)
        raise ValueError(f"unknown atom preset {spec!r} (try rb87, rb87-static)")
    if not isinstance(spec, dict):
        raise ValueError(f"atom must be a preset name or an object, got {spec!r}")
    model = spec.get("model")
    if model == "static":
        return StaticPolarizability(_field("atom", spec, "alpha0_si"))
    if model == "single_oscillator":
        return SingleOscillatorPolarizability(
            _field("atom", spec, "alpha0_si"), _field("atom", spec, "omega_a_rad_s")
        )
    if model == "multilevel":
        return MultilevelPolarizability(_field("atom", spec, "transitions", _pairs))
    raise ValueError(f"unknown atom model {model!r}")


def build_surface(spec):
    """Surface model from a preset name, a config object, or a table file."""
    if spec is None:
        spec = "gold"
    if isinstance(spec, str):
        name = spec.lower().replace("_", "-")
        if name == "gold":
            return gold_plasma()
        if name == "silicon":
            return silicon_drude_lorentz()
        if name in ("perfect", "perfect-conductor", "mirror"):
            return PerfectConductor()
        raise ValueError(
            f"unknown surface preset {spec!r} (try gold, silicon, perfect)"
        )
    if not isinstance(spec, dict):
        raise ValueError(f"surface must be a preset name or an object, got {spec!r}")
    model = spec.get("model")
    if model == "plasma":
        return PlasmaMetal(_field("surface", spec, "omega_p_rad_s"))
    if model == "drude_lorentz":
        return DrudeLorentz(
            _field("surface", spec, "omega_dl_rad_s"), _field("surface", spec, "eps_static")
        )
    if model == "table":
        return read_imaginary_axis_csv(
            _field("surface", spec, "path", _text),
            extrapolate_low=spec.get("extrapolate_low", "strict"),
            extrapolate_high=spec.get("extrapolate_high", "strict"),
        )
    raise ValueError(f"unknown surface model {model!r}")


_SETTING_TYPES = {"rel_tol": float, "max_panels": _whole}


def build_settings(args, cfg: dict) -> QuadratureSettings:
    quad = _section(cfg, "quadrature")
    if getattr(args, "rel_tol", None) is not None:
        quad["rel_tol"] = args.rel_tol
    unknown = set(quad) - set(_SETTING_TYPES)
    if unknown:
        raise ValueError(f"unknown quadrature settings: {sorted(unknown)}")
    return QuadratureSettings(
        **{key: _field("quadrature", quad, key, _SETTING_TYPES[key]) for key in quad}
    )


def _build_probe(cfg: dict) -> BecProbeConfig:
    probe = _section(cfg, "probe")
    base = rb87_bec_probe()
    fields = {
        "omega_tr_rad_s": "omega_tr",
        "a_scat_m": "a_scat",
        "mass_kg": "mass",
        "delta_n": "delta_n",
        "rho0_m": "rho0",
        "x0_m": "x0",
    }
    unknown = set(probe) - set(fields)
    if unknown:
        raise ValueError(f"unknown probe settings: {sorted(unknown)}")
    kwargs = {attr: getattr(base, attr) for attr in fields.values()}
    for key, attr in fields.items():
        if key in probe:
            kwargs[attr] = _field("probe", probe, key)
    return BecProbeConfig(**kwargs)


def _write_csv(output: str | None, comments, columns: list[str], rows) -> None:
    """The constants header and the comment lines as ``# `` lines, then the
    column line and the ``%.12e`` rows, to the path output (stdout when it
    is None)."""
    constants = [f"{key}={value:.12e}" for key, value in constants_header_fields().items()]
    out = [f"# {line}" for line in [*constants, *comments]]
    out.append(",".join(columns))
    out += [",".join(f"{v:.12e}" for v in row) for row in rows]
    text = "\n".join(out) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


# ---------------------------------------------------------------------------
# the sweep core


class _Sweep:
    """The setup every sweep subcommand shares: config, atom and surface
    models, quadrature settings and z grid, plus the CSV writer whose
    header records them."""

    def __init__(self, args):
        self.cfg = _load_config(args.config)
        self.atom_spec = _pick(args.atom, self.cfg, "atom")
        self.surface_spec = _pick(args.surface, self.cfg, "surface")
        self.atom = build_atom(self.atom_spec)
        self.surface = build_surface(self.surface_spec)
        self.settings = build_settings(args, self.cfg)
        z_spec = _pick(args.z, self.cfg, "z_a_m")
        if z_spec is None:
            raise ValueError(f"{args.command}: z_a_m is required (flag or config)")
        self.z_grid = _positive_grid(z_spec, "z_a_m")
        self.alpha0 = float(polarizability(self.atom, 0.0))
        self.output = _pick(args.output, self.cfg, "output_csv")
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"config 'output_csv' must be a path, got {self.output!r}")

    def write_csv(self, columns: list[str], rows: list[list[float]], comments=()) -> None:
        lines = [
            f"atom={json.dumps(self.atom_spec, sort_keys=True)}",
            f"surface={json.dumps(self.surface_spec, sort_keys=True)}",
            f"rel_tol={self.settings.rel_tol:.3e}",
            *comments,
        ]
        _write_csv(self.output, lines, columns, rows)


def _z_sweep(args, columns: list[str], row) -> int:
    """One CSV row per z_A: row(sweep, z)."""
    sweep = _Sweep(args)
    sweep.write_csv(columns, [row(sweep, z) for z in sweep.z_grid])
    return 0


def _zk_sweep(args, columns: list[str], row) -> int:
    """One CSV row per (z_A, k): row(sweep, z, k, g, rho, rho_err), where
    g = g(k, z_A) and rho = g / F0(z_A) with its propagated error."""
    sweep = _Sweep(args)
    rows, results = [], []
    for z in sweep.z_grid:
        ks = _k_grid(args, sweep.cfg, z)
        g_of_k = g_evaluator(sweep.atom, sweep.surface, z, sweep.settings)
        f0 = plane_force(sweep.atom, sweep.surface, z, sweep.settings)
        for k in ks:
            g = g_of_k(k)
            rho = ratio(g, f0)
            rows.append(row(sweep, z, k, g, rho.value, rho.error))
            results.append(g)
    _warn_negligible(results)
    sweep.write_csv(columns, rows)
    return 0


def _k_grid(args, cfg: dict, z: float) -> list[float]:
    """One wavenumber grid from --k, --wavelength, or --kz (k = kz / z_A)."""
    sources = {
        "k_1_per_m": args.k,
        "lambda_m": args.wavelength,
        "kz_a": args.kz,
    }
    given = {key: val for key, val in sources.items() if val is not None}
    for key in sources:
        if key not in given and key in cfg:
            given[key] = cfg[key]
    if len(given) != 1:
        raise ValueError(
            f"{args.command}: give exactly one of k_1_per_m, lambda_m, kz_a"
        )
    key, spec = next(iter(given.items()))
    values = _parse_grid(spec, key)
    if key == "k_1_per_m":
        if any(v < 0.0 for v in values):
            raise ValueError("k values must be non-negative")
        return values
    if key == "lambda_m":
        if any(not v > 0.0 for v in values):
            raise ValueError("wavelengths must be positive")
        return [TWO_PI / lam for lam in values]
    if any(v < 0.0 for v in values):
        raise ValueError("kz_a values must be non-negative")
    return [kz / z for kz in values]


def _warn_negligible(results: Sequence[IntegralResult]) -> None:
    count = sum(1 for r in results if r.negligible)
    if count:
        print(
            f"warning: {count} grid point(s) beyond the k z_A cutoff; "
            "reported as 0 with the bound in the error column",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# subcommands


def _eta_columns(sweep: _Sweep, z: float, f: IntegralResult) -> list[float]:
    f_ref = f_cp0(z, sweep.alpha0)
    return [f.value / f_ref, f.error / abs(f_ref)]


def cmd_plane(args) -> int:
    def row(sweep, z):
        u = plane_potential(sweep.atom, sweep.surface, z, sweep.settings)
        f = plane_force(sweep.atom, sweep.surface, z, sweep.settings)
        return [z, u.value, u.error, f.value, f.error, *_eta_columns(sweep, z, f)]

    columns = ["z_A_m", "U0_J", "U0_err_J", "F0_N", "F0_err_N", "eta_F", "eta_F_err"]
    return _z_sweep(args, columns, row)


def cmd_eta(args) -> int:
    def row(sweep, z):
        f = plane_force(sweep.atom, sweep.surface, z, sweep.settings)
        return [z, *_eta_columns(sweep, z, f)]

    return _z_sweep(args, ["z_A_m", "eta_F", "eta_F_err"], row)


def cmd_response(args) -> int:
    def row(sweep, z, k, g, rho_val, rho_err):
        f_ref = abs(f_cp0(z, sweep.alpha0))
        return [z, k, g.value, g.error, g.value / f_ref, g.error / f_ref, rho_val, rho_err]

    columns = [
        "z_A_m",
        "k_1_per_m",
        "g_N",
        "g_err_N",
        "g_over_Fcp",
        "g_over_Fcp_err",
        "rho",
        "rho_err",
    ]
    return _zk_sweep(args, columns, row)


def cmd_rho(args) -> int:
    def row(sweep, z, k, g, rho_val, rho_err):
        return [z, k, k * z, rho_val, rho_err, rho_cp_perf(k * z)]

    columns = ["z_A_m", "k_1_per_m", "kz_a", "rho", "rho_err", "rho_cp_ref"]
    return _zk_sweep(args, columns, row)


def cmd_corrugation(args) -> int:
    sweep = _Sweep(args)
    if len(sweep.z_grid) != 1:
        raise ValueError("corrugation: exactly one z_a_m value")
    z = sweep.z_grid[0]

    # Defaults, then the config's corrugation object, then flags.
    corr = {"h0_m": 100e-9, "phase_rad": 0.0, "direction": (1.0, 0.0), "x_points": 9}
    corr.update(_section(sweep.cfg, "corrugation"))
    flags = {
        "h0_m": args.h0,
        "lambda_m": args.lambda_c,
        "k_c_1_per_m": args.k_c,
        "phase_rad": args.phase,
        "x_m": args.x,
        "x_points": args.x_points,
    }
    corr.update((key, value) for key, value in flags.items() if value is not None)
    lam, k_c = corr.get("lambda_m"), corr.get("k_c_1_per_m")
    if (lam is None) == (k_c is None):
        raise ValueError("corrugation: give exactly one of lambda_m, k_c_1_per_m")
    if lam is not None:
        lam = _field("corrugation", corr, "lambda_m")
        if not lam > 0.0:
            raise ValueError("corrugation: lambda_m must be positive")
        k_c = TWO_PI / lam
    else:
        k_c = _field("corrugation", corr, "k_c_1_per_m")
    profile = Sinusoid(
        h0=_field("corrugation", corr, "h0_m"),
        k_c=k_c,
        phase=_field("corrugation", corr, "phase_rad"),
        direction=_field("corrugation", corr, "direction", _vector),
    )

    x_spec = corr.get("x_m")
    if x_spec is not None:
        x_grid = _parse_grid(x_spec, "x_m")
    else:
        n = _field("corrugation", corr, "x_points", _whole)
        if n < 1:
            raise ValueError("x_points must be >= 1")
        period = TWO_PI / k_c if k_c > 0.0 else 0.0
        x_grid = list(np.linspace(0.0, period, n))

    g_of_k = g_evaluator(sweep.atom, sweep.surface, z, sweep.settings)
    g_val = g_of_k(k_c)  # primes the per-|k| cache for the x sweep
    f0 = plane_force(sweep.atom, sweep.surface, z, sweep.settings)

    def one(x: float):
        r = (x, 0.0)
        u1 = first_order_potential(profile, r, z, g_of_k=g_of_k)
        fl = lateral_force(profile, r, z, g_of_k=g_of_k)
        h = profile.height(r)
        return [x, u1.value, u1.error, fl.value, fl.error, h * f0.value, abs(h) * f0.error]

    # Each distinct library warning (a profile too steep) prints once.
    with warnings.catch_warnings(record=True) as caught:
        rows = [one(x) for x in x_grid]
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    _warn_negligible([g_val])
    report = detectability_report(
        profile, z, config=_build_probe(sweep.cfg), g_of_k=g_of_k
    )
    report_obj = {
        "u1_amplitude_J": report.u1_amplitude,
        "u1_amplitude_eV": report.u1_amplitude / EV,
        "delta_v_J": report.delta_v,
        "delta_v_eV": report.delta_v / EV,
        "ratio": report.ratio,
        "classification": report.classification,
    }
    report_text = json.dumps(report_obj, sort_keys=True)

    columns = [
        "x_m",
        "U1_J",
        "U1_err_J",
        "F_lateral_N",
        "F_lateral_err_N",
        "U1_pfa_J",
        "U1_pfa_err_J",
    ]
    if sweep.output is None:
        sweep.write_csv(columns, rows, [f"report={report_text}"])
    else:
        sweep.write_csv(columns, rows)
        print(report_text)
    return 0


def cmd_ingest_optical(args) -> int:
    if not 0.0 < args.xi_min < math.inf:
        raise ValueError(f"--xi-min must be positive and finite, got {args.xi_min!r}")
    if not args.xi_min < args.xi_max < math.inf:
        raise ValueError(f"--xi-max must be finite and above --xi-min, got {args.xi_max!r}")
    if args.xi_points < 1:
        raise ValueError(f"--xi-points must be at least 1, got {args.xi_points}")
    xi_grid = np.geomspace(args.xi_min, args.xi_max, args.xi_points)
    # The table is read back from its printed digits, which must ascend.
    printed = [float(f"{x:.12e}") for x in xi_grid.tolist()]
    if any(b <= a for a, b in zip(printed, printed[1:])):
        raise ValueError(
            f"--xi-min and --xi-max are too close for --xi-points {args.xi_points}: "
            "the printed xi grid (13 digits) would repeat values"
        )
    data = read_optical_csv(args.input)
    eps = kramers_kronig_imaginary_axis(data, xi_grid)
    lines = [f"source={Path(args.input).name}"]
    if data.drude_omega_p is not None:
        lines.append(f"drude_omega_p={data.drude_omega_p:.12e}")
        lines.append(f"drude_gamma={data.drude_gamma:.12e}")
    _write_csv(args.output, lines, ["xi_rad_s", "eps_i_xi"], zip(xi_grid, eps))
    return 0


# (x, K0(x), K1(x)) from scipy.special.k0 and k1 (SciPy 1.17.1), across
# both branches of bessel_k0e_k1e (series up to x = 2, Chebyshev above).
_BESSEL_K0_K1 = (
    (1e-06, 13.93144207362641, 999999.9999927843),
    (0.001, 7.0236888005623825, 999.9962381560855),
    (0.1, 2.4270690247020164, 9.853844780870606),
    (0.5, 0.9244190712276656, 1.6564411200033007),
    (1.0, 0.42102443824070823, 0.6019072301972346),
    (1.9, 0.12884597927604755, 0.15966015303266756),
    (2.0, 0.1138938727495334, 0.13986588181652246),
    (2.1, 0.10078374088996692, 0.1227464115335079),
    (5.0, 0.0036910983340425942, 0.004044613445452163),
    (10.0, 1.778006231616765e-05, 1.8648773453825585e-05),
    (25.0, 3.4641615622131143e-12, 3.5327780731999337e-12),
    (50.0, 3.410167749789495e-23, 3.4441022267175555e-23),
)


def cmd_selftest(args) -> int:
    """Fast internal battery; prints one PASS/FAIL line per check."""
    from .closedforms import bessel_k0_k1, g_cp_perf

    checks: list[tuple[str, float, float]] = []

    x, want_k0, want_k1 = np.array(_BESSEL_K0_K1).T
    k0, k1 = bessel_k0_k1(x)
    err = max(
        float(np.max(np.abs(k0 / want_k0 - 1.0))),
        float(np.max(np.abs(k1 / want_k1 - 1.0))),
    )
    checks.append(("bessel_k0_k1 vs reference values", err, 1e-10))

    atom = StaticPolarizability(rubidium_single_oscillator().alpha0)
    mirror = PerfectConductor()
    settings = QuadratureSettings()
    z = 2e-6
    g_of_k = g_evaluator(atom, mirror, z, settings)
    k = 0.5 / z
    ratio = g_of_k(k).value / g_cp_perf(k, z, atom.alpha0)
    checks.append(("mirror response vs closed form", abs(ratio - 1.0), 5e-4))

    gold = gold_plasma()
    rb = rubidium_single_oscillator()
    z1 = 1e-6
    g0 = g_evaluator(rb, gold, z1, settings)(1e-4 / z1)
    f0 = plane_force(rb, gold, z1, settings)
    checks.append(("k -> 0 limit vs plane force", abs(g0.value / f0.value - 1.0), 1e-3))

    # Resonance width gamma / omega0 must be resolved by the log grid.
    omega0, omega_p, gamma = 3e15, 1.2e15, 2e14
    w = np.geomspace(omega0 / 100.0, omega0 * 100.0, 2000)
    im_eps = omega_p**2 * gamma * w / ((omega0**2 - w**2) ** 2 + gamma**2 * w**2)
    from .optics import RealAxisOpticalData

    table = RealAxisOpticalData(omega=w, eps_imag=im_eps)
    xi_test = np.array([omega0 / 3.0, omega0, 3.0 * omega0])
    got = kramers_kronig_imaginary_axis(table, xi_test)
    want = 1.0 + omega_p**2 / (omega0**2 + xi_test**2 + gamma * xi_test)
    checks.append(
        ("dispersion-relation round trip", float(np.max(np.abs(got / want - 1.0))), 1e-6)
    )

    failed = 0
    for name, err, tol in checks:
        ok = err < tol
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: err={err:.3e} tol={tol:.0e}")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--atom", help="atom preset (rb87, rb87-static)")
    parser.add_argument("--surface", help="surface preset (gold, silicon, perfect)")
    parser.add_argument(
        "--z", help="z_A grid in m: 'a,b,c', 'lin:a:b:n', or 'log:a:b:n'"
    )
    parser.add_argument("--rel-tol", type=float, help="quadrature relative tolerance")
    parser.add_argument("--output", help="output CSV path (default: stdout)")


def _add_k_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", help="corrugation wavenumber grid, 1/m")
    parser.add_argument("--wavelength", help="corrugation wavelength grid, m")
    parser.add_argument("--kz", help="dimensionless k z_A grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsurf",
        description=(
            "Dispersive atom-surface potentials above planar and weakly "
            "corrugated surfaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plane", help="flat-surface potential and force over z_A")
    _add_common(p)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("response", help="first-order response g(k, z_A)")
    _add_common(p)
    _add_k_flags(p)
    p.set_defaults(func=cmd_response)

    p = sub.add_parser("rho", help="roll-off factor rho = g(k, z_A) / g(0, z_A)")
    _add_common(p)
    _add_k_flags(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("eta", help="flat-surface force against the ideal-mirror law")
    _add_common(p)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser(
        "corrugation", help="first-order corrugation potential and probe report"
    )
    _add_common(p)
    p.add_argument("--h0", type=float, help="corrugation amplitude, m")
    p.add_argument("--lambda-c", type=float, help="corrugation wavelength, m")
    p.add_argument("--k-c", type=float, help="corrugation wavenumber, 1/m")
    p.add_argument("--phase", type=float, help="corrugation phase, rad")
    p.add_argument("--x", help="lateral positions, m (grid spec)")
    p.add_argument("--x-points", type=int, help="points across one period")
    p.set_defaults(func=cmd_corrugation)

    p = sub.add_parser(
        "ingest-optical",
        help="tabulate eps(i xi) from measured Im eps(omega) via dispersion relations",
    )
    p.add_argument("input", help="CSV with omega_rad_s,eps_imag rows")
    p.add_argument("--output", help="output CSV path (default: stdout)")
    p.add_argument("--xi-min", type=float, default=1e13, help="lowest xi, rad/s")
    p.add_argument("--xi-max", type=float, default=1e17, help="highest xi, rad/s")
    p.add_argument("--xi-points", type=int, default=81, help="log-spaced points")
    p.set_defaults(func=cmd_ingest_optical)

    p = sub.add_parser("selftest", help="run fast internal consistency checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Non-finite arithmetic is reported by the error it leads to.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: bad config ({exc})", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: input out of floating-point range ({exc})", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (is a point count too large?)", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        where = f" in the {exc.layer} layer" if exc.layer else ""
        if exc.xi is not None:
            where += f" at xi={exc.xi:.6e} rad/s"
        if exc.kp is not None:
            where += f", k'={exc.kp:.6e} 1/m"
        print(f"error: quadrature did not converge{where} ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
