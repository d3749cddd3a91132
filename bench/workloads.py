"""Seeded inputs and output checks for the cpsurf benchmark workloads.

A workload turns a seed into the CLI invocations of one pass. The seed
only picks grid values from narrow ranges, so node counts stay comparable
between seeds. Every invocation carries a checker that turns the CSV the
CLI wrote into one verdict per grid point (CSV data row):

* plane_gold: U0 and F0 against a tight-tolerance reference stored in
  reference.json (the seed picks from the stored lattice of distances);
* response_silicon: rho(kz = 0) = 1 and g(0) = F0 within the reported
  error, g(k) and rho(k) against the stored reference;
* corrugation_mirror: U1, the lateral force and the proximity-force column
  against the closed forms of a static atom above an ideal mirror;
* table_plane: the ingested eps(i xi) against the Lorentz closed form,
  then U0 and F0 of the tabulated surface against the stored reference.

A value passes when it is finite and lies within its reported error of the
reference. reference.json is regenerated with make_reference.py.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cpsurf.cli import build_atom
from cpsurf.closedforms import f_cp0, g_cp_perf
from cpsurf.constants import TWO_PI

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_REL_TOL = 1e-9

# Jitter is kept to about 1%: wider ranges cross the points where the
# outer adaptive rule splits one more panel, which moves the work of a
# pass by up to a third (at z = 1 um, kz = 0 sits on such a point).

# plane_gold: 16 log-spaced slots over 0.1-20 um, four candidates each.
GOLD_SLOTS = np.geomspace(1e-7, 2e-5, 16)
GOLD_OFFSETS = (0.994, 0.998, 1.002, 1.006)

# response_silicon: one distance near 1 um, and kz = 0 plus one value near
# 3 and one near 6.
SILICON_Z = (1.045e-6, 1.05e-6, 1.055e-6)
SILICON_KZ = ((2.985, 3.0, 3.015), (5.97, 6.0, 6.03))

# table_plane: Lorentz dielectrics (omega0 rad/s, eps(0) - 1, gamma/omega0)
# and three distance slots with two candidates each.
TABLE_SPECTRA = (
    (6.55e15, 10.8, 0.049),
    (6.6e15, 10.87, 0.05),
    (6.65e15, 10.95, 0.051),
)
TABLE_Z = ((1.0e-7, 1.01e-7), (3.0e-6, 3.03e-6), (1.0e-5, 1.01e-5))
# The spectrum spans omega0 * 1e-6 .. omega0 * 1e3; the part of the
# dispersion integral below the first sample is then ~1e-8 of eps - 1.
SPECTRUM_SPAN = (1e-6, 1e3)
SPECTRUM_POINTS = 3000
KK_XI = dict(xi_min=1e13, xi_max=1e17, xi_points=81)
KK_CHECK_REL = 1e-6
TABLE_SURFACE = {
    "model": "table",
    "extrapolate_low": "constant",
    "extrapolate_high": "inverse_square",
}

# corrugation_mirror: the paper's geometry (z 2 um, period 10 um, 100 nm
# amplitude), jittered. X_POINTS is a multiple of 4 and each point sits
# 0.1-0.9 of a grid step into its step, so no point lands on a zero of
# cos or sin, where a relative check would be meaningless.
CORRUGATION_X_POINTS = 48

ROW_ATOL_Z = 1e-11


@dataclass
class Invocation:
    """One CLI call of a pass; ``output`` is the file it writes (None: stdout)."""

    argv: list[str]
    rows: int
    check: Callable[[str], list["Row"]]
    output: str | None = None


@dataclass
class Row:
    """Verdict on one grid point, with reported error / |value| per value."""

    ok: bool
    rel_errs: list[float] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    atom: object
    surface: object
    invocations: list[Invocation]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def key(*values: float) -> str:
    return ":".join(repr(float(v)) for v in values)


def grid_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def parse_csv(text: str) -> list[dict[str, float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split(",")
    return [dict(zip(columns, map(float, ln.split(",")))) for ln in lines[1:]]


def _within(value: float, err: float, ref: float) -> bool:
    return math.isfinite(value) and math.isfinite(err) and abs(value - ref) <= err


def _rows(text: str, expected: int, check_row: Callable[[int, dict], Row]) -> list[Row]:
    """Check each parsed row; missing or surplus rows fail."""
    try:
        parsed = parse_csv(text)
    except ValueError:
        parsed = []
    out = []
    for i in range(expected):
        if len(parsed) != expected:
            out.append(Row(False))
            continue
        try:
            out.append(check_row(i, parsed[i]))
        except (KeyError, ZeroDivisionError):
            out.append(Row(False))
    return out


def _plane_check(zs: list[float], refs_u: list[float], refs_f: list[float]):
    def check_row(i: int, row: dict) -> Row:
        ok = (
            abs(row["z_A_m"] - zs[i]) <= ROW_ATOL_Z * zs[i]
            and _within(row["U0_J"], row["U0_err_J"], refs_u[i])
            and _within(row["F0_N"], row["F0_err_N"], refs_f[i])
        )
        return Row(
            ok,
            [row["U0_err_J"] / abs(row["U0_J"]), row["F0_err_N"] / abs(row["F0_N"])],
        )

    return lambda text: _rows(text, len(zs), check_row)


def plane_gold(seed: int, work: Path, ref: dict) -> Workload:
    rng = random.Random(seed)
    zs = [float(c * rng.choice(GOLD_OFFSETS)) for c in GOLD_SLOTS]
    table = ref["plane_gold"]
    check = _plane_check(
        zs, [table["U0"][key(z)] for z in zs], [table["F0"][key(z)] for z in zs]
    )
    argv = ["plane", "--atom", "rb87", "--surface", "gold", "--z", grid_arg(zs)]
    return Workload("plane_gold", "rb87", "gold", [Invocation(argv, len(zs), check)])


def response_silicon(seed: int, work: Path, ref: dict) -> Workload:
    rng = random.Random(seed)
    z = rng.choice(SILICON_Z)
    kzs = [0.0] + [rng.choice(slot) for slot in SILICON_KZ]
    table = ref["response_silicon"]
    f0_ref = table["F0"][key(z)]

    def check_row(i: int, row: dict) -> Row:
        g, g_err, rho, rho_err = row["g_N"], row["g_err_N"], row["rho"], row["rho_err"]
        k = kzs[i] / z
        if kzs[i] == 0.0:
            g_ref, rho_ref = f0_ref, 1.0
        else:
            g_ref = table["g"][key(z, kzs[i])]
            rho_ref = g_ref / f0_ref
        ok = (
            row["z_A_m"] == float(f"{z:.12e}")
            and abs(row["k_1_per_m"] - k) <= ROW_ATOL_Z * max(k, 1.0)
            and _within(g, g_err, g_ref)
            and _within(rho, rho_err, rho_ref)
        )
        return Row(ok, [g_err / abs(g)])

    argv = [
        "response", "--atom", "rb87", "--surface", "silicon",
        "--z", repr(z), "--kz", grid_arg(kzs),
    ]
    inv = Invocation(argv, len(kzs), lambda text: _rows(text, len(kzs), check_row))
    return Workload("response_silicon", "rb87", "silicon", [inv])


def corrugation_mirror(seed: int, work: Path, ref: dict) -> Workload:
    rng = random.Random(seed)
    z = 2e-6 * rng.uniform(0.99, 1.01)
    lam = 10e-6 * rng.uniform(0.99, 1.01)
    h0 = 100e-9 * rng.uniform(0.95, 1.05)
    n = CORRUGATION_X_POINTS
    xs = [lam * (j + rng.uniform(0.1, 0.9)) / n for j in range(n)]
    k_c = TWO_PI / lam
    alpha0 = build_atom("rb87-static").alpha0
    g = g_cp_perf(k_c, z, alpha0)
    f0 = f_cp0(z, alpha0)

    def check_row(i: int, row: dict) -> Row:
        x = xs[i]
        c, s = math.cos(k_c * x), math.sin(k_c * x)
        ok = (
            abs(row["x_m"] - x) <= ROW_ATOL_Z * lam
            and _within(row["U1_J"], row["U1_err_J"], h0 * g * c)
            and _within(row["F_lateral_N"], row["F_lateral_err_N"], h0 * k_c * g * s)
            and _within(row["U1_pfa_J"], row["U1_pfa_err_J"], h0 * c * f0)
        )
        return Row(ok, [row["U1_err_J"] / abs(row["U1_J"])])

    argv = [
        "corrugation", "--atom", "rb87-static", "--surface", "perfect",
        "--z", repr(z), "--h0", repr(h0), "--lambda-c", repr(lam), "--x", grid_arg(xs),
    ]
    inv = Invocation(argv, n, lambda text: _rows(text, n, check_row))
    return Workload("corrugation_mirror", "rb87-static", "perfect", [inv])


def lorentz_spectrum(omega0: float, eps_minus_1: float, gamma_frac: float) -> str:
    """Real-axis Im eps(omega) of a Lorentz oscillator as ingest CSV text."""
    omega_p2 = eps_minus_1 * omega0**2
    gamma = gamma_frac * omega0
    w = np.geomspace(omega0 * SPECTRUM_SPAN[0], omega0 * SPECTRUM_SPAN[1], SPECTRUM_POINTS)
    im = omega_p2 * gamma * w / ((omega0**2 - w**2) ** 2 + gamma**2 * w**2)
    lines = ["omega_rad_s,eps_imag"] + [f"{a:.12e},{b:.12e}" for a, b in zip(w, im)]
    return "\n".join(lines) + "\n"


def lorentz_eps(omega0: float, eps_minus_1: float, gamma_frac: float, xi):
    return 1.0 + eps_minus_1 * omega0**2 / (omega0**2 + xi**2 + gamma_frac * omega0 * xi)


def ingest_argv(spectrum: Path, table: Path) -> list[str]:
    return [
        "ingest-optical", str(spectrum), "--output", str(table),
        "--xi-min", repr(KK_XI["xi_min"]), "--xi-max", repr(KK_XI["xi_max"]),
        "--xi-points", str(KK_XI["xi_points"]),
    ]


def table_plane(seed: int, work: Path, ref: dict) -> Workload:
    rng = random.Random(seed)
    variant = rng.randrange(len(TABLE_SPECTRA))
    params = TABLE_SPECTRA[variant]
    zs = [rng.choice(slot) for slot in TABLE_Z]
    spectrum = work / "spectrum.csv"
    table = work / "table.csv"
    config = work / "plane.json"
    spectrum.write_text(lorentz_spectrum(*params))
    surface = dict(TABLE_SURFACE, path=str(table))
    config.write_text(json.dumps({"atom": "rb87", "surface": surface, "z_a_m": zs}))

    def check_eps(i: int, row: dict) -> Row:
        xi = row["xi_rad_s"]
        want = lorentz_eps(*params, xi)
        ok = math.isfinite(row["eps_i_xi"]) and abs(row["eps_i_xi"] / want - 1.0) <= KK_CHECK_REL
        return Row(ok)

    n_xi = KK_XI["xi_points"]
    ingest = Invocation(
        ingest_argv(spectrum, table), n_xi, lambda t: _rows(t, n_xi, check_eps), str(table)
    )
    refs = ref["table_plane"]
    check = _plane_check(
        zs,
        [refs["U0"][key(variant, z)] for z in zs],
        [refs["F0"][key(variant, z)] for z in zs],
    )
    plane = Invocation(["plane", "--config", str(config)], len(zs), check)
    return Workload("table_plane", "rb87", surface, [ingest, plane])


WORKLOADS = {
    "response_silicon": response_silicon,
    "plane_gold": plane_gold,
    "corrugation_mirror": corrugation_mirror,
    "table_plane": table_plane,
}
