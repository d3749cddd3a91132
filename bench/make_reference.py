"""Regenerate bench/reference.json: tight-tolerance values on the input lattice.

Every distance and kz the workload generators can pick is evaluated with
the library at rel_tol = REFERENCE_REL_TOL, far below the benchmark's
1e-6, so the difference to a benchmark value is the benchmark's own
error. Takes a few minutes on one core:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cpsurf import cli  # noqa: E402
from cpsurf.quadrature import (  # noqa: E402
    QuadratureSettings,
    plane_force,
    plane_potential,
    response_g,
)

import workloads as wl  # noqa: E402


def main() -> int:
    tight = QuadratureSettings(rel_tol=wl.REFERENCE_REL_TOL)
    rb87 = cli.build_atom("rb87")
    out: dict = {"rel_tol": wl.REFERENCE_REL_TOL}

    gold = cli.build_surface("gold")
    table = out["plane_gold"] = {"U0": {}, "F0": {}}
    for c in wl.GOLD_SLOTS:
        for offset in wl.GOLD_OFFSETS:
            z = float(c * offset)
            table["U0"][wl.key(z)] = plane_potential(rb87, gold, z, tight).value
            table["F0"][wl.key(z)] = plane_force(rb87, gold, z, tight).value
    print("plane_gold done", flush=True)

    silicon = cli.build_surface("silicon")
    table = out["response_silicon"] = {"F0": {}, "g": {}}
    for z in wl.SILICON_Z:
        table["F0"][wl.key(z)] = plane_force(rb87, silicon, z, tight).value
        for slot in wl.SILICON_KZ:
            for kz in slot:
                g = response_g(rb87, silicon, z, kz / z, tight)
                table["g"][wl.key(z, kz)] = g.value
    print("response_silicon done", flush=True)

    work = ROOT / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    table = out["table_plane"] = {"U0": {}, "F0": {}}
    for variant, params in enumerate(wl.TABLE_SPECTRA):
        spectrum = work / "spectrum.csv"
        table_csv = work / f"table{variant}.csv"
        spectrum.write_text(wl.lorentz_spectrum(*params))
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(wl.ingest_argv(spectrum, table_csv)) != 0:
                raise SystemExit("ingest-optical failed")
        surface = cli.build_surface(dict(wl.TABLE_SURFACE, path=str(table_csv)))
        for slot in wl.TABLE_Z:
            for z in slot:
                k = wl.key(variant, z)
                table["U0"][k] = plane_potential(rb87, surface, z, tight).value
                table["F0"][k] = plane_force(rb87, surface, z, tight).value
    print("table_plane done", flush=True)

    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
