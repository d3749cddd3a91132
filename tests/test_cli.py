import contextlib
import functools
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from cpsurf import cli, optics, quadrature
from cpsurf._integrate import cc_rows
from cpsurf.closedforms import rho_cp_perf


def run_cli(*args, module="cpsurf"):
    return subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True
    )


def run_main(*argv):
    """cli.main in this process: (exit code, stdout, stderr). Any exception
    but argparse's SystemExit propagates, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(res, code):
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr


def parse_csv(text):
    comments, columns, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, columns, rows


def raw_columns(text, *names):
    """The header comments and the named columns as printed, byte for byte."""
    comments = [l for l in text.splitlines() if l.startswith("#")]
    lines = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
    idx = [lines[0].index(name) for name in names]
    return comments, [[line[i] for i in idx] for line in lines[1:]]


def column(parsed, name):
    _, columns, rows = parsed
    i = columns.index(name)
    return [row[i] for row in rows]


FAST = ["--rel-tol", "1e-5"]
STATIC_MIRROR = ["--atom", "rb87-static", "--surface", "perfect"]


class TestSelftest:
    def test_all_checks_pass(self):
        res = run_cli("selftest")
        assert res.returncode == 0, res.stdout + res.stderr
        lines = [l for l in res.stdout.splitlines() if l]
        assert len(lines) == 4
        assert all(l.startswith("PASS") for l in lines)


class TestPlane:
    def test_static_mirror_is_exact_reference(self):
        res = run_cli("plane", *STATIC_MIRROR, *FAST, "--z", "1e-6,2e-6")
        assert res.returncode == 0, res.stderr
        parsed = parse_csv(res.stdout)
        for eta in column(parsed, "eta_F"):
            assert eta == pytest.approx(1.0, abs=1e-9)
        assert all(u < 0.0 for u in column(parsed, "U0_J"))
        assert all(f < 0.0 for f in column(parsed, "F0_N"))

    def test_header_carries_constants_and_inputs(self):
        res = run_cli("plane", *STATIC_MIRROR, *FAST, "--z", "1e-6")
        comments, _, _ = parse_csv(res.stdout)
        keys = {c.split("=")[0] for c in comments}
        assert {"c_m_s", "hbar_J_s", "eps0_F_m", "eV_J", "atom", "surface", "rel_tol"} <= keys

    def test_output_file(self, tmp_path):
        out = tmp_path / "plane.csv"
        res = run_cli("plane", *STATIC_MIRROR, *FAST, "--z", "1e-6", "--output", str(out))
        assert res.returncode == 0
        assert res.stdout == ""
        parsed = parse_csv(out.read_text())
        assert column(parsed, "z_A_m") == [1e-6]

    def test_grid_specs(self):
        lin = run_cli("plane", *STATIC_MIRROR, *FAST, "--z", "lin:1e-6:2e-6:3")
        log = run_cli("plane", *STATIC_MIRROR, *FAST, "--z", "log:1e-6:4e-6:3")
        assert column(parse_csv(lin.stdout), "z_A_m") == pytest.approx([1e-6, 1.5e-6, 2e-6])
        assert column(parse_csv(log.stdout), "z_A_m") == pytest.approx([1e-6, 2e-6, 4e-6])


class TestResponse:
    def test_zero_k_matches_plane_force(self):
        z = "1.5e-6"
        resp = run_cli("response", *STATIC_MIRROR, *FAST, "--z", z, "--kz", "0")
        plane = run_cli("plane", *STATIC_MIRROR, *FAST, "--z", z)
        g0 = column(parse_csv(resp.stdout), "g_N")[0]
        f0 = column(parse_csv(plane.stdout), "F0_N")[0]
        assert g0 == pytest.approx(f0, rel=1e-4)
        rho0 = column(parse_csv(resp.stdout), "rho")[0]
        assert rho0 == pytest.approx(1.0, abs=1e-4)

    def test_wavelength_flag_equals_k_flag(self):
        lam = 10e-6
        by_lam = run_cli(
            "response", *STATIC_MIRROR, *FAST, "--z", "2e-6", "--wavelength", str(lam)
        )
        by_k = run_cli(
            "response", *STATIC_MIRROR, *FAST, "--z", "2e-6",
            "--k", repr(2.0 * math.pi / lam),
        )
        assert column(parse_csv(by_lam.stdout), "g_N")[0] == pytest.approx(
            column(parse_csv(by_k.stdout), "g_N")[0], rel=1e-9
        )

    def test_tight_tolerance_near_k_converges(self):
        # k' nodes close to k must not make the phi layer fail (exit 3).
        res = run_cli(
            "response", "--surface", "gold", "--kz", "6", "--z", "1e-6", "--rel-tol", "1e-9"
        )
        assert_clean_exit(res, 0)
        assert column(parse_csv(res.stdout), "g_N")[0] < 0.0

    def test_one_plane_integral_per_z(self, monkeypatch):
        # g(0) is the plane force: the sweep takes F0 from the k = 0 point
        # instead of running the plane integral again.
        calls = []
        original = quadrature._plane_integral

        def spy(atom, surface, z_atom, settings, force):
            calls.append((z_atom, force))
            return original(atom, surface, z_atom, settings, force)

        monkeypatch.setattr(quadrature, "_plane_integral", spy)
        code, _, _ = run_main(
            "response", *STATIC_MIRROR, *FAST, "--z", "1e-6,2e-6", "--kz", "0,3,6"
        )
        assert code == 0
        assert calls == [(1e-6, True), (2e-6, True)]

    def test_cutoff_points_warn_and_zero(self):
        res = run_cli("response", *STATIC_MIRROR, *FAST, "--z", "1e-6", "--kz", "1,50")
        assert res.returncode == 0
        assert "cutoff" in res.stderr
        g = column(parse_csv(res.stdout), "g_N")
        assert g[0] < 0.0 and g[1] == 0.0


class TestRho:
    def test_mirror_tracks_reference_curve(self):
        res = run_cli("rho", *STATIC_MIRROR, *FAST, "--z", "2e-6", "--kz", "0.5,1,2")
        parsed = parse_csv(res.stdout)
        got = column(parsed, "rho")
        ref = column(parsed, "rho_cp_ref")
        for kz, g, r in zip(column(parsed, "kz_a"), got, ref):
            assert r == pytest.approx(rho_cp_perf(kz), rel=1e-9)
            assert g == pytest.approx(r, abs=1e-4)


class TestEta:
    def test_gold_rises_with_distance(self):
        res = run_cli("eta", "--atom", "rb87", "--surface", "gold", *FAST,
                      "--z", "1e-6,5e-6")
        e = column(parse_csv(res.stdout), "eta_F")
        assert 0.0 < e[0] < e[1] < 1.0


class TestSweepCore:
    def test_eta_columns_equal_plane_columns(self):
        argv = ["--surface", "gold", "--rel-tol", "1e-4", "--z", "1e-6,3e-6"]
        code_plane, plane, _ = run_main("plane", *argv)
        code_eta, eta, _ = run_main("eta", *argv)
        assert code_plane == code_eta == 0
        names = ("z_A_m", "eta_F", "eta_F_err")
        assert raw_columns(eta, *names) == raw_columns(plane, *names)

    def test_rho_columns_equal_response_columns(self):
        argv = ["--surface", "gold", "--rel-tol", "1e-3", "--z", "1e-6", "--kz", "0,2,50"]
        code_resp, resp, warn_resp = run_main("response", *argv)
        code_rho, rho, warn_rho = run_main("rho", *argv)
        assert code_resp == code_rho == 0
        names = ("z_A_m", "k_1_per_m", "rho", "rho_err")
        assert raw_columns(rho, *names) == raw_columns(resp, *names)
        assert "1 grid point(s) beyond the k z_A cutoff" in warn_rho
        assert warn_rho == warn_resp
        # The cutoff point is +0 with the closed-form bound as its error,
        # which is at least the ideal-mirror roll-off there.
        _, [*_, cutoff] = raw_columns(rho, "rho", "rho_err", "rho_cp_ref")
        assert cutoff[0] == "0.000000000000e+00"
        assert float(cutoff[1]) >= float(cutoff[2]) > 0.0


class TestDeterminism:
    ARGS = (
        "response", *STATIC_MIRROR, *FAST,
        "--z", "0.7e-6,1.4e-6,2.8e-6", "--kz", "0,1,2",
    )

    def test_repeat_runs_are_byte_identical(self):
        a = run_cli(*self.ARGS)
        b = run_cli(*self.ARGS)
        assert a.stdout == b.stdout


class TestCorrugation:
    HEADLINE = (
        *STATIC_MIRROR, *FAST, "--z", "2e-6",
        "--h0", "100e-9", "--lambda-c", "10e-6", "--x-points", "3",
    )

    def test_headline_report_is_marginal(self):
        res = run_cli("corrugation", *self.HEADLINE)
        assert res.returncode == 0, res.stderr
        comments, _, _ = parse_csv(res.stdout)
        report = next(c for c in comments if c.startswith("report="))
        rep = json.loads(report.split("=", 1)[1])
        assert rep["classification"] == "marginal"
        assert rep["ratio"] == pytest.approx(0.648851383851919, rel=1e-4)
        assert rep["u1_amplitude_eV"] == pytest.approx(1.1344603465e-14, rel=1e-4)

    def test_columns_are_consistent(self):
        res = run_cli("corrugation", *self.HEADLINE)
        parsed = parse_csv(res.stdout)
        u1 = column(parsed, "U1_J")
        pfa = column(parsed, "U1_pfa_J")
        kz = 2.0 * math.pi / 10e-6 * 2e-6
        # crest row: exact / proximity-force = roll-off at k_c z_A
        assert u1[0] / pfa[0] == pytest.approx(rho_cp_perf(kz), rel=1e-4)
        assert column(parsed, "F_lateral_N")[0] == 0.0

    def test_output_file_moves_report_to_stdout(self, tmp_path):
        out = tmp_path / "corr.csv"
        res = run_cli("corrugation", *self.HEADLINE, "--output", str(out))
        rep = json.loads(res.stdout)
        assert rep["classification"] == "marginal"
        assert "report=" not in out.read_text()

    def test_steep_profile_prints_one_warning_line(self):
        argv = (
            "corrugation", *STATIC_MIRROR, "--z", "1e-6", "--h0", "4e-7",
            "--lambda-c", "1e-5", "--x-points", "2",
        )
        advisory = (
            "warning: profile outside the first-order validity range "
            "(h k_c = 0.251, h / z_A = 0.4; both should stay below 0.3)\n"
        )
        res = run_cli(*argv)
        assert (res.returncode, res.stderr) == (0, advisory)
        # In process, too, the advisory is one line, and the CSV is the same.
        code, out, err = run_main(*argv)
        assert (code, out, err) == (0, res.stdout, advisory)

    def test_config_file_equals_flags(self, tmp_path):
        cfg = {
            "atom": "rb87-static",
            "surface": "perfect",
            "z_a_m": "2e-6",
            "quadrature": {"rel_tol": 1e-5},
            "corrugation": {"h0_m": 100e-9, "lambda_m": 10e-6, "x_points": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        by_cfg = run_cli("corrugation", "--config", str(path))
        by_flags = run_cli("corrugation", *self.HEADLINE)
        assert by_cfg.returncode == 0, by_cfg.stderr
        assert by_cfg.stdout == by_flags.stdout


class TestIngestOptical:
    OMEGA0, OMEGA_P, GAMMA = 3e15, 1.2e15, 2e14

    def lorentzian_csv(self, tmp_path):
        w = np.geomspace(self.OMEGA0 / 100.0, self.OMEGA0 * 100.0, 2000)
        im = (
            self.OMEGA_P**2 * self.GAMMA * w
            / ((self.OMEGA0**2 - w**2) ** 2 + self.GAMMA**2 * w**2)
        )
        path = tmp_path / "lorentz.csv"
        rows = "\n".join(f"{a:.9e},{b:.9e}" for a, b in zip(w, im))
        path.write_text("omega_rad_s,eps_imag\n" + rows + "\n")
        return path

    def test_matches_analytic_continuation(self, tmp_path):
        path = self.lorentzian_csv(tmp_path)
        res = run_cli(
            "ingest-optical", str(path),
            "--xi-min", "1e15", "--xi-max", "1e16", "--xi-points", "5",
        )
        assert res.returncode == 0, res.stderr
        parsed = parse_csv(res.stdout)
        xi = np.array(column(parsed, "xi_rad_s"))
        eps = np.array(column(parsed, "eps_i_xi"))
        want = 1.0 + self.OMEGA_P**2 / (self.OMEGA0**2 + xi**2 + self.GAMMA * xi)
        assert np.max(np.abs(eps / want - 1.0)) < 1e-5

    def test_zero_absorption_gives_vacuum(self, tmp_path):
        path = tmp_path / "vac.csv"
        path.write_text("omega_rad_s,eps_imag\n1e14,0.0\n1e15,0.0\n1e16,0.0\n")
        res = run_cli("ingest-optical", str(path), "--xi-points", "3")
        for eps in column(parse_csv(res.stdout), "eps_i_xi"):
            assert eps == 1.0

    def test_drude_metadata_echoed(self, tmp_path):
        path = tmp_path / "drude.csv"
        path.write_text(
            "# drude_omega_p=1.37e16\n# drude_gamma=4.05e13\n"
            "omega_rad_s,eps_imag\n1e14,1.0\n1e15,0.1\n1e16,0.01\n"
        )
        res = run_cli("ingest-optical", str(path), "--xi-points", "2")
        comments, _, _ = parse_csv(res.stdout)
        assert any(c.startswith("drude_omega_p=1.37") for c in comments)
        assert any(c.startswith("source=drude.csv") for c in comments)


    def test_infinite_drude_metadata_exits_2(self, tmp_path):
        path = tmp_path / "drude.csv"
        path.write_text(
            "# drude_omega_p=inf\n# drude_gamma=4.05e13\n"
            "omega_rad_s,eps_imag\n1e14,1.0\n1e15,0.1\n1e16,0.01\n"
        )
        code, out, err = run_main("ingest-optical", str(path), "--xi-points", "2")
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--xi-max", "inf"], "--xi-max"),
            (["--xi-min", "1e17", "--xi-max", "1e13"], "--xi-max"),
            (["--xi-points", "0"], "--xi-points"),
            (["--xi-min", "nan"], "--xi-min"),
            (["--xi-min", "0"], "--xi-min"),
        ],
    )
    def test_bad_xi_grid_exits_2_naming_the_flag(self, tmp_path, flags, flag):
        path = tmp_path / "vac.csv"
        path.write_text("omega_rad_s,eps_imag\n1e14,0.0\n1e15,0.0\n1e16,0.0\n")
        code, out, err = run_main("ingest-optical", str(path), *flags)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and flag in err

    def test_grid_that_prints_repeated_xi_exits_2_before_reading(self, tmp_path):
        # Three xi within 1e-14 of each other print as one 13-digit value,
        # a table the reader would reject. The grid is checked before the
        # input is read, so a missing input file is not what gets named.
        argv = [
            "ingest-optical", str(tmp_path / "missing.csv"),
            "--xi-min", "1e13", "--xi-max", "1.00000000000001e13", "--xi-points", "3",
            "--output", str(tmp_path / "dup.csv"),
        ]
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert all(flag in err for flag in ("--xi-min", "--xi-max", "--xi-points"))
        assert not (tmp_path / "dup.csv").exists()

    def test_one_xi_point_is_xi_min(self, tmp_path):
        path = tmp_path / "vac.csv"
        path.write_text("omega_rad_s,eps_imag\n1e14,0.0\n1e15,0.0\n1e16,0.0\n")
        code, out, _ = run_main("ingest-optical", str(path), "--xi-points", "1")
        assert code == 0
        assert parse_csv(out)[2] == [[1e13, 1.0]]

    def test_output_file_equals_stdout(self, tmp_path):
        path = self.lorentzian_csv(tmp_path)
        out_path = tmp_path / "eps.csv"
        argv = ["ingest-optical", str(path), "--xi-points", "4"]
        code, out, _ = run_main(*argv)
        assert code == 0
        assert run_main(*argv, "--output", str(out_path)) == (0, "", "")
        assert out_path.read_bytes() == out.encode()


class TestTableSurface:
    XI = np.geomspace(1e12, 1e18, 7)

    def table(self, tmp_path, text):
        path = tmp_path / "eps.csv"
        path.write_text(text)
        surface = {
            "model": "table",
            "path": str(path),
            "extrapolate_low": "constant",
            "extrapolate_high": "inverse_square",
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"atom": "rb87", "surface": surface, "z_a_m": 1e-6}))
        return path, ["eta", "--config", str(config), "--rel-tol", "1e-3"]

    def rows(self):
        eps = 1.0 + 10.87 * 6.6e15**2 / (6.6e15**2 + self.XI**2)
        return "".join(f"{x:.12e},{e:.12e}\n" for x, e in zip(self.XI, eps))

    def test_well_formed_table_runs(self, tmp_path):
        _, argv = self.table(tmp_path, "# origin=test\nxi_rad_s,eps_i_xi\n" + self.rows())
        code, out, err = run_main(*argv)
        assert code == 0, err
        assert len(parse_csv(out)[2]) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param("xi_rad_s,eps_i_xi\n", id="header-only"),
            pytest.param("xi_rad_s,eps_i_xi\n{rows}1e19\n", id="one-column"),
            pytest.param("xi_rad_s,eps_i_xi\n{rows}foo,bar\n", id="junk-cells"),
            pytest.param("{rows}1e19,1.5,2.0\n", id="three-cells"),
            pytest.param("{rows}1e19,nan\n", id="nan-cell"),
        ],
    )
    def test_malformed_table_exits_2_naming_the_file(self, tmp_path, bad):
        path, argv = self.table(tmp_path, bad.format(rows=self.rows()))
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert str(path) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("1e14,0.5\n1e15,0.4\n", "must exceed 1", id="eps-at-most-1"),
            pytest.param("0,0.5\n1e14,3.0\n1e15,2.0\n", "positive", id="row-at-zero-xi"),
            pytest.param("1e15,3.0\n1e14,4.0\n", "strictly ascending", id="xi-descending"),
            pytest.param("1e14,3.0\n", "at least two", id="one-sample"),
        ],
    )
    def test_rejected_table_exits_2_naming_the_file(self, tmp_path, text, message):
        # The rows parse, but the model rejects the values they hold.
        path, argv = self.table(tmp_path, text)
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert str(path) in err and message in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


# Runs in a fresh interpreter: every table path of the CLI, then the
# modules loaded on the way. argv[1] is a scratch directory.
_SCIPY_FREE_RUN = """
import json, sys
from pathlib import Path
import numpy as np
import cpsurf
from cpsurf import atomics, cli

tmp = Path(sys.argv[1])
w = np.geomspace(1e13, 1e18, 200)
source = tmp / "absorption.csv"
source.write_text("".join(f"{a:.12e},{b:.12e}\\n" for a, b in zip(w, 1e30 * w / (w**2 + 1e32) ** 1.5)))
table = tmp / "eps_xi.csv"
assert cli.main(["ingest-optical", str(source), "--xi-points", "20", "--output", str(table)]) == 0
surface = {"model": "table", "path": str(table), "extrapolate_low": "constant",
           "extrapolate_high": "inverse_square"}
assert cli.build_surface(surface).eps(1e15) > 1.0
config = tmp / "cfg.json"
config.write_text(json.dumps({"atom": "rb87", "surface": surface, "z_a_m": 1e-6}))
assert cli.main(["plane", "--config", str(config), "--rel-tol", "1e-3"]) == 0
xi = np.geomspace(1e12, 1e17, 10)
assert atomics.TabulatedPolarizability(xi, 1.0 / (1.0 + xi / 1e15)).alpha(3e14) > 0.0
assert cli.main(["selftest"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestImportGuard:
    def test_cli_runs_tables_without_scipy(self, tmp_path):
        # scipy.interpolate alone used to cost most of the CLI's start-up.
        res = subprocess.run(
            [sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"


class TestExitCodes:
    def test_unknown_surface_preset(self):
        res = run_cli("plane", "--atom", "rb87", "--surface", "unobtanium", "--z", "1e-6")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_missing_k_grid(self):
        res = run_cli("response", *STATIC_MIRROR, "--z", "1e-6")
        assert res.returncode == 2

    def test_two_k_grids(self):
        res = run_cli(
            "response", *STATIC_MIRROR, "--z", "1e-6", "--kz", "1", "--k", "1e6"
        )
        assert res.returncode == 2

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = run_cli("plane", "--config", str(path), "--z", "1e-6")
        assert res.returncode == 2

    def test_missing_config(self, tmp_path):
        res = run_cli("plane", "--config", str(tmp_path / "nope.json"), "--z", "1e-6")
        assert res.returncode == 2

    def test_unknown_quadrature_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"quadrature": {"panels": 7}}))
        res = run_cli("plane", "--config", str(path), *STATIC_MIRROR, "--z", "1e-6")
        assert res.returncode == 2

    def test_starved_quadrature_reports_no_convergence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"quadrature": {"rel_tol": 1e-13, "max_panels": 4}})
        )
        res = run_cli(
            "plane", "--config", str(path), "--atom", "rb87",
            "--surface", "gold", "--z", "1e-6",
        )
        assert_clean_exit(res, 3)
        assert "converge" in res.stderr
        assert "kprime layer at xi=" in res.stderr

    def test_starved_angular_budget_names_xi_and_kprime(self, monkeypatch):
        # An angular rule held to its first 33-point check.
        monkeypatch.setattr(quadrature, "cc_rows", functools.partial(cc_rows, max_half=8))
        code, out, err = run_main(
            "response", "--atom", "rb87", "--surface", "silicon",
            "--z", "1e-6", "--kz", "3", "--rel-tol", "1e-13",
        )
        assert (code, out) == (3, "")
        assert "phi layer at xi=" in err
        assert "k'=" in err

    @pytest.mark.parametrize("key", ["angular_max_half", "kz_cutoff"])
    def test_removed_quadrature_key_exits_2(self, tmp_path, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"quadrature": {key: 16}}))
        code, out, err = run_main(
            "response", "--config", str(path), *STATIC_MIRROR, "--z", "1e-6", "--kz", "3"
        )
        assert (code, out) == (2, "")
        assert "unknown quadrature settings" in err and key in err

    @pytest.mark.parametrize(
        "flags, corrugation, field",
        [
            (["--lambda-c", "1e-5", "--phase", "nan"], {"lambda_m": 1e-5, "phase_rad": math.nan}, "phase_rad"),
            (["--lambda-c", "1e-5", "--phase", "inf"], {"lambda_m": 1e-5, "phase_rad": math.inf}, "phase_rad"),
            (["--k-c", "nan"], {"k_c_1_per_m": math.nan}, "k_c_1_per_m"),
            (["--lambda-c", "inf"], {"lambda_m": math.inf}, "lambda_m"),
            (["--lambda-c", "1e-5", "--h0", "nan"], {"lambda_m": 1e-5, "h0_m": math.nan}, "h0_m"),
        ],
    )
    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_non_finite_corrugation_exits_2_naming_the_field(
        self, monkeypatch, tmp_path, flags, corrugation, field, by
    ):
        def no_quadrature(*args):
            pytest.fail("quadrature ran on a non-finite corrugation input")

        monkeypatch.setattr(quadrature, "_xi_kprime", no_quadrature)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corrugation": corrugation} if by == "config" else {}))
        code, out, err = run_main(
            "corrugation", "--config", str(path), *STATIC_MIRROR, "--z", "2e-6",
            "--x-points", "2", *(flags if by == "flag" else []),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: corrugation field {field!r} cannot take ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, spec, field",
        [
            ("atom", {"model": "multilevel", "transitions": 5}, "transitions"),
            ("surface", {"model": "plasma", "omega_p_rad_s": [1]}, "omega_p_rad_s"),
        ],
    )
    def test_malformed_field(self, tmp_path, key, spec, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: spec}))
        res = run_cli("plane", "--config", str(path), "--z", "1e-6")
        assert_clean_exit(res, 2)
        assert field in res.stderr

    @pytest.mark.parametrize(
        "command, cfg, field",
        [
            ("plane", {"quadrature": {"rel_tol": "x"}}, "rel_tol"),
            ("plane", {"quadrature": {"max_panels": 4.5}}, "max_panels"),
            ("plane", {"quadrature": 5}, "quadrature"),
            ("corrugation", {"corrugation": {"h0_m": [1], "lambda_m": 1e-5}}, "h0_m"),
            ("corrugation", {"corrugation": {"lambda_m": "far"}}, "lambda_m"),
            ("corrugation", {"corrugation": {"lambda_m": 0}}, "lambda_m"),
            ("corrugation", {"corrugation": {"k_c_1_per_m": {}}}, "k_c_1_per_m"),
            ("corrugation", {"corrugation": {"k_c_1_per_m": 1e5, "phase_rad": [0]}}, "phase_rad"),
            ("corrugation", {"corrugation": {"k_c_1_per_m": 1e5, "direction": 1}}, "direction"),
            ("corrugation", {"corrugation": {"k_c_1_per_m": 1e5, "x_points": [3]}}, "x_points"),
            ("corrugation", {"corrugation": {"k_c_1_per_m": 1e5, "x_m": [[0]]}}, "grid"),
            ("plane", {"output_csv": 5}, "output_csv"),
            ("corrugation", {"corrugation": {"k_c_1_per_m": 1e5}, "probe": {"delta_n": math.inf}}, "delta_n"),
        ],
    )
    def test_malformed_setting(self, tmp_path, command, cfg, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(command, "--config", str(path), *STATIC_MIRROR, "--z", "2e-6")
        assert_clean_exit(res, 2)
        assert field in res.stderr

    @pytest.mark.parametrize("key, spec", [("atom", 5), ("surface", [])])
    def test_spec_of_wrong_type(self, tmp_path, key, spec):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: spec}))
        res = run_cli("plane", "--config", str(path), "--z", "1e-6")
        assert_clean_exit(res, 2)
        assert key in res.stderr

    @pytest.mark.parametrize(
        "argv, grid",
        [
            (["plane", "--z", "inf"], "z_a_m"),
            (["eta", "--z", "log:1e-6:inf:3"], "z_a_m"),
            (["response", "--z", "1e-6", "--k", "1e6,inf"], "k_1_per_m"),
            (["rho", "--z", "1e-6", "--wavelength", "inf"], "lambda_m"),
            (["response", "--z", "1e-6", "--kz", "nan"], "kz_a"),
            (["corrugation", "--z", "2e-6", "--k-c", "1e5", "--x", "0,-inf"], "x_m"),
        ],
    )
    def test_non_finite_grid(self, argv, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(*argv, *STATIC_MIRROR)
        assert (code, out) == (2, "")
        assert f"{grid} grid values must be finite" in err

    @pytest.mark.parametrize(
        "argv, grid",
        [
            (["plane", "--z", "lin:1e-6:2e-6"], "z_a_m"),
            (["response", "--z", "1e-6", "--kz", "lin:1e-6:2e-6:2.5"], "kz_a"),
            (["corrugation", "--z", "2e-6", "--k-c", "1e5", "--x", "lin:a:2e-6:2"], "x_m"),
        ],
    )
    def test_malformed_grid_names_key_and_forms(self, argv, grid):
        # Neither Python's unpacking nor its int() or float() message
        # reaches the user: the error names the grid and what it accepts.
        code, out, err = run_main(*argv, *STATIC_MIRROR)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {grid} grid ") and err.count("\n") == 1
        assert "does not parse" in err and "'lin:a:b:n'" in err and "'log:a:b:n'" in err
        assert "unpack" not in err and "invalid literal" not in err and "convert" not in err

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"surface": {"model": "plasma", "omega_p_rad_s": 1e400}}', "omega_p"),
            (
                '{"surface": {"model": "drude_lorentz", "omega_dl_rad_s": 6.6e15,'
                ' "eps_static": NaN}}',
                "eps_static",
            ),
            ('{"atom": {"model": "static", "alpha0_si": -Infinity}}', "alpha0"),
            (
                '{"atom": {"model": "single_oscillator", "alpha0_si": 5e-39,'
                ' "omega_a_rad_s": 1e999}}',
                "omega_a",
            ),
            ('{"atom": {"model": "multilevel", "transitions": [[2.4e15, Infinity]]}}', "transition"),
            ('{"atom": {"model": "static", "alpha0_si": 1%s}}' % ("0" * 400), "alpha0_si"),
            ('{"z_a_m": [1%s]}' % ("0" * 400), "z_a_m"),
        ],
    )
    def test_non_finite_config_value(self, tmp_path, text, field):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        z = [] if "z_a_m" in text else ["--z", "1e-6"]
        code, out, err = run_main("plane", "--config", str(path), *z, "--rel-tol", "1e-3")
        assert (code, out) == (2, "")
        assert field in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # kappa'^2 underflows to 0 against an infinite plasma eps, so
            # the kernel's TM denominator is nan.
            (["response", "--z", "1e170", "--kz", "0.5"], "TM denominator"),
            # z_A^5 overflows in the ideal-mirror force f_cp0 ...
            (["plane", "--z", "1e62"], "floating-point range"),
            # ... or f_cp0 underflows to 0 and eta_F divides by it.
            (["eta", "--z", "1e55"], "floating-point range"),
            # (c / z_A)^2 overflows, so the integrands are nan: the first
            # panel ends the run instead of a full panel budget per layer.
            (["plane", "--z", "1e-200"], "not finite"),
            (["response", "--z", "1e-200", "--kz", "1"], "not finite"),
        ],
    )
    def test_distance_out_of_float_range(self, argv, message):
        # A warning would print to stderr ahead of the error line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_main(*argv, "--surface", "gold", "--rel-tol", "1e-3")
        assert (code, out) == (2, "")
        assert message in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["corrugation", "--z", "2e-6", "--k-c", "1e5", "--x-points", "1000000000000"],
            ["plane", "--z", "lin:1e-6:2e-6:1000000000000"],
        ],
    )
    def test_point_count_too_large_to_allocate(self, monkeypatch, argv):
        # Stands in for numpy failing to allocate the grid; nothing large
        # is allocated.
        linspace = np.linspace

        def refusing(start, stop, num=50, **kw):
            if num > 10**9:
                raise MemoryError
            return linspace(start, stop, num, **kw)

        monkeypatch.setattr(np, "linspace", refusing)
        code, out, err = run_main(*argv, *STATIC_MIRROR)
        assert (code, out) == (2, "")
        assert "out of memory" in err

    def test_output_path_is_a_directory(self, tmp_path):
        code, _, err = run_main("eta", *STATIC_MIRROR, *FAST, "--z", "1e-6", "--output", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")

    def test_cli_module_passes_exit_code(self):
        res = run_cli(
            "plane", "--surface", "nosuch", "--z", "1e-6", module="cpsurf.cli"
        )
        assert_clean_exit(res, 2)


# Config values for the fuzz: numbers of every kind, JSON junk, and a few
# physical values so that some examples run the quadrature to the end.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "model"]), st.integers(0, 2), max_size=1),
)
_NUMBER = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, -1.0, 1e-6, 2e-6, 1e5, 1.5e15, 6.6e15, 11.87, 5.3e-39]),
)
_VALUE = st.one_of(_NUMBER, _JUNK)
_ATOM = st.one_of(
    st.sampled_from(["rb87", "rb87-static", "Rb87_static", "cs"]),
    _JUNK,
    st.fixed_dictionaries(
        {"model": st.sampled_from(["static", "single_oscillator", "multilevel", "x"])},
        optional={
            "alpha0_si": _VALUE,
            "omega_a_rad_s": _VALUE,
            "transitions": st.one_of(_VALUE, st.lists(st.lists(_NUMBER, max_size=3), max_size=2)),
        },
    ),
)
_SURFACE = st.one_of(
    st.sampled_from(["gold", "silicon", "perfect", "mirror", "glass"]),
    _JUNK,
    st.fixed_dictionaries(
        {"model": st.sampled_from(["plasma", "drude_lorentz", "table", "x"])},
        optional={
            "omega_p_rad_s": _VALUE,
            "omega_dl_rad_s": _VALUE,
            "eps_static": _VALUE,
            "path": st.sampled_from(["missing.csv", "", ".", 3]),
        },
    ),
)
# Every accepted budget is small, so every example stays cheap.
_QUADRATURE = st.one_of(
    _JUNK,
    st.fixed_dictionaries(
        {"max_panels": st.sampled_from([4, 5, 6])},
        optional={
            "initial_panels": st.sampled_from([0, 1, 2, 4.5, 7, "x"]),
            "angular_min_half": st.sampled_from([1, 4, 8, 32]),
            "angular_max_half": st.sampled_from([8, 16]),
            "kz_cutoff": _VALUE,
            "bogus": _VALUE,
        },
    ),
)
_GRID = st.one_of(
    _NUMBER.map(repr),
    st.sampled_from(["", ",", "1e-6,2e-6", "lin:1e-6:2e-6:2", "log:0:1:2", "lin:1:2:0", "a:b"]),
)
_GRID_VALUE = st.one_of(_GRID, st.lists(_NUMBER, max_size=2), _JUNK)
_CORRUGATION = st.one_of(
    _JUNK,
    st.fixed_dictionaries(
        {},
        optional={
            "h0_m": _VALUE,
            "lambda_m": _VALUE,
            "k_c_1_per_m": _VALUE,
            "phase_rad": _VALUE,
            "direction": st.one_of(_VALUE, st.lists(_NUMBER, max_size=3)),
            "x_points": st.one_of(st.integers(-1, 3), _JUNK),
            "x_m": _GRID_VALUE,
        },
    ),
)
_PROBE = st.one_of(
    _JUNK,
    st.dictionaries(st.sampled_from(["delta_n", "rho0_m", "mass_kg", "bogus"]), _VALUE, max_size=2),
)
# Each example starts from a cheap valid run of its command and replaces
# or drops up to two config keys and adds up to two flags.
_BASE = {
    "atom": st.sampled_from(
        ["rb87", "rb87-static", {"model": "multilevel", "transitions": [[2.4e15, 2.6e-29]]}]
    ),
    "surface": st.sampled_from(
        ["gold", "silicon", "perfect", {"model": "drude_lorentz", "omega_dl_rad_s": 6.6e15, "eps_static": 3.0}]
    ),
    "z_a_m": st.sampled_from([1e-6, "2e-6", [3e-7]]),
    "quadrature": st.fixed_dictionaries({"max_panels": st.sampled_from([4, 16, 64])}),
    "kz_a": st.sampled_from([0, "0.5", [2.0]]),
    "corrugation": st.fixed_dictionaries(
        {"lambda_m": st.sampled_from([1e-5, 3e-6]), "x_points": st.sampled_from([1, 2])}
    ),
}
_FUZZ = {
    "atom": _ATOM,
    "surface": _SURFACE,
    "quadrature": _QUADRATURE,
    "z_a_m": _GRID_VALUE,
    "kz_a": _GRID_VALUE,
    "k_1_per_m": _GRID_VALUE,
    "lambda_m": _GRID_VALUE,
    "corrugation": _CORRUGATION,
    "probe": _PROBE,
    "output_csv": st.one_of(st.integers(), st.none(), st.lists(st.none(), max_size=1)),
}
_DROP = object()
# The quadrature section is replaced but never dropped: the default budget
# of 4096 panels per layer is not cheap on an integrand that never
# converges.
_MUTATIONS = st.lists(
    st.one_of(
        *[
            st.tuples(st.just(key), value if key == "quadrature" else st.one_of(value, st.just(_DROP)))
            for key, value in _FUZZ.items()
        ]
    ),
    max_size=2,
)
_FLAGS = {
    "plane": ["--z", "--atom", "--surface"],
    "eta": ["--z", "--atom", "--surface"],
    "response": ["--z", "--atom", "--surface", "--kz", "--k", "--wavelength"],
    "rho": ["--z", "--atom", "--surface", "--kz", "--k", "--wavelength"],
    "corrugation": ["--z", "--atom", "--surface", "--h0", "--lambda-c", "--k-c", "--phase", "--x", "--x-points"],
}
_FLAG_VALUE = st.one_of(_GRID, st.sampled_from(["rb87", "gold", "mirror", "x", "-1", "nan", "1e400"]))
# x_points has no upper bound, and each point costs a profile evaluation.
_X_POINTS = st.sampled_from(["-1", "0", "2", "x", "1.5"])


# ingest-optical: a small absorption spectrum and xi grids that include
# non-finite, non-positive, swapped and malformed bounds and counts.
_SPECTRUM = "omega_rad_s,eps_imag\n" + "".join(
    f"{w!r},{1e30 * w / (w * w + 1e32) ** 1.5!r}\n" for w in np.geomspace(1e13, 1e18, 40).tolist()
)
_XI_VALUE = st.sampled_from(["1e13", "1e15", "1e17", "nan", "inf", "-inf", "0", "-1", "x", "1e400"])
_XI_POINTS = st.sampled_from(["1", "2", "7", "0", "-1", "x", "nan", "1.5"])


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


class TestContractFuzz:
    @given(data=st.data(), command=st.sampled_from(sorted(_FLAGS)))
    @hyp_settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_code_is_0_2_or_3(self, fuzz_config, data, command):
        config = data.draw(st.fixed_dictionaries(_BASE))
        for key, value in data.draw(_MUTATIONS):
            if value is _DROP:
                config.pop(key, None)
            else:
                config[key] = value
        fuzz_config.write_text(json.dumps(config))
        flags = data.draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=2))
        rel_tol = data.draw(st.sampled_from(["1e-3", "0.01", "0.3"]))
        argv = [command, "--config", str(fuzz_config), "--rel-tol", rel_tol]
        for flag in flags:
            value = data.draw(_X_POINTS if flag == "--x-points" else _FLAG_VALUE)
            argv.append(f"{flag}={value}")
        code, out, err = run_main(*argv)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 0:
            # A run that succeeds wrote finite numbers only.
            _, _, rows = parse_csv(out)
            assert rows and all(math.isfinite(v) for row in rows for v in row), out

    @given(
        flags=st.lists(
            st.tuples(st.sampled_from(["--xi-min", "--xi-max"]), _XI_VALUE)
            | st.tuples(st.just("--xi-points"), _XI_POINTS),
            max_size=3,
        )
    )
    @hyp_settings(max_examples=150, deadline=None, derandomize=True)
    def test_ingest_optical_exit_code_is_0_2_or_3(self, fuzz_config, flags):
        spectrum = fuzz_config.with_name("spectrum.csv")
        spectrum.write_text(_SPECTRUM)
        output = fuzz_config.with_name("eps_xi.csv")
        output.unlink(missing_ok=True)
        argv = ["ingest-optical", str(spectrum), "--output", str(output)]
        code, _, err = run_main(*argv, *(f"{flag}={value}" for flag, value in flags))
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 0:
            _, _, rows = parse_csv(output.read_text())
            if len(rows) == 1:
                # One xi is a valid query of the transform, but not a table.
                with pytest.raises(ValueError, match="need at least two xi samples"):
                    optics.read_imaginary_axis_csv(output)
            else:
                optics.read_imaginary_axis_csv(output)

    def test_removed_kk_rel_tol_flag_exits_2(self, fuzz_config):
        spectrum = fuzz_config.with_name("spectrum.csv")
        spectrum.write_text(_SPECTRUM)
        code, out, err = run_main("ingest-optical", str(spectrum), "--kk-rel-tol", "1e-8")
        assert (code, out) == (2, "")
        assert "--kk-rel-tol" in err and "Traceback" not in err


# Table files for the fuzz: 1 to 6 rows drawn from few values, so that
# duplicate and unsorted xi, eps <= 1 and a row at xi = 0 all come up.
# Half the tables are sorted with one row per xi, so that some runs reach
# the quadrature.
_TABLE_ROW = st.tuples(
    st.sampled_from([0.0, 1e12, 1e14, 3e15, 1e17, 1e19]),
    st.sampled_from([0.5, 1.0, 1.0 + 1e-12, 2.0, 11.87, 1e6]),
)
_TABLE_SURFACE = st.fixed_dictionaries(
    {
        "model": st.just("table"),
        "extrapolate_low": st.sampled_from(["strict", "constant", "inverse_square"]),
        "extrapolate_high": st.sampled_from(["strict", "inverse_square"]),
    }
)


class TestTableFuzz:
    @given(
        rows=st.lists(_TABLE_ROW, min_size=1, max_size=6),
        tidy=st.booleans(),
        header=st.booleans(),
        surface=_TABLE_SURFACE,
        z=st.sampled_from([1e-6, 3e-7]),
        max_panels=st.sampled_from([4, 16, 64]),
    )
    @hyp_settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_code_is_0_2_or_3(self, fuzz_config, rows, tidy, header, surface, z, max_panels):
        if tidy:
            rows = sorted(dict(rows).items())
        table = fuzz_config.with_name("eps.csv")
        lines = ["xi_rad_s,eps_i_xi"] if header else []
        table.write_text("\n".join(lines + [f"{x!r},{e!r}" for x, e in rows]) + "\n")
        surface["path"] = str(table)
        config = {"atom": "rb87", "surface": surface, "z_a_m": z, "quadrature": {"max_panels": max_panels}}
        fuzz_config.write_text(json.dumps(config))
        code, _, err = run_main("plane", "--config", str(fuzz_config), "--rel-tol", "1e-3")
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
