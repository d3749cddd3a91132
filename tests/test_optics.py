import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.interpolate import PchipInterpolator

from cpsurf import cli, optics, quadrature
from cpsurf.constants import C_LIGHT, GOLD_OMEGA_P, SILICON_EPS_STATIC, SILICON_OMEGA_DL


class TestPermittivityModels:
    def test_vacuum(self):
        # eps_static = 1 is the vacuum: eps = 1 exactly at every xi.
        v = optics.DrudeLorentz(1e15, 1.0)
        assert v.eps(0.0) == 1.0 and v.eps(1e15) == 1.0

    def test_gold_plasma_formula(self):
        gold = optics.gold_plasma()
        xi = 3e15
        assert gold.eps(xi) == pytest.approx(1.0 + GOLD_OMEGA_P**2 / xi**2, rel=1e-14)
        assert math.isinf(gold.eps(0.0))
        assert gold.eps_times_xi2(0.0) == pytest.approx(GOLD_OMEGA_P**2)

    def test_silicon_formula(self):
        si = optics.silicon_drude_lorentz()
        xi = 2e15
        want = 1.0 + (SILICON_EPS_STATIC - 1.0) * SILICON_OMEGA_DL**2 / (
            SILICON_OMEGA_DL**2 + xi**2
        )
        assert si.eps(xi) == pytest.approx(want, rel=1e-14)
        assert si.eps(0.0) == pytest.approx(SILICON_EPS_STATIC, rel=1e-14)

    @given(xi=st.floats(min_value=1e10, max_value=1e18))
    @hyp_settings(max_examples=60, deadline=None)
    def test_monotone_decay_to_one(self, xi):
        for model in (optics.gold_plasma(), optics.silicon_drude_lorentz()):
            assert model.eps(xi) > model.eps(2.0 * xi) > 1.0

    def test_array_support(self):
        xi = np.array([1e14, 1e15, 1e16])
        out = optics.silicon_drude_lorentz().eps(xi)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            optics.PlasmaMetal(0.0)
        with pytest.raises(ValueError):
            optics.DrudeLorentz(1e15, 0.5)
        with pytest.raises(ValueError):
            optics.DrudeLorentz(-1.0, 11.87)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: optics.PlasmaMetal(v), "omega_p"),
            (lambda v: optics.DrudeLorentz(v, 11.87), "omega_dl"),
            (lambda v: optics.DrudeLorentz(6.6e15, v), "eps_static"),
        ],
    )
    def test_rejects_non_finite(self, make, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make(bad)


class TestFresnel:
    def test_perfect_conductor_values(self):
        fs = optics.fresnel(optics.PerfectConductor(), 2e6, 3e15)
        assert fs.r_te == -1.0 and fs.r_tm == 1.0
        assert math.isinf(fs.kappa_t)
        assert fs.kappa == pytest.approx(math.hypot(2e6, 3e15 / C_LIGHT), rel=1e-15)

    def test_perfect_conductor_arrays_are_read_only_constants(self):
        # The mirror's coefficients are constants on kappa's shape, handed
        # out as read-only broadcast views rather than filled arrays.
        k = np.geomspace(1e5, 1e8, 12).reshape(3, 4)
        fs = optics.fresnel(optics.PerfectConductor(), k, 3e15)
        old = {
            "r_te": np.full(k.shape, -1.0),
            "r_tm": np.full(k.shape, 1.0),
            "kappa_t": np.full(k.shape, np.inf),
        }
        for name, want in old.items():
            got = getattr(fs, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert np.array_equal(fs.kappa, np.sqrt((3e15 / C_LIGHT) ** 2 + k**2))
        scalar = optics.fresnel(optics.PerfectConductor(), 2e6, 3e15)
        assert all(type(v) is float for v in scalar.__dict__.values())

    def test_perfect_conductor_plane_csv_unchanged_by_views(self, monkeypatch):
        # Filled, writable copies of every coefficient (the arrays the
        # mirror's Fresnel set used to hold) give the same CSV bytes.
        def plane_csv():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(
                    ["plane", "--atom", "rb87-static", "--surface", "perfect",
                     "--rel-tol", "1e-5", "--z", "1e-7,2e-6"]
                )
            assert code == 0
            return out.getvalue()

        views = plane_csv()
        original = quadrature.fresnel

        def filled(model, k, xi):
            fs = original(model, k, xi)
            shape = np.shape(fs.kappa)
            arrays = (np.array(np.broadcast_to(v, shape)) for v in fs.__dict__.values())
            return optics.FresnelSet(*arrays)

        monkeypatch.setattr(quadrature, "fresnel", filled)
        assert plane_csv() == views

    def test_vacuum_is_transparent(self):
        fs = optics.fresnel(optics.DrudeLorentz(1e15, 1.0), 2e6, 3e15)
        assert fs.r_te == 0.0 and fs.r_tm == 0.0

    def test_normal_incidence_reduction(self):
        # k = 0: r_te = (1 - sqrt eps)/(1 + sqrt eps), r_tm = -r_te.
        si = optics.silicon_drude_lorentz()
        xi = 1.7e15
        n = math.sqrt(si.eps(xi))
        fs = optics.fresnel(si, 0.0, xi)
        assert fs.r_te == pytest.approx((1.0 - n) / (1.0 + n), rel=1e-13)
        assert fs.r_tm == pytest.approx((n - 1.0) / (n + 1.0), rel=1e-13)

    def test_plasma_static_limit(self):
        # At xi = 1e-160 a plasma eps overflows to inf: TM saturates at 1,
        # TE stays partial.
        gold = optics.gold_plasma()
        k = 1e6
        with np.errstate(over="ignore"):
            assert math.isinf(gold.eps(1e-160))
            fs = optics.fresnel(gold, k, 1e-160)
        assert fs.r_tm == 1.0
        kappa_t = math.hypot(k, GOLD_OMEGA_P / C_LIGHT)
        assert fs.r_te == pytest.approx((k - kappa_t) / (k + kappa_t), rel=1e-13)
        assert -1.0 < fs.r_te < 0.0

    @given(
        k=st.floats(min_value=1.0, max_value=1e8),
        xi=st.floats(min_value=1e10, max_value=1e17),
    )
    @hyp_settings(max_examples=80, deadline=None)
    def test_amplitude_bounds(self, k, xi):
        for model in (optics.gold_plasma(), optics.silicon_drude_lorentz()):
            fs = optics.fresnel(model, k, xi)
            assert -1.0 <= fs.r_te <= 0.0
            assert 0.0 <= fs.r_tm <= 1.0
            assert fs.kappa_t >= fs.kappa > 0.0

    def test_array_k(self):
        fs = optics.fresnel(optics.gold_plasma(), np.array([1e5, 1e6, 1e7]), 2e15)
        assert fs.r_te.shape == (3,)
        fs_scalar = optics.fresnel(optics.gold_plasma(), 1e6, 2e15)
        assert fs.r_tm[1] == pytest.approx(fs_scalar.r_tm, rel=1e-15)

    @pytest.mark.parametrize(
        "model",
        [
            optics.gold_plasma(),
            optics.silicon_drude_lorentz(),
            optics.PerfectConductor(),
            optics.DrudeLorentz(1e15, 1.0),
            optics.TabulatedPermittivity(
                np.geomspace(1e12, 1e18, 30),
                1.0 + 10.0 / (1.0 + (np.geomspace(1e12, 1e18, 30) / 3e15) ** 2),
                extrapolate_low="constant",
                extrapolate_high="inverse_square",
            ),
        ],
        ids=["plasma", "drude_lorentz", "perfect", "vacuum", "table"],
    )
    def test_array_xi_matches_scalar_calls(self, model):
        rng = np.random.default_rng(11)
        xi = 10.0 ** rng.uniform(10.0, 18.5, 40)
        k = 10.0 ** rng.uniform(2.0, 9.0, (xi.size, 6))
        column = optics.fresnel(model, k, xi[:, None])
        row = optics.fresnel(model, k[:, 0], xi)
        for name in ("r_te", "r_tm", "kappa", "kappa_t"):
            got = getattr(column, name)
            assert np.shape(got) == k.shape
            assert np.shape(getattr(row, name)) == xi.shape
            want = np.array(
                [[getattr(optics.fresnel(model, kk, x), name) for kk in ks]
                 for x, ks in zip(xi.tolist(), k.tolist())]
            )
            assert np.array_equal(got, want)
            assert np.array_equal(getattr(row, name), got[:, 0])

    def test_scalar_xi_keeps_the_scalar_formulas(self):
        si = optics.silicon_drude_lorentz()
        k, xi = 3.3e6, 2.1e15
        fs = optics.fresnel(si, k, xi)
        assert all(isinstance(v, float) for v in vars(fs).values())
        eps = si.eps(xi)
        kappa = math.sqrt((xi / C_LIGHT) ** 2 + k**2)
        kappa_t = math.sqrt(k**2 + si.eps_times_xi2(xi) / C_LIGHT**2)
        assert fs.kappa == kappa and fs.kappa_t == kappa_t
        assert fs.r_te == (kappa - kappa_t) / (kappa + kappa_t)
        assert fs.r_tm == (eps * kappa - kappa_t) / (eps * kappa + kappa_t)

    def test_array_xi_rejects_negative_element(self):
        with pytest.raises(ValueError):
            optics.fresnel(optics.gold_plasma(), 1e6, np.array([1e15, -1e15]))
        with pytest.raises(ValueError):
            optics.fresnel(optics.gold_plasma(), np.array([0.0, 1e6]), np.array([0.0, 1e15]))
        with pytest.raises(ValueError, match="xi must be positive"):
            optics.fresnel(optics.gold_plasma(), 1e6, np.array([1e15, math.nan]))

    def test_rejects_bad_arguments(self):
        for k, xi, message in [
            (-1.0, 1e15, "wavenumbers must be non-negative"),
            (1e6, -1e15, "xi must be positive"),
            (0.0, 0.0, "xi must be positive"),
            (1e6, 0.0, "xi must be positive"),
            (1e6, math.nan, "xi must be positive"),
        ]:
            with pytest.raises(ValueError, match=message):
                optics.fresnel(optics.gold_plasma(), k, xi)


def _assert_matches_scipy(x, y, q):
    got = optics._pchip(x, y)(q)
    want = PchipInterpolator(x, y)(q)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(y))


def _one_ulp_outside(x):
    return np.array([np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)])


class TestPchip:
    """optics._pchip against SciPy's PchipInterpolator, the reference it
    ports, within 1e-14 of the largest sample."""

    def test_lorentz_spectrum(self):
        omega0, omega_p, gamma = 3e15, 1.2e15, 2e14
        w = np.geomspace(omega0 / 100.0, omega0 * 100.0, 3000)
        im = omega_p**2 * gamma * w / ((omega0**2 - w**2) ** 2 + gamma**2 * w**2)
        q = np.concatenate((np.geomspace(w[0], w[-1], 11016), w, _one_ulp_outside(w)))
        _assert_matches_scipy(w, im, q)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_data_with_flat_runs_and_sign_changes(self, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.05, 2.0, 40))
        y = np.round(rng.normal(size=40), 1)  # repeats give flat runs
        y[10:14] = y[10]
        q = np.concatenate((np.linspace(x[0], x[-1], 997), x, _one_ulp_outside(x)))
        _assert_matches_scipy(x, y, q)

    def test_two_point_table_is_linear(self):
        x, y = np.array([1.0, 3.0]), np.array([2.0, -4.0])
        q = np.concatenate((np.linspace(1.0, 3.0, 9), _one_ulp_outside(x)))
        _assert_matches_scipy(x, y, q)
        assert np.allclose(optics._pchip(x, y)(q), 2.0 - 3.0 * (q - 1.0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "y", [[0.0, 1.0, 4.0], [0.0, 1.0, 1.0], [1.0, -1.0, 1.0], [2.0, 2.0, 2.0]]
    )
    def test_three_point_tables(self, y):
        x, y = np.array([0.0, 0.5, 2.0]), np.array(y)
        q = np.concatenate((np.linspace(0.0, 2.0, 41), _one_ulp_outside(x)))
        _assert_matches_scipy(x, y, q)

    def test_end_slope_clamped_to_three_secants(self):
        # Secants 1 then -6: the three-point end slope 4.5 overshoots and
        # is clamped to 3 m0 = 3.
        x, y = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, -5.0])
        assert optics._pchip_end_slope(1.0, 1.0, 1.0, -6.0) == 3.0
        assert PchipInterpolator(x, y).derivative()(0.0) == 3.0
        q = np.concatenate((np.linspace(0.0, 2.0, 41), _one_ulp_outside(x)))
        _assert_matches_scipy(x, y, q)

    def test_one_ulp_outside_takes_the_end_cubic(self):
        x = np.geomspace(1e13, 1e17, 12)
        y = 1e30 / x**2
        q = _one_ulp_outside(x)
        _assert_matches_scipy(x, y, q)
        assert np.allclose(optics._pchip(x, y)(q), y[[0, -1]], rtol=1e-14, atol=0.0)

    @given(
        gaps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12),
        steps=st.data(),
    )
    @hyp_settings(max_examples=150, deadline=None)
    def test_monotone_data_stays_monotone(self, gaps, steps):
        x = np.cumsum([0.0, *gaps])
        rises = steps.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
                min_size=len(gaps),
                max_size=len(gaps),
            )
        )
        sign = steps.draw(st.sampled_from([1.0, -1.0]))
        y = sign * np.cumsum([0.0, *rises])
        vals = optics._pchip(x, y)(np.linspace(x[0], x[-1], 400))
        assert np.all(sign * np.diff(vals) >= -1e-13 * max(abs(y[-1]), 1.0))


class TestTabulatedPermittivity:
    def test_power_law_interpolation_is_exact(self):
        # PCHIP in log-log follows eps - 1 = A / xi^2 exactly.
        xi = np.geomspace(1e13, 1e17, 25)
        eps = 1.0 + 1e30 / xi**2
        tab = optics.TabulatedPermittivity(xi, eps)
        mid = np.sqrt(xi[:-1] * xi[1:])
        want = 1.0 + 1e30 / mid**2
        got = np.array([tab.eps(x) for x in mid])
        assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_strict_range(self):
        xi = np.geomspace(1e14, 1e16, 10)
        tab = optics.TabulatedPermittivity(xi, 1.0 + 1e30 / xi**2)
        with pytest.raises(ValueError):
            tab.eps(1e13)
        with pytest.raises(ValueError):
            tab.eps(1e17)

    def test_extrapolation_modes(self):
        xi = np.geomspace(1e14, 1e16, 10)
        vals = 1.0 + 1e30 / xi**2
        tab = optics.TabulatedPermittivity(
            xi, vals, extrapolate_low="inverse_square", extrapolate_high="inverse_square"
        )
        assert tab.eps(1e13) == pytest.approx(1.0 + 1e30 / 1e26, rel=1e-10)
        assert tab.eps(1e17) == pytest.approx(1.0 + 1e30 / 1e34, rel=1e-10)
        tab_const = optics.TabulatedPermittivity(xi, vals, extrapolate_low="constant")
        assert tab_const.eps(1e12) == pytest.approx(tab_const.eps(xi[0]), rel=1e-12)

    def test_nan_xi_gives_nan(self):
        xi = np.geomspace(1e14, 1e16, 10)
        tab = optics.TabulatedPermittivity(xi, 1.0 + 1e30 / xi**2)
        got = tab.eps(np.array([1e15, math.nan, 2e15]))
        assert math.isnan(got[1])
        assert got[0] == tab.eps(1e15) and got[2] == tab.eps(2e15)
        assert math.isnan(tab.eps(math.nan))

    def test_validation(self):
        xi = np.geomspace(1e14, 1e16, 10)
        with pytest.raises(ValueError):
            optics.TabulatedPermittivity(xi, np.full(10, 0.5))
        with pytest.raises(ValueError):
            optics.TabulatedPermittivity(xi[::-1], 1.0 + 1e30 / xi**2)
        with pytest.raises(ValueError):
            optics.TabulatedPermittivity(xi, 1.0 + 1e30 / xi**2, extrapolate_low="bogus")


def _lorentzian_table(omega0=3e15, omega_p=1.2e15, gamma=2e14, n=2000):
    w = np.geomspace(omega0 / 100.0, omega0 * 100.0, n)
    im = omega_p**2 * gamma * w / ((omega0**2 - w**2) ** 2 + gamma**2 * w**2)
    return optics.RealAxisOpticalData(omega=w, eps_imag=im), omega0, omega_p, gamma


class TestKramersKronig:
    def test_lorentzian_round_trip(self):
        data, omega0, omega_p, gamma = _lorentzian_table()
        xi = np.array([omega0 / 3.0, omega0, 3.0 * omega0])
        got = optics.kramers_kronig_imaginary_axis(data, xi)
        want = 1.0 + omega_p**2 / (omega0**2 + xi**2 + gamma * xi)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    def test_drude_extension_round_trip(self):
        # Full metal: data above 1e12 rad/s plus the declared Drude
        # continuation below it; eps(i xi) = 1 + wp^2 / (xi (xi + gamma)).
        wp, gamma = 1.37e16, 4.1e13
        w = np.geomspace(1e12, 1e18, 1200)
        im = wp**2 * gamma / (w * (w**2 + gamma**2))
        data = optics.RealAxisOpticalData(
            omega=w, eps_imag=im, drude_omega_p=wp, drude_gamma=gamma
        )
        xi = np.array([1e13, 1e14, 1e15, 1e16])
        got = optics.kramers_kronig_imaginary_axis(data, xi)
        want = 1.0 + wp**2 / (xi * (xi + gamma))
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    @pytest.mark.parametrize("drude", [False, True], ids=["insulator", "drude"])
    def test_huge_xi_stays_finite(self, drude):
        # xi^2 overflows above about 1.3e154, while eps(i xi) -> 1 there:
        # the tail and the Drude segment must give a finite eps - 1 >= 0.
        w = np.geomspace(1e12, 1e18, 200)
        wp, gamma = 1.37e16, 4.1e13
        data = optics.RealAxisOpticalData(
            omega=w,
            eps_imag=wp**2 * gamma / (w * (w**2 + gamma**2)),
            drude_omega_p=wp if drude else None,
            drude_gamma=gamma if drude else None,
        )
        xi = np.array([1e18, 1e100, 1.3e154, 1e155, 1e200, 1e300])
        got = optics.kramers_kronig_imaginary_axis(data, xi) - 1.0
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert np.all(np.diff(got) <= 0.0)
        assert got[-1] == 0.0

    @pytest.mark.parametrize(
        "omega",
        [np.linspace(1e14, 4e15, 6), np.geomspace(1e14, 4e15, 300)],
        ids=["coarse_linear", "fine_log"],
    )
    def test_linear_absorption_matches_antiderivative(self, omega):
        # PCHIP is exact on a line, and Int omega (a + b omega) / (omega^2 + xi^2)
        # = a/2 log(omega^2 + xi^2) + b (omega - xi atan(omega / xi)).
        a, b = 2.0, -4e-16
        data = optics.RealAxisOpticalData(omega=omega, eps_imag=a + b * omega)
        lo, hi = omega[0], omega[-1]
        xi = np.array([0.0, lo / 2.0, math.sqrt(lo * hi), hi])
        got = optics.kramers_kronig_imaginary_axis(data, xi)
        for x, eps in zip(xi.tolist(), got.tolist()):
            total = 0.5 * a * math.log((hi**2 + x**2) / (lo**2 + x**2)) + b * (
                hi - lo - x * (math.atan2(hi, x) - math.atan2(lo, x))
            )
            total += optics._tail_segment(hi, a + b * hi, x)
            assert eps - 1.0 == pytest.approx((2.0 / math.pi) * total, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "omega, near",
        [(np.linspace(2e13, 4e15, 40), True), (np.geomspace(1e15, 2e15, 40), False)],
        ids=["coarse_linear", "fine_log"],
    )
    def test_random_table_matches_gauss_legendre(self, omega, near):
        # The closed form against a 200-point Gauss-Legendre sum of the
        # same interpolant on every segment. The coarse grid has segments
        # on the log1p recurrence, the fine one only on the power series.
        rng = np.random.default_rng(7)
        im = rng.uniform(0.0, 3.0, omega.size)
        im[-1] = min(im[-1], im[-2])
        data = optics.RealAxisOpticalData(omega=omega, eps_imag=im)
        xi = np.array([0.0, omega[0], omega[5], omega[20], omega[-1], 10.0 * omega[-1]])
        h = np.diff(omega)
        ratio = np.abs(h / (omega[:-1] + 1j * xi[:, None]))
        assert np.any(ratio >= optics._SERIES_MAX_RATIO) == near
        got = optics.kramers_kronig_imaginary_axis(data, xi)
        t, w = np.polynomial.legendre.leggauss(200)
        nodes = omega[:-1, None] + 0.5 * h[:, None] * (t + 1.0)
        values = optics._pchip(omega, im)(nodes)
        for x, eps in zip(xi.tolist(), got.tolist()):
            segments = 0.5 * h * ((nodes * values / (nodes**2 + x**2)) @ w)
            total = math.fsum(segments.tolist()) + optics._tail_segment(omega[-1], im[-1], x)
            assert eps - 1.0 == pytest.approx((2.0 / math.pi) * total, rel=1e-12, abs=0.0)

    def test_each_xi_has_the_same_bits_in_any_call(self):
        data, omega0, _, _ = _lorentzian_table(n=700)
        xi = np.concatenate(([0.0], np.geomspace(omega0 / 500.0, 1e3 * omega0, 23)))
        full = optics.kramers_kronig_imaginary_axis(data, xi)
        assert [optics.kramers_kronig_imaginary_axis(data, x) for x in xi.tolist()] == full.tolist()
        for part in (xi[::3], xi[5:9], xi[::-1], xi[[7]]):
            got = optics.kramers_kronig_imaginary_axis(data, part)
            assert got.tolist() == [full[xi.tolist().index(x)] for x in part.tolist()]

    def test_zero_absorption_gives_unity(self):
        data = optics.RealAxisOpticalData(
            omega=np.geomspace(1e14, 1e16, 50), eps_imag=np.zeros(50)
        )
        out = optics.kramers_kronig_imaginary_axis(data, np.array([1e13, 1e15, 1e17]))
        assert np.all(out == 1.0)

    def test_scalar_xi(self):
        data, omega0, omega_p, gamma = _lorentzian_table(n=600)
        out = optics.kramers_kronig_imaginary_axis(data, omega0)
        assert isinstance(out, float)
        assert out == pytest.approx(
            1.0 + omega_p**2 / (2.0 * omega0**2 + gamma * omega0), rel=1e-5
        )

    def test_data_validation(self):
        w = np.geomspace(1e14, 1e16, 10)
        with pytest.raises(ValueError):
            optics.RealAxisOpticalData(omega=w, eps_imag=-np.ones(10))
        with pytest.raises(ValueError):
            optics.RealAxisOpticalData(omega=w, eps_imag=np.ones(10), drude_omega_p=1e16)
        with pytest.raises(ValueError):
            optics.RealAxisOpticalData(omega=w, eps_imag=np.linspace(1.0, 2.0, 10))
        with pytest.raises(ValueError):
            optics.kramers_kronig_imaginary_axis(
                optics.RealAxisOpticalData(omega=w, eps_imag=np.ones(10)), -1.0
            )


class TestOpticalCsv:
    def test_round_trip_with_metadata(self, tmp_path):
        path = tmp_path / "drude.csv"
        w = np.geomspace(1e13, 1e17, 40)
        im = 1e30 / w**2
        lines = ["# drude_omega_p=1.37e16", "# drude_gamma=4.1e13", "omega_rad_s,eps_imag"]
        lines += [f"{a:.12e},{b:.12e}" for a, b in zip(w, im)]
        path.write_text("\n".join(lines) + "\n")
        data = optics.read_optical_csv(path)
        assert data.drude_omega_p == pytest.approx(1.37e16)
        assert data.drude_gamma == pytest.approx(4.1e13)
        assert np.allclose(data.omega, w) and np.allclose(data.eps_imag, im)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency,absorption\n1e14,1.0\n1e15,0.5\n1e16,0.2\n")
        with pytest.raises(ValueError):
            optics.read_optical_csv(path)

    def test_imaginary_axis_round_trip(self, tmp_path):
        source = tmp_path / "absorption.csv"
        w = np.geomspace(1e13, 1e18, 200)
        im = 1e30 * w / (w**2 + 1e32) ** 1.5
        source.write_text("".join(f"{a:.12e},{b:.12e}\n" for a, b in zip(w, im)))
        path = tmp_path / "eps_xi.csv"
        argv = ["ingest-optical", str(source), "--xi-points", "30", "--output", str(path)]
        assert cli.main(argv) == 0
        xi = np.geomspace(1e13, 1e17, 30)
        eps = optics.kramers_kronig_imaginary_axis(optics.read_optical_csv(source), xi)
        tab = optics.read_imaginary_axis_csv(path)
        assert np.allclose(tab.xi, xi, rtol=1e-12, atol=0.0)
        assert tab.eps(xi[7]) == pytest.approx(eps[7], rel=1e-12)
        lines = path.read_text().splitlines()
        assert "# source=absorption.csv" in lines
        assert lines[lines.index("xi_rad_s,eps_i_xi") - 1].startswith("# ")
