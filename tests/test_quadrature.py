import dataclasses
import functools
import math

import numpy as np
import pytest

from cpsurf import _integrate, closedforms as cf, quadrature as quad
from cpsurf._integrate import adaptive_gauss, cc_batch, cc_rows
from cpsurf.atomics import StaticPolarizability, polarizability, rubidium_single_oscillator
from cpsurf.constants import C_LIGHT
from cpsurf.optics import DrudeLorentz, fresnel
from cpsurf.quadrature import IntegralResult, QuadratureSettings


def plane_per_xi_reference(atom, surface, z, settings, force):
    """The plane integral as a scalar loop: one k' adaptive per xi node,
    of the two components [U0, F0], of which force picks one."""
    k0 = 1.0 / z

    def inner(xi):
        def f_k(v):
            k = k0 * v / (1.0 - v)
            jac = k0 / (1.0 - v) ** 2
            kappa = np.sqrt((xi / C_LIGHT) ** 2 + k**2)
            fs = fresnel(surface, k, xi)
            moment = (xi / C_LIGHT) ** 2 * (fs.r_te - fs.r_tm) - 2.0 * k**2 * fs.r_tm
            common = jac * np.exp(-2.0 * kappa * z) * moment
            return np.stack((common * (0.5 * k / np.hypot(xi / C_LIGHT, k)), common * k))

        return adaptive_gauss(
            f_k, 0.0, 1.0, quad._INNER_FRAC * settings.rel_tol, max_panels=settings.max_panels
        )[0]

    value, error = _per_xi_outer(atom, z, settings, inner, quad._PREF_PLANE)
    return value[int(force)], error[int(force)]


def response_per_xi_reference(atom, surface, z, k_corr, settings):
    """response_g as a scalar loop: one k' adaptive per xi node, and one
    angular batch per k' adaptive step (the same sinh map). At k = 0 the
    angle between k' and k'' vanishes, so the phi integral is pi times one
    kernel node per k': the kernel's own route to g(0) = F0."""
    k0 = 1.0 / z
    kernel = quad.a_perfect if surface.is_perfect else quad.a_exact

    def inner(xi):
        def f_k(v):
            kp = k0 * v / (1.0 - v)
            jac = k0 / (1.0 - v) ** 2
            kp_col = kp[:, None]
            if k_corr == 0.0:
                point = quad.kernel_point(
                    surface, xi, kp_col, kp_col, np.ones_like(kp_col), np.zeros_like(kp_col)
                )
                return jac * kp * (np.pi * kernel(point, z)[:, 0])
            delta = np.clip(
                np.abs(kp_col - k_corr) / np.sqrt(kp_col * k_corr),
                quad._DELTA_MIN,
                1.0 / quad._DELTA_MIN,
            )
            mu = np.arcsinh(np.pi / delta)

            def f_phi(t):
                s = mu * (t / np.pi)
                phi = delta * np.sinh(s)
                sin_half2 = np.sin(0.5 * phi) ** 2
                kpp = np.sqrt((kp_col - k_corr) ** 2 + 4.0 * kp_col * k_corr * sin_half2)
                safe = np.maximum(kpp, 1e-300)
                cos_d = np.clip(((kp_col - k_corr) + 2.0 * k_corr * sin_half2) / safe, -1.0, 1.0)
                sin_d = np.clip(-k_corr * np.sin(phi) / safe, -1.0, 1.0)
                sin_d = np.where(kpp > 0.0, sin_d, -1.0)
                point = quad.kernel_point(surface, xi, kp_col, kpp, cos_d, sin_d)
                return kernel(point, z) * ((mu * delta / np.pi) * np.cosh(s))

            vals, _ = cc_batch(f_phi, quad._ANGULAR_FRAC * settings.rel_tol)
            return jac * kp * vals

        return adaptive_gauss(
            f_k, 0.0, 1.0, quad._INNER_FRAC * settings.rel_tol, max_panels=settings.max_panels
        )[0]

    return _per_xi_outer(atom, z, settings, inner, quad._PREF_G)


def _per_xi_outer(atom, z, settings, inner, pref):
    xi0 = C_LIGHT / z

    def outer(u):
        out = []
        for ui in u:
            xi = xi0 * ui / (1.0 - ui)
            jac = xi0 / (1.0 - ui) ** 2
            out.append(polarizability(atom, xi) * jac * inner(xi))
        return np.stack(out, axis=-1)

    val, err = adaptive_gauss(
        outer, 0.0, 1.0, quad._OUTER_FRAC * settings.rel_tol, max_panels=settings.max_panels
    )
    value = pref * val
    return value, pref * err + quad._REPORT_PAD * settings.rel_tol * abs(value)


class TestSettings:
    def test_defaults_valid(self):
        s = QuadratureSettings()
        assert (s.rel_tol, s.max_panels) == (1e-6, 4096)
        assert [f.name for f in dataclasses.fields(s)] == ["rel_tol", "max_panels"]

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_panels=0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_panels=3)

    @pytest.mark.parametrize("removed", ["angular_max_half", "kz_cutoff"])
    def test_removed_settings_are_rejected(self, removed):
        with pytest.raises(TypeError, match=removed):
            QuadratureSettings(**{removed: 16})


class TestPlaneIntegrals:
    def test_mirror_static_potential_is_exact_power_law(self, static_rb, mirror):
        # Static atom + ideal mirror has no length scale besides z, so the
        # retarded closed form holds at every distance, not just far away.
        s = QuadratureSettings(rel_tol=1e-8)
        for z in (5e-8, 2e-6, 1e-5):
            u = quad.plane_potential(static_rb, mirror, z, s)
            ref = cf.u_cp0(z, static_rb.alpha0)
            assert u.value == pytest.approx(ref, rel=1e-7)
            assert abs(u.value - ref) <= 3.0 * u.error + 1e-12 * abs(ref)

    def test_mirror_static_force_is_exact_power_law(self, static_rb, mirror):
        s = QuadratureSettings(rel_tol=1e-8)
        f = quad.plane_force(static_rb, mirror, 2e-6, s)
        assert f.value == pytest.approx(cf.f_cp0(2e-6, static_rb.alpha0), rel=1e-7)

    def test_force_is_potential_gradient(self, osc_rb, gold):
        z, h = 1e-6, 1e-9
        s = QuadratureSettings(rel_tol=1e-9)
        up = quad.plane_potential(osc_rb, gold, z + h, s).value
        um = quad.plane_potential(osc_rb, gold, z - h, s).value
        f = quad.plane_force(osc_rb, gold, z, s).value
        assert f == pytest.approx(-(up - um) / (2.0 * h), rel=1e-5)

    def test_linearity_in_alpha(self, static_rb, mirror, fast_settings):
        doubled = StaticPolarizability(2.0 * static_rb.alpha0)
        u1 = quad.plane_potential(static_rb, mirror, 1e-6, fast_settings)
        u2 = quad.plane_potential(doubled, mirror, 1e-6, fast_settings)
        assert u2.value == pytest.approx(2.0 * u1.value, rel=1e-12)

    def test_attractive_and_monotone(self, osc_rb, silicon, fast_settings):
        values = [
            quad.plane_potential(osc_rb, silicon, z, fast_settings).value
            for z in (0.5e-6, 1e-6, 2e-6)
        ]
        assert all(v < 0.0 for v in values)
        assert values[0] < values[1] < values[2]

    def test_nonretarded_coefficient(self, osc_rb, gold):
        # At z far below both material wavelengths U -> -C3 / z^3 with
        # C3 = hbar alpha0 omega_a omega_p / (32 pi eps0 (sqrt2 omega_a + omega_p)).
        from cpsurf.constants import EPS0, GOLD_OMEGA_P, HBAR

        c3 = (
            HBAR
            * osc_rb.alpha0
            * osc_rb.omega_a
            * GOLD_OMEGA_P
            / (32.0 * math.pi * EPS0 * (math.sqrt(2.0) * osc_rb.omega_a + GOLD_OMEGA_P))
        )
        z = 2e-9
        u = quad.plane_potential(osc_rb, gold, z, QuadratureSettings(rel_tol=1e-7))
        assert u.value == pytest.approx(-c3 / z**3, rel=5e-3)

    @pytest.mark.parametrize("surface_name", ["gold", "silicon", "mirror"])
    @pytest.mark.parametrize("force", [False, True])
    def test_lock_step_equals_per_xi_loop(self, request, osc_rb, surface_name, force):
        # Lock-step rows change how the k' integrals are scheduled, not
        # what any of them computes: every (value, error) bit must match.
        surface = request.getfixturevalue(surface_name)
        s = QuadratureSettings(rel_tol=1e-7)
        integral = quad.plane_force if force else quad.plane_potential
        for z in (3e-8, 1.1e-6):
            got = integral(osc_rb, surface, z, s)
            assert (got.value, got.error) == plane_per_xi_reference(
                osc_rb, surface, z, s, force
            )

    @pytest.mark.parametrize("surface_name", ["gold", "mirror"])
    def test_potential_and_force_are_the_halves_of_one_pass(self, request, osc_rb, surface_name):
        surface = request.getfixturevalue(surface_name)
        s = QuadratureSettings(rel_tol=1e-7)
        u, f = quad.plane_potential_and_force(osc_rb, surface, 1.1e-6, s)
        assert quad.plane_potential(osc_rb, surface, 1.1e-6, s) == u
        assert quad.plane_force(osc_rb, surface, 1.1e-6, s) == f
        assert u.value < 0.0 and f.value < 0.0

    def test_starved_inner_layer_names_its_xi(self, osc_rb, gold):
        starved = QuadratureSettings(rel_tol=1e-13, max_panels=4)
        with pytest.raises(quad.ConvergenceError) as info:
            quad.plane_force(osc_rb, gold, 1e-6, starved)
        exc = info.value
        assert exc.layer == "kprime" and exc.kp is None
        # No row can converge in 4 panels, so the failing row is row 0:
        # the lowest Kronrod node of the first outer panel [0, 1/4].
        u = 0.125 + 0.125 * _integrate._GK17_NODES[0]
        assert exc.xi == pytest.approx((C_LIGHT / 1e-6) * u / (1.0 - u), rel=1e-12)

    def test_validation(self, static_rb, mirror, settings):
        with pytest.raises(ValueError):
            quad.plane_potential(static_rb, mirror, 0.0, settings)
        with pytest.raises(ValueError):
            quad.plane_force(static_rb, mirror, -1e-6, settings)


class TestResponse:
    def test_zero_k_equals_plane_force(self, static_rb, mirror, fast_settings):
        z = 1e-6
        g0 = quad.response_g(static_rb, mirror, z, 0.0, fast_settings)
        f0 = quad.plane_force(static_rb, mirror, z, fast_settings)
        assert g0.value == pytest.approx(f0.value, rel=1e-6)

    @pytest.mark.parametrize("surface_name", ["silicon", "gold", "mirror"])
    def test_zero_k_runs_no_angular_rule(self, monkeypatch, request, osc_rb, surface_name):
        # At k = 0 the response is the plane force: response_g returns
        # plane_force's result, with no kernel node and no angular rule.
        surface = request.getfixturevalue(surface_name)
        calls = []
        for name in ("cc_rows", "cc_batch", "kernel_point"):
            monkeypatch.setattr(quad, name, lambda *args, **kwargs: calls.append(args))
        z, s = 1e-6, QuadratureSettings()
        g0 = quad.response_g(osc_rb, surface, z, 0.0, s)
        assert g0 == quad.plane_force(osc_rb, surface, z, s)
        assert calls == []

    @pytest.mark.parametrize("surface_name", ["silicon", "gold"])
    @pytest.mark.parametrize("kz", [3.0, 6.0])
    def test_tight_tolerance_converges_near_k(self, request, osc_rb, surface_name, kz):
        # Near k' = k, k'' nearly vanishes at phi = 0 (k' nodes come within
        # 1e-4 of k here); the phi layer must still converge at 1e-10, and
        # the tight value lie within the default run's reported error.
        surface = request.getfixturevalue(surface_name)
        z = 1e-6
        tight = quad.response_g(osc_rb, surface, z, kz / z, QuadratureSettings(rel_tol=1e-10))
        loose = quad.response_g(osc_rb, surface, z, kz / z, QuadratureSettings())
        assert abs(tight.value - loose.value) <= loose.error

    def test_mirror_family_closed_form(self, static_rb, mirror, fast_settings):
        z = 1e-6
        for big_z in (0.5, 2.0):
            g = quad.response_g(static_rb, mirror, z, big_z / z, fast_settings)
            ref = cf.g_cp_perf(big_z / z, z, static_rb.alpha0)
            assert g.value == pytest.approx(ref, rel=1e-4)

    def test_monotone_decay_in_k(self, static_rb, mirror, fast_settings):
        z = 1e-6
        ks = [0.0, 0.5 / z, 1.0 / z, 2.0 / z, 5.0 / z]
        vals = [abs(quad.response_g(static_rb, mirror, z, k, fast_settings).value) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exponential_distance_suppression(self, static_rb, mirror, fast_settings):
        # Doubling the distance at fixed k must beat e^{-0.8 k dz} while
        # k z_A sits in the strongly suppressed window.
        k = 5e6
        za, zb = 1.2e-6, 2.4e-6
        ga = quad.response_g(static_rb, mirror, za, k, fast_settings)
        gb = quad.response_g(static_rb, mirror, zb, k, fast_settings)
        assert abs(gb.value) <= math.exp(-0.8 * k * (zb - za)) * abs(ga.value)

    def test_rho_concave_near_zero(self, static_rb, mirror, fast_settings):
        z = 1e-6
        g0 = quad.response_g(static_rb, mirror, z, 0.0, fast_settings).value
        g1 = quad.response_g(static_rb, mirror, z, 0.5 / z, fast_settings).value
        g2 = quad.response_g(static_rb, mirror, z, 1.0 / z, fast_settings).value
        assert (g0 - 2.0 * g1 + g2) / g0 < 0.0

    def test_negative_response(self, osc_rb, gold, fast_settings):
        g = quad.response_g(osc_rb, gold, 1e-6, 2e6, fast_settings)
        assert g.value < 0.0

    def test_halving_tolerance_stays_within_error(self, osc_rb, gold):
        coarse = quad.response_g(osc_rb, gold, 1e-6, 2e6, QuadratureSettings(rel_tol=1e-5))
        fine = quad.response_g(osc_rb, gold, 1e-6, 2e6, QuadratureSettings(rel_tol=5e-6))
        assert abs(coarse.value - fine.value) <= coarse.error

    def test_cutoff_returns_negligible_zero(self, static_rb, mirror, settings):
        z = 1e-6
        res = quad.response_g(static_rb, mirror, z, 45.0 / z, settings)
        assert res.negligible and res.value == 0.0
        assert 0.0 < res.error < abs(cf.f_cp0(z, static_rb.alpha0))

    def test_deterministic(self, osc_rb, gold, fast_settings):
        a = quad.response_g(osc_rb, gold, 1e-6, 2e6, fast_settings)
        b = quad.response_g(osc_rb, gold, 1e-6, 2e6, fast_settings)
        assert a.value == b.value and a.error == b.error

    @pytest.mark.parametrize(
        "budget, layer",
        [({"max_half": 8}, "phi"), ({"max_panels": 4}, "kprime")],
    )
    def test_convergence_error_names_layer(self, monkeypatch, osc_rb, silicon, budget, layer):
        # The (xi, k') pairs of the kernel_point calls of the latest angular
        # rule call: when the rule fails, those of the failing block.
        block = []
        if "max_half" in budget:
            # The angular rule, held to its first 33-point check.
            rule = functools.partial(cc_rows, **budget)

            def starved_rows(*args, **kwargs):
                block.clear()
                return rule(*args, **kwargs)

            original = quad.kernel_point

            def spy(surface, xi, kp, *args):
                block.append((xi, np.ravel(kp)))
                return original(surface, xi, kp, *args)

            monkeypatch.setattr(quad, "cc_rows", starved_rows)
            monkeypatch.setattr(quad, "kernel_point", spy)
            budget = {}
        starved = QuadratureSettings(rel_tol=1e-13, **budget)
        with pytest.raises(quad.ConvergenceError) as info:
            quad.response_g(osc_rb, silicon, 1e-6, 3e6, starved)
        exc = info.value
        assert exc.layer == layer
        assert exc.xi > 0.0
        if layer == "phi":
            assert exc.kp > 0.0
            # A real (xi row, k' node) of the failing block: at 1e-13 no
            # row meets its target at 33 points, so the lowest-index
            # failing row is the block's first, its first kernel_point call.
            xi_first, kp_first = block[0]
            assert exc.xi == xi_first and exc.kp in kp_first
        else:
            assert exc.kp is None

    @pytest.mark.parametrize("surface_name", ["silicon", "gold", "mirror"])
    def test_lock_step_equals_per_xi_loop(self, request, osc_rb, surface_name):
        # Running the k' integrals of a step's xi nodes as rows, one
        # angular batch per row, changes scheduling only: every bit of
        # (value, error) must match the per-node loop.
        surface = request.getfixturevalue(surface_name)
        s = QuadratureSettings(rel_tol=1e-4)
        z = 1.05e-6
        for kz in (3.0, 6.0):
            got = quad.response_g(osc_rb, surface, z, kz / z, s)
            assert (got.value, got.error) == response_per_xi_reference(
                osc_rb, surface, z, kz / z, s
            )
        # At k = 0 response_g returns the plane force; the kernel's own
        # route must agree with it within the two errors.
        got = quad.response_g(osc_rb, surface, z, 0.0, s)
        ref, ref_err = response_per_xi_reference(osc_rb, surface, z, 0.0, s)
        assert abs(got.value - ref) <= got.error + ref_err

    def test_angle_at_vanishing_kpp_takes_its_limit(self, monkeypatch, osc_rb, silicon):
        # kz = 0.6 puts the midpoint K17 node v = 0.375 of the initial k'
        # panel [1/4, 1/2] exactly on k' = k, so the phi = 0 node has
        # k'' = 0; sin(angle) must take its limit -1 there, not -0.
        z = 1e-6
        k = (1.0 / z) * 0.375 / 0.625
        seen = []
        original = quad.kernel_point

        def spy(surface, xi, kp, kpp, cos_d, sin_d):
            at_zero = np.broadcast_to(kpp, np.shape(sin_d)) == 0.0
            seen.append(np.asarray(sin_d)[at_zero])
            return original(surface, xi, kp, kpp, cos_d, sin_d)

        monkeypatch.setattr(quad, "kernel_point", spy)
        quad.response_g(osc_rb, silicon, z, k, QuadratureSettings(rel_tol=1e-4))
        at_zero = np.concatenate(seen)
        assert at_zero.size > 0
        assert np.all(at_zero == -1.0)

    @staticmethod
    def kernel_point_args(monkeypatch, atom, surface, z, kz, settings):
        """The arguments of every kernel_point call of one response_g call,
        all kept alive so that no two distinct arrays share an id."""
        seen = []
        original = quad.kernel_point

        def spy(*args):
            seen.append(args)
            return original(*args)

        with monkeypatch.context() as m:
            m.setattr(quad, "kernel_point", spy)
            quad.response_g(atom, surface, z, kz / z, settings)
        return seen

    @pytest.mark.parametrize("kz", [3.0, 6.0])
    def test_rows_share_the_angular_geometry(self, monkeypatch, osc_rb, silicon, kz):
        # The geometry depends on the k' line and the angle nodes, not on
        # xi, so the xi rows of a round that start on the same k' nodes
        # get the same k'' array.
        seen = self.kernel_point_args(
            monkeypatch, osc_rb, silicon, 1.05e-6, kz, QuadratureSettings()
        )
        assert all(np.ndim(xi) == 0 for _, xi, *_ in seen)
        distinct = {id(kpp) for _, _, _, kpp, _, _ in seen}
        assert 10 * len(distinct) <= len(seen)

    @pytest.mark.parametrize("kz", [3.0, 6.0])
    def test_angular_blocks_keep_to_the_point_cap(self, monkeypatch, osc_rb, silicon, kz):
        # The first call of each angular rule call, over its block of rows,
        # evaluates at most _ANGULAR_BLOCK_POINTS points, unless one row
        # alone exceeds it.
        first_calls = []

        def spy(f, n_rows, *args, **kwargs):
            sizes = []

            def counted(t, rows):
                fx = f(t, rows)
                sizes.append(fx.size)
                return fx

            try:
                return cc_rows(counted, n_rows, *args, **kwargs)
            finally:
                first_calls.append((n_rows, sizes[0]))

        monkeypatch.setattr(quad, "cc_rows", spy)
        quad.response_g(osc_rb, silicon, 1.05e-6, kz / 1.05e-6, QuadratureSettings())
        cap = quad._ANGULAR_BLOCK_POINTS
        assert all(points <= cap or n_rows == 1 for n_rows, points in first_calls)
        assert max(n_rows for n_rows, _ in first_calls) > 1
        # A full block leaves no room for one more row.
        assert any(points + points // n_rows > cap for n_rows, points in first_calls)

    def test_shared_geometry_is_read_only(self, monkeypatch, osc_rb, silicon):
        seen = self.kernel_point_args(
            monkeypatch, osc_rb, silicon, 1.05e-6, 3.0, QuadratureSettings(rel_tol=1e-4)
        )
        assert seen
        for _, _, kp_col, kpp, cos_d, sin_d in seen:
            for array in (kp_col, kpp, cos_d, sin_d):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_captured_integrand_keys_on_the_nodes(self, monkeypatch, osc_rb, silicon):
        # An angular integrand called again after its round, on a node set
        # of the size it has already seen, must not take that set's
        # geometry: its values equal a fresh integrand's on each set. A
        # repeat on the same set reuses the geometry built for it.
        def first_integrand():
            batches = []

            def spy(f, *args, **kwargs):
                batches.append(f)
                return cc_rows(f, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(quad, "cc_rows", spy)
                quad.response_g(
                    osc_rb, silicon, 1.05e-6, 3.0 / 1.05e-6, QuadratureSettings(rel_tol=1e-4)
                )
            # The first row of the first block.
            return lambda t: batches[0](t, np.array([0]))[0]

        x33, _ = _integrate._cc_rule(16)
        t_rule = 0.5 * np.pi * (x33 + 1.0)
        t_even = np.linspace(0.0, np.pi, t_rule.size)
        f = first_integrand()
        got_rule, got_even = f(t_rule), f(t_even)
        assert not np.array_equal(got_rule, got_even)
        assert np.array_equal(got_rule, first_integrand()(t_rule))
        assert np.array_equal(got_even, first_integrand()(t_even))

        kpp_seen = []
        original = quad.kernel_point

        def spy(surface, xi, kp, kpp, cos_d, sin_d):
            kpp_seen.append(kpp)
            return original(surface, xi, kp, kpp, cos_d, sin_d)

        monkeypatch.setattr(quad, "kernel_point", spy)
        assert np.array_equal(f(t_even), got_even)
        assert np.array_equal(f(t_even), got_even)
        assert kpp_seen[0] is kpp_seen[1]

    def test_validation(self, static_rb, mirror, settings):
        for k_corr in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="k_corr"):
                quad.response_g(static_rb, mirror, 1e-6, k_corr, settings)
        with pytest.raises(ValueError):
            quad.response_g(static_rb, mirror, 0.0, 1e6, settings)


class TestAngularEstimate:
    """The angular rule's error estimate on the angular batches (the rows
    of its blocks) of response_g, against a 513-point Clenshaw-Curtis
    reference."""

    # Batches checked per response_g call: this many spread over the call,
    # and this many of those that took the most points.
    PER_CALL = 4
    # The kernels' own evaluation noise, which no rule removes: up to about
    # 3,900 eps int |f| (mirror; 222 eps for silicon and gold), and near
    # underflow an absolute 1e-306. An error below this floor is not the
    # rule's.
    NOISE_REL = 1e4 * np.finfo(float).eps
    NOISE_ABS = 1e-300

    @staticmethod
    def captured_batches(monkeypatch, atom, surface, z, kz, rel_tol, per_call):
        """Integrands of per_call angular batches spread over one response_g
        call, and of the per_call batches that took the most points. A
        batch is one row of a block, integrated through the block's
        integrand on that row alone."""
        batches = []

        def spy(f, n_rows, *args, **kwargs):
            points = np.zeros(n_rows, dtype=int)

            def counted(t, rows):
                points[rows] += len(t)
                return f(t, rows)

            try:
                return cc_rows(counted, n_rows, *args, **kwargs)
            finally:
                for r in range(n_rows):
                    row = np.array([r])
                    batches.append((int(points[r]), len(batches), lambda t, row=row: f(t, row)[0]))

        with monkeypatch.context() as m:
            m.setattr(quad, "cc_rows", spy)
            quad.response_g(atom, surface, z, kz / z, QuadratureSettings(rel_tol=rel_tol))
        spread = batches[:: max(1, len(batches) // per_call)]
        hardest = sorted(batches, reverse=True)[:per_call]
        return [f for _, _, f in sorted(set(spread) | set(hardest), key=lambda b: b[1])]

    @pytest.mark.parametrize("surface_name", ["silicon", "gold", "mirror"])
    @pytest.mark.parametrize("kz", [1.0, 3.0, 6.0])
    def test_estimate_is_at_least_the_error(self, monkeypatch, request, osc_rb, surface_name, kz):
        # At every order from 33 to 257 points, each element's estimate
        # must be at least its distance from the 513-point value wherever
        # that distance is above the noise floor: the 513 samples hold
        # every lower order's nodes, bit for bit.
        surface = request.getfixturevalue(surface_name)
        x513, w513 = _integrate._cc_rule(256)
        checked = 0
        for z in (0.1e-6, 1.05e-6, 5e-6):
            for rel_tol in (1e-3, 1e-6, 1e-9):
                for f in self.captured_batches(
                    monkeypatch, osc_rb, surface, z, kz, rel_tol, self.PER_CALL
                ):
                    f513 = f(0.5 * np.pi * (x513 + 1.0))
                    ref = 0.5 * np.pi * (f513 @ w513)
                    noise = self.NOISE_REL * 0.5 * np.pi * (np.abs(f513) @ w513) + self.NOISE_ABS
                    coarse = None
                    for n_half in (8, 16, 32, 64, 128):
                        fx = np.ascontiguousarray(f513[..., :: 256 // n_half])
                        w = _integrate._cc_rule(n_half)[1]
                        vals = 0.5 * np.pi * (fx @ w)
                        if coarse is not None:
                            # No target: always the full estimate.
                            est, _ = _integrate._cc_estimate(
                                fx[None], w, vals[None], coarse[None], n_half, np.array([-np.inf])
                            )
                            est = est[0]
                            err = np.abs(vals - ref)
                            above = err > noise
                            assert np.all(est[above] >= err[above]), (z, rel_tol, n_half)
                            checked += int(np.sum(above))
                        coarse = vals
        assert checked > 0


@functools.lru_cache(maxsize=None)
def static_rb_over_constant_eps(eps, z, kz):
    """response_g at k = kz / z of static Rb over a constant eps: a
    Drude-Lorentz dielectric whose resonance, 1e22 rad/s, lies far above
    every xi the integrals reach. Default settings."""
    atom = StaticPolarizability(rubidium_single_oscillator().alpha0)
    return quad.response_g(atom, DrudeLorentz(1e22, eps), z, kz / z, QuadratureSettings())


def rho_over_rho_cp(eps, kz, z=1e-6):
    g0 = static_rb_over_constant_eps(eps, z, 0.0).value
    return static_rb_over_constant_eps(eps, z, kz).value / g0 / cf.rho_cp_perf(kz)


class TestScaleFreeReferences:
    """A static atom over a constant eps has no length but z_A, so g z_A^5
    and F0 z_A^5 = g(0) z_A^5 depend on k z_A and eps alone, and rho = g / F0
    tends to the ideal mirror's rho_CP as eps grows. Over two decades of
    z_A, one check runs every layer's maps and scales at once."""

    @pytest.mark.parametrize("kz", [0.0, 1.0, 3.0, 6.0])
    def test_g_times_z5_depends_on_kz_alone(self, kz):
        scaled = []
        for z in (1e-7, 1e-6, 1e-5):
            res = static_rb_over_constant_eps(11.87, z, kz)
            scaled.append((res.value * z**5, res.error * z**5))
        for i, (v1, e1) in enumerate(scaled):
            for v2, e2 in scaled[i + 1 :]:
                assert abs(v1 - v2) <= e1 + e2, (kz, scaled)

    def test_rho_deviation_at_silicon_eps_matches_table(self):
        # ROADMAP item 7's table for eps = 11.87, in percent.
        devs = [100.0 * (rho_over_rho_cp(11.87, kz) - 1.0) for kz in (1.0, 3.0, 6.0)]
        assert devs == pytest.approx([-0.14, -1.27, -3.99], abs=0.01)

    @pytest.mark.parametrize("kz", [1.0, 3.0, 6.0])
    def test_rho_tends_to_rho_cp_as_eps_grows(self, kz):
        devs = [abs(rho_over_rho_cp(eps, kz) - 1.0) for eps in (2.0, 11.87, 100.0, 1e4)]
        assert all(a > b for a, b in zip(devs, devs[1:])), devs


class TestDerivedQuantities:
    def test_rho_is_one_at_zero_k(self, static_rb, mirror, fast_settings):
        r = quad.rho(static_rb, mirror, 1e-6, 0.0, fast_settings)
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_rho_matches_closed_form(self, static_rb, mirror, fast_settings):
        z = 2e-6
        r = quad.rho(static_rb, mirror, z, 1.0 / z, fast_settings)
        assert r.value == pytest.approx(cf.rho_cp_perf(1.0), rel=2e-4)

    @pytest.mark.parametrize("k_corr", [0.0, 2e6])
    def test_rho_runs_one_plane_integral(
        self, monkeypatch, static_rb, mirror, fast_settings, k_corr
    ):
        # g(0) = F0 comes from the same evaluator as g(k), so k = 0 does
        # not integrate the plane a second time for the denominator.
        calls = []
        plane_integral = quad._plane_integral

        def spy(*args, **kwargs):
            calls.append(args)
            return plane_integral(*args, **kwargs)

        monkeypatch.setattr(quad, "_plane_integral", spy)
        quad.rho(static_rb, mirror, 1e-6, k_corr, fast_settings)
        assert len(calls) == 1

    def test_rho_propagates_negligible(self, static_rb, mirror, settings):
        r = quad.rho(static_rb, mirror, 1e-6, 50.0 / 1e-6, settings)
        assert r.negligible and r.value == 0.0

    def test_eta_mirror_static_is_unity(self, static_rb, mirror, fast_settings):
        e = quad.eta_f(static_rb, mirror, 1.3e-6, fast_settings)
        assert e.value == pytest.approx(1.0, abs=1e-6)

    def test_eta_gold_below_unity_rising(self, osc_rb, gold, fast_settings):
        e1 = quad.eta_f(osc_rb, gold, 1e-6, fast_settings)
        e2 = quad.eta_f(osc_rb, gold, 5e-6, fast_settings)
        assert 0.0 < e1.value < e2.value < 1.0

    def test_evaluator_caches(self, static_rb, mirror, fast_settings):
        g_of_k = quad.g_evaluator(static_rb, mirror, 1e-6, fast_settings)
        first = g_of_k(2e6)
        second = g_of_k(2e6)
        assert first is second
        assert isinstance(first, IntegralResult)
