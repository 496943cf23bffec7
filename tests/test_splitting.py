"""Tests for the filtered Lie splitting integrator."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import nls2d
from nls2d.spectral import (
    SpectralField,
    l2_norm,
    project,
    synthesize,
)
from nls2d.splitting import (
    BlowupError,
    SchemeParams,
    default_theta,
    evolve,
    free_flow,
    snapshot_observer,
)
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.snapshot import load_field

from oracles import composed_lie_step, nonlinear_phase, plane_wave, plane_wave_solution

RNG = np.random.default_rng(4711)

# Two 256^2 runs on a 2-thread pool, lined up by a barrier in their step-0
# observer, then the same runs serially; prints whether the bits agree.  The
# pooled runs are the first in the process, so every cache starts cold, and
# a short switch interval makes the two threads interleave finely.
COLD_START_SCRIPT = textwrap.dedent("""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from nls2d.roughdata import RoughDataSpec, generate
    from nls2d.splitting import SchemeParams, evolve

    n, tau = 256, 2.0**-14
    params = SchemeParams(tau=tau, n_modes=n, mu=-1, t_final=8 * tau)
    data = [generate(RoughDataSpec(s=1.0, seed=seed, n_modes=n)) for seed in (1, 2)]
    barrier = threading.Barrier(2, timeout=60)
    sys.setswitchinterval(1e-5)

    def run(u0):
        return evolve(u0, params, observer=lambda i, f: i == 0 and barrier.wait())

    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(run, data))
    serial = [evolve(u0, params) for u0 in data]
    print(all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(pooled, serial)))
""")


def random_field(n: int) -> SpectralField:
    return SpectralField(n, RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))


class TestSchemeParams:
    def test_theta_default_coupling(self):
        """theta defaults to max(tau, 4/N^2)."""
        p = SchemeParams(tau=2.0**-10, n_modes=32, mu=-1, t_final=1.0)
        assert p.theta == 4.0 / 32**2
        p = SchemeParams(tau=2.0**-4, n_modes=32, mu=-1, t_final=1.0)
        assert p.theta == 2.0**-4
        assert default_theta(0.5, 4) == 0.5

    def test_theta_override(self):
        p = SchemeParams(tau=2.0**-4, n_modes=32, mu=-1, t_final=1.0, theta=0.01)
        assert p.theta == 0.01

    def test_step_count(self):
        p = SchemeParams(tau=2.0**-6, n_modes=8, mu=1, t_final=0.25)
        assert p.n_steps == 16

    def test_non_multiple_rejected(self):
        """T must be an integer multiple of tau within one ulp."""
        with pytest.raises(ValueError, match="integer multiple"):
            SchemeParams(tau=0.25, n_modes=8, mu=-1, t_final=0.3)

    def test_near_multiple_accepted(self):
        t = 16 * 0.1  # inexact in binary, but within one ulp of the product
        SchemeParams(tau=0.1, n_modes=8, mu=-1, t_final=t)

    def test_invalid_values(self):
        with pytest.raises(ValueError, match="tau"):
            SchemeParams(tau=0.0, n_modes=8, mu=-1, t_final=1.0)
        with pytest.raises(ValueError, match="even"):
            SchemeParams(tau=0.5, n_modes=7, mu=-1, t_final=1.0)
        with pytest.raises(ValueError, match="mu"):
            SchemeParams(tau=0.5, n_modes=8, mu=2, t_final=1.0)
        with pytest.raises(ValueError, match="t_final"):
            SchemeParams(tau=0.5, n_modes=8, mu=-1, t_final=-1.0)
        with pytest.raises(ValueError, match="theta"):
            SchemeParams(tau=0.5, n_modes=8, mu=-1, t_final=1.0, theta=-0.1)


class TestFreeFlow:
    def test_single_mode_phase(self):
        """Mode (1, 2) over time t picks up exp(-5it)."""
        f = plane_wave(8, 1.0, (1, 2))
        t = 0.371
        out = free_flow(f, t)
        got = out.coeffs[8 // 2 + 1, 8 // 2 + 2]
        assert abs(got - np.exp(-5j * t)) <= 1e-15

    def test_zero_time_identity(self):
        f = random_field(8)
        assert np.array_equal(free_flow(f, 0.0).coeffs, f.coeffs)

    def test_modulus_preserved(self):
        f = random_field(16)
        out = free_flow(f, 0.7)
        assert np.abs(np.abs(out.coeffs) - np.abs(f.coeffs)).max() <= 1e-15

    def test_additive_in_time(self):
        f = random_field(8)
        a = free_flow(free_flow(f, 0.3), 0.4).coeffs
        b = free_flow(f, 0.7).coeffs
        assert np.abs(a - b).max() <= 1e-14


class TestNonlinearPhase:
    def test_constant_sample_closed_form(self):
        """v constant: output is exp(i*mu*tau*|v|^2) * v at every node."""
        n, tau, mu = 8, 0.125, 1
        v = 0.3 - 0.2j
        g = synthesize(plane_wave(n, v, (0, 0)))
        out = nonlinear_phase(g, tau, mu)
        want = np.exp(1j * mu * tau * abs(v) ** 2) * v
        assert np.abs(out - want).max() <= 1e-15

    def test_modulus_preserved_pointwise(self):
        g = synthesize(random_field(16))
        out = nonlinear_phase(g, 0.25, -1)
        assert np.abs(np.abs(out) - np.abs(g)).max() <= 1e-13

    def test_sign_conjugates(self):
        """Flipping mu conjugates the phase factor."""
        g = synthesize(random_field(8))
        plus = nonlinear_phase(g, 0.5, 1) / g
        minus = nonlinear_phase(g, 0.5, -1) / g
        assert np.abs(plus - np.conj(minus)).max() <= 1e-13


class TestLieStep:
    """Single steps of ``evolve`` (``t_final`` a small multiple of tau)."""

    def test_constant_datum_exact(self):
        """Spatially constant data evolves by a pure phase, exactly."""
        n, tau, mu, a = 16, 2.0**-5, 1, 0.7 + 0.1j
        p = SchemeParams(tau=tau, n_modes=n, mu=mu, t_final=8 * tau)
        steps = []
        out = evolve(plane_wave(n, a, (0, 0)), p, observer=lambda i, f: steps.append(i))
        got = out.coeffs[n // 2, n // 2]
        want = a * np.exp(1j * mu * 8 * tau * abs(a) ** 2)
        assert abs(got - want) <= 1e-13
        assert steps[-1] == 8

    def test_plane_wave_one_step(self):
        """Single-mode data gains exp(i*(mu*|a|^2 - |k|^2)*tau) per step."""
        n, tau, mu, a, k = 16, 2.0**-4, -1, 0.25, (1, 2)
        p = SchemeParams(tau=tau, n_modes=n, mu=mu, t_final=tau)
        out = evolve(plane_wave(n, a, k), p)
        got = out.coeffs[n // 2 + k[0], n // 2 + k[1]]
        assert abs(got - plane_wave_solution(a, k, mu, tau)) <= 1e-14

    def test_filter_invariance(self):
        """The output field is invariant under the step's own filter."""
        n = 16
        p = SchemeParams(tau=2.0**-3, n_modes=n, mu=-1, t_final=2.0**-3)
        out = evolve(project(random_field(n), p.theta), p)
        assert np.array_equal(project(out, p.theta).coeffs, out.coeffs)

    def test_zero_field_fixed_point(self):
        n = 8
        p = SchemeParams(tau=0.5, n_modes=n, mu=1, t_final=0.5)
        z = SpectralField(n, np.zeros((n, n), dtype=complex))
        out = evolve(z, p)
        assert np.abs(out.coeffs).max() == 0.0


class TestComposedOracle:
    """``evolve`` against the stage-by-stage composition of the step."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("truncating", [False, True], ids=["identity", "truncating"])
    def test_matches_composed_steps(self, n, truncating):
        """300 steps agree with 300 composed steps to 1e-13 relative."""
        steps, tau = 300, 1.0 / n**2
        theta = 64.0 / n**2 if truncating else 4.0 / n**2  # cutoff N/8 or the identity
        p = SchemeParams(tau=tau, n_modes=n, mu=1, t_final=steps * tau, theta=theta)
        u0 = generate(RoughDataSpec(s=1.0, seed=n, n_modes=n, target_l2=2.0 * np.pi))
        want = project(u0, p.theta)
        for _ in range(steps):
            want = composed_lie_step(want, p)
        got = evolve(u0, p)
        diff = l2_norm(SpectralField(n, got.coeffs - want.coeffs))
        assert diff <= 1e-13 * l2_norm(want)


class TestEvolve:
    def test_zero_steps_returns_projected_datum(self):
        n = 16
        p = SchemeParams(tau=2.0**-3, n_modes=n, mu=-1, t_final=0.0)
        u0 = random_field(n)
        out = evolve(u0, p)
        assert np.array_equal(out.coeffs, project(u0, p.theta).coeffs)

    def test_plane_wave_long_run(self):
        """1024 steps of a single mode stay on the analytic solution."""
        n, tau, mu, a, k = 32, 2.0**-10, -1, 0.1, (1, 2)
        p = SchemeParams(tau=tau, n_modes=n, mu=mu, t_final=1.0)
        out = evolve(plane_wave(n, a, k), p)
        want = plane_wave(n, plane_wave_solution(a, k, mu, 1.0), k)
        err = l2_norm(SpectralField(n, out.coeffs - want.coeffs))
        assert err <= 1e-10

    def test_deterministic(self):
        """Two identical runs agree bit for bit."""
        u0 = generate(RoughDataSpec(s=1.0, seed=5, n_modes=16))
        p = SchemeParams(tau=2.0**-6, n_modes=16, mu=-1, t_final=0.25)
        a = evolve(u0, p)
        b = evolve(u0, p)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_mass_conserved_identity_filter(self):
        """theta = 4/N^2 >= tau: relative mass drift stays below 1e-12."""
        n = 16
        u0 = generate(RoughDataSpec(s=1.0, seed=3, n_modes=n))
        p = SchemeParams(tau=2.0**-8, n_modes=n, mu=-1, t_final=0.5)
        masses = []
        evolve(u0, p, observer=lambda i, f: masses.append(l2_norm(f)))
        m = np.array(masses)
        assert p.theta == 4.0 / n**2
        assert np.abs(m - m[0]).max() <= 1e-12 * m[0]

    def test_mass_non_increasing_truncating_filter(self):
        """tau > 4/N^2: the filter truncates and mass never increases."""
        n, tau = 32, 2.0**-4
        u0 = generate(RoughDataSpec(s=0.5, seed=7, n_modes=n))
        p = SchemeParams(tau=tau, n_modes=n, mu=1, t_final=2.0)
        assert p.theta == tau and p.theta > 4.0 / n**2
        masses = []
        evolve(u0, p, observer=lambda i, f: masses.append(l2_norm(f)))
        assert all(b <= a + 1e-14 for a, b in zip(masses, masses[1:]))
        # the first filtered step genuinely drops mass for rough data
        assert masses[-1] < masses[0]

    def test_trajectory_filter_invariant(self):
        """Every observed state is unchanged by its own filter."""
        n = 16
        u0 = generate(RoughDataSpec(s=1.0, seed=2, n_modes=n))
        p = SchemeParams(tau=2.0**-4, n_modes=n, mu=-1, t_final=0.5)
        seen = []
        evolve(u0, p, observer=lambda i, f: seen.append(f))
        for f in seen:
            assert np.array_equal(project(f, p.theta).coeffs, f.coeffs)

    def test_observer_cadence(self):
        n = 8
        u0 = random_field(n)
        p = SchemeParams(tau=0.125, n_modes=n, mu=-1, t_final=1.25)  # 10 steps
        steps = []
        evolve(u0, p, observer=lambda i, f: steps.append(i), observer_every=4)
        assert steps == [0, 4, 8, 10]

    def test_lattice_mismatch_rejected(self):
        p = SchemeParams(tau=0.5, n_modes=8, mu=-1, t_final=1.0)
        with pytest.raises(ValueError, match="lattice"):
            evolve(random_field(16), p)

    def test_observer_stride_validated(self):
        p = SchemeParams(tau=0.5, n_modes=8, mu=-1, t_final=1.0)
        with pytest.raises(ValueError, match="observer_every"):
            evolve(random_field(8), p, observer=lambda i, f: None, observer_every=0)

    def test_first_order_in_time(self):
        """Self-convergence against a tau/64 rerun shows slope 1.0 +- 0.15."""
        n = 32
        coeffs = np.zeros((n, n), dtype=complex)
        k = np.arange(-2, 3)
        block = (RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))) * 0.05
        coeffs[np.ix_(n // 2 + k, n // 2 + k)] = block
        u0 = SpectralField(n, coeffs)
        theta = 4.0 / n**2  # frozen filter so only the step size varies
        errs, taus = [], [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]
        for tau in taus:
            coarse = evolve(u0, SchemeParams(tau, n, -1, 0.25, theta=theta))
            fine = evolve(u0, SchemeParams(tau / 64, n, -1, 0.25, theta=theta))
            errs.append(l2_norm(SpectralField(n, coarse.coeffs - fine.coeffs)))
        slope = np.polyfit(np.log2(taus), np.log2(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.15

    def test_blowup_detected_and_named(self):
        """Overflowing samples surface as a blowup error naming the step."""
        n = 8
        u0 = plane_wave(n, 1e200, (0, 0))
        p = SchemeParams(tau=2.0**-4, n_modes=n, mu=1, t_final=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowupError, match="step 0") as info:
                evolve(u0, p)
        assert info.value.step == 0

    @pytest.mark.parametrize("n, tau", [(16, 2.0**-6), (22, 2.0**-7), (46, 2.0**-9)])
    def test_stack_matches_solo_runs(self, n, tau):
        """Each slice of a stack ends bit for bit where its solo run ends."""
        data = [generate(RoughDataSpec(s=1.0, seed=seed, n_modes=n, target_l2=10.0))
                for seed in (1, 2, 3)]
        p = SchemeParams(tau=tau, n_modes=n, mu=-1, t_final=32 * tau)
        finals, blowup = evolve(np.stack([f.coeffs for f in data]), p)
        assert blowup.tolist() == [-1, -1, -1]
        for f, got in zip(data, finals):
            assert np.array_equal(got, evolve(f, p).coeffs)

    def test_stack_blowup_is_per_slice(self):
        """A slice that blows up is named and zeroed; the others run on as alone."""
        n = 8
        calm = random_field(n)
        p = SchemeParams(tau=2.0**-4, n_modes=n, mu=1, t_final=1.0)
        stack = np.stack([plane_wave(n, 1e200, (0, 0)).coeffs, calm.coeffs])
        with np.errstate(over="ignore", invalid="ignore"):
            finals, blowup = evolve(stack, p)
        assert blowup.tolist() == [0, -1]
        assert not finals[0].any()
        assert np.array_equal(finals[1], evolve(calm, p).coeffs)

    def test_concurrent_cold_start_bits(self):
        """Concurrent first runs in a fresh process match serial runs bit for bit."""
        env = dict(os.environ)
        src = str(Path(nls2d.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "True"

    def test_snapshot_observer_files(self, tmp_path):
        """The file observer writes loadable per-step snapshots."""
        n = 8
        u0 = random_field(n)
        p = SchemeParams(tau=0.25, n_modes=n, mu=-1, t_final=1.0)
        final = evolve(u0, p, observer=snapshot_observer(tmp_path, "case"), observer_every=2)
        names = sorted(q.name for q in tmp_path.glob("*.nls2"))
        assert names == ["case_0.nls2", "case_2.nls2", "case_4.nls2"]
        assert np.array_equal(load_field(tmp_path / "case_4.nls2").coeffs, final.coeffs)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
