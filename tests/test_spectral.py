"""Tests for spectral fields, transforms, the frequency filter, and norms."""

import numpy as np
import pytest

from nls2d.spectral import (
    NonFiniteFieldError,
    SpectralField,
    dft_forward,
    free_phase,
    l2_norm,
    l2h_norm,
    mode_values,
    project,
    restrict,
    sobolev_norm,
    synthesize,
)

from oracles import embed, free_flow, naive_dft, naive_synthesize, quadrature_l2

RNG = np.random.default_rng(20240815)


def random_field(n: int) -> SpectralField:
    return SpectralField(n, RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))


def random_grid(n: int) -> np.ndarray:
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


class TestFieldTypes:
    def test_odd_size_rejected(self):
        """Lattice sizes must be even."""
        with pytest.raises(ValueError, match="even"):
            SpectralField(5, np.zeros((5, 5), dtype=complex))
        with pytest.raises(ValueError, match="even"):
            dft_forward(np.zeros((3, 3), dtype=complex))

    def test_tiny_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            SpectralField(0, np.zeros((0, 0), dtype=complex))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SpectralField(4, np.zeros((4, 2), dtype=complex))

    def test_non_finite_rejected(self):
        """NaN and Inf entries raise the dedicated error."""
        bad = np.zeros((4, 4), dtype=complex)
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteFieldError):
            SpectralField(4, bad)
        bad[1, 2] = 1j * np.inf
        with pytest.raises(NonFiniteFieldError):
            dft_forward(bad)

    def test_mode_values_order(self):
        assert mode_values(4).tolist() == [-2, -1, 0, 1]

    def test_free_phase_is_read_only(self):
        """The cached phase is shared by every caller; writing to it raises."""
        phase = free_phase(8, 0.5)
        with pytest.raises(ValueError, match="read-only"):
            phase *= 2.0
        assert free_phase(8, 0.5) is phase
        assert phase[4 + 1, 4 + 2] == np.exp(-1j * 0.5 * 5.0)


class TestCutoffSpec:
    """The cutoff theta**-0.5 that project applies."""

    def test_lattice_identity_value(self):
        """theta = 4/N^2 puts the cutoff exactly at N/2.

        On a lattice two modes wider, the window keeps k = -N/2 and drops
        k = N/2 in each component; any rounding of the cutoff moves an edge.
        """
        for n in (4, 32, 46, 90, 128, 256):
            m = n + 2
            kept = project(SpectralField(m, np.ones((m, m), dtype=complex)), 4.0 / (n * n))
            k = mode_values(m)
            inside = (k >= -n // 2) & (k < n // 2)
            assert np.array_equal(kept.coeffs != 0, inside[:, None] & inside[None, :])


class TestForwardTransform:
    def test_matches_direct_summation(self):
        """FFT path agrees with the O(N^4) direct sum."""
        for n in (4, 8, 16):
            g = random_grid(n)
            got = dft_forward(g).coeffs
            want = naive_dft(g, n)
            assert np.abs(got - want).max() <= 1e-12

    def test_constant_grid(self):
        """A constant samples to a single coefficient at k = 0."""
        n = 4
        c = dft_forward(np.full((n, n), 2.5 + 0j)).coeffs
        want = np.zeros((n, n), dtype=complex)
        want[n // 2, n // 2] = 2.5
        assert np.abs(c - want).max() == 0.0

    def test_pure_mode(self):
        """exp(i*x1) sampled on its own grid gives coefficient 1 at (1, 0)."""
        n = 4
        x = 2.0 * np.pi * mode_values(n) / n
        vals = np.exp(1j * x)[:, None] * np.ones((1, n))
        c = dft_forward(vals).coeffs
        assert abs(c[n // 2 + 1, n // 2] - 1.0) <= 1e-15
        c[n // 2 + 1, n // 2] = 0.0
        assert np.abs(c).max() <= 1e-15

    def test_aliased_mode_folds(self):
        """The unrepresentable +N/2 mode folds onto -N/2 on the grid."""
        n = 8
        x = 2.0 * np.pi * mode_values(n) / n
        vals = np.exp(1j * (n // 2) * x)[:, None] * np.ones((1, n))
        c = dft_forward(vals).coeffs
        assert abs(c[0, n // 2] - 1.0) <= 1e-14

    def test_discrete_parseval(self):
        """Unscaled transform norm equals N^2 times the grid l2h norm."""
        for n in (4, 8, 16, 32):
            g = random_grid(n)
            raw = dft_forward(g).coeffs * (n * n)
            lhs = float(np.sqrt(np.vdot(raw, raw).real))
            rhs = (n * n) * l2h_norm(g)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_interpolant_matches_samples(self):
        """Synthesizing the interpolant reproduces the samples."""
        g = random_grid(8)
        back = synthesize(dft_forward(g))
        assert np.abs(back - g).max() <= 1e-13


class TestSynthesize:
    def test_matches_direct_summation(self):
        for n, m in ((4, 4), (4, 8), (8, 12)):
            f = random_field(n)
            got = synthesize(f, m)
            want = naive_synthesize(f.coeffs, n, m)
            assert np.abs(got - want).max() <= 1e-11

    def test_coarser_grid_rejected(self):
        with pytest.raises(ValueError, match="coarser"):
            synthesize(random_field(8), 6)

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError, match="even"):
            synthesize(random_field(8), 9)

    def test_finer_grid_preserves_l2(self):
        """Zero-padding evaluation changes nothing measurable."""
        f = random_field(8)
        for m in (8, 16, 32):
            g = synthesize(f, m)
            assert abs(2.0 * np.pi * l2h_norm(g) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_round_trip(self):
        f = random_field(16)
        back = dft_forward(synthesize(f))
        assert np.abs(back.coeffs - f.coeffs).max() <= 1e-13


class TestProject:
    def test_half_open_window(self):
        """Mode k survives iff -cutoff <= k_i < cutoff, componentwise."""
        n = 8
        f = SpectralField(n, np.ones((n, n), dtype=complex))
        kept = project(f, 0.25).coeffs  # cutoff = 2
        k = mode_values(n)
        want = ((k >= -2) & (k < 2))[:, None] & ((k >= -2) & (k < 2))[None, :]
        assert np.array_equal(kept != 0, want)
        # boundary: -2 kept, +2 dropped
        assert kept[n // 2 - 2, n // 2] == 1.0
        assert kept[n // 2 + 2, n // 2] == 0.0

    def test_identity_at_lattice_theta(self):
        """theta = 4/N^2 keeps every representable mode."""
        for n in (4, 8, 32, 46, 90, 128, 256):
            f = random_field(n)
            out = project(f, 4.0 / (n * n))
            assert np.array_equal(out.coeffs, f.coeffs)

    def test_invalid_theta(self):
        f = random_field(8)
        for theta in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive"):
                project(f, theta)

    def test_idempotent(self):
        f = random_field(16)
        once = project(f, 0.1)
        twice = project(once, 0.1)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_self_adjoint(self):
        """<Pf, g> = <f, Pg> for the coefficient inner product."""
        f, g = random_field(16), random_field(16)
        lhs = np.vdot(project(f, 0.07).coeffs, g.coeffs)
        rhs = np.vdot(f.coeffs, project(g, 0.07).coeffs)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_commutes_with_free_flow(self):
        """Both operators are frequency-diagonal."""
        f = random_field(16)
        t = 0.37
        a = project(free_flow(f, t), 0.05).coeffs
        b = free_flow(project(f, 0.05), t).coeffs
        assert np.abs(a - b).max() <= 1e-15

    def test_norm_non_increasing(self):
        f = random_field(16)
        assert l2_norm(project(f, 0.3)) <= l2_norm(f)


class TestEmbedRestrict:
    def test_embed_is_isometric(self):
        f = random_field(8)
        wide = embed(f, 16)
        assert wide.n_modes == 16
        assert l2_norm(wide) == l2_norm(f)

    def test_embed_restrict_round_trip(self):
        f = random_field(8)
        back = restrict(embed(f, 20), 8)
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_embed_places_modes(self):
        """A mode keeps its wavenumber through embedding."""
        n, m = 4, 10
        f = SpectralField(n, np.zeros((n, n), dtype=complex))
        coeffs = f.coeffs.copy()
        coeffs[n // 2 + 1, n // 2 - 2] = 3.0  # k = (1, -2)
        wide = embed(SpectralField(n, coeffs), m)
        assert wide.coeffs[m // 2 + 1, m // 2 - 2] == 3.0
        assert np.count_nonzero(wide.coeffs) == 1

    def test_embed_shrink_rejected(self):
        with pytest.raises(ValueError, match="embed"):
            embed(random_field(8), 4)

    def test_restrict_grow_rejected(self):
        with pytest.raises(ValueError, match="restrict"):
            restrict(random_field(8), 16)


class TestNorms:
    def test_single_mode_l2(self):
        """One coefficient a gives L2 norm 2*pi*|a|."""
        n = 8
        coeffs = np.zeros((n, n), dtype=complex)
        coeffs[n // 2 + 2, n // 2 - 1] = 0.3 - 0.4j
        assert abs(l2_norm(SpectralField(n, coeffs)) - 2.0 * np.pi * 0.5) <= 1e-15

    def test_l2_matches_fine_grid_quadrature(self):
        """Coefficient-sum norm equals the 4N-point rectangle rule."""
        f = random_field(12)
        q = quadrature_l2(synthesize(f, 48))
        assert abs(l2_norm(f) - q) <= 1e-10 * q

    def test_sobolev_single_mode(self):
        """Mode (1, 0) with unit coefficient has H^s norm 2*pi*2^(s/2)."""
        n = 8
        coeffs = np.zeros((n, n), dtype=complex)
        coeffs[n // 2 + 1, n // 2] = 1.0
        f = SpectralField(n, coeffs)
        for s in (0.0, 0.5, 1.0, 2.0):
            assert abs(sobolev_norm(f, s) - 2.0 * np.pi * 2.0 ** (s / 2)) <= 1e-12

    def test_sobolev_zero_is_l2(self):
        f = random_field(16)
        assert abs(sobolev_norm(f, 0.0) - l2_norm(f)) <= 1e-12 * l2_norm(f)

    def test_sobolev_monotone_in_s(self):
        f = random_field(16)
        norms = [sobolev_norm(f, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_l2h_norm(self):
        assert abs(l2h_norm(np.full((4, 4), 2.0 + 0j)) - 2.0) <= 1e-15
        with pytest.raises(ValueError, match="shape"):
            l2h_norm(np.ones((4, 2), dtype=complex))
        with pytest.raises(NonFiniteFieldError):
            l2h_norm(np.full((4, 4), np.nan + 0j))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
