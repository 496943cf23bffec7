"""Tests for coefficient arrays, transforms, the frequency filter, and norms."""

import struct

import numpy as np
import pytest

from nls2d.snapshot import FORMAT_VERSION, MAGIC, load_field, save_field
from nls2d.spectral import (
    NonFiniteFieldError,
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

from oracles import (embed, free_flow, naive_dft, naive_synthesize, quadrature_l2,
                     reference_synthesize)

RNG = np.random.default_rng(20240815)


def random_field(n: int, *lead: int) -> np.ndarray:
    return RNG.standard_normal((*lead, n, n)) + 1j * RNG.standard_normal((*lead, n, n))


random_grid = random_field


def snapshot_file(path, n: int, payload: np.ndarray):
    """A snapshot file with lattice size ``n`` in its header and ``payload`` after it."""
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, n)
    path.write_bytes(header + np.ascontiguousarray(payload, dtype="<c16").tobytes())
    return path


class TestFieldTypes:
    """A field is a square (N, N) array, N even and >= 2, all finite.  That is
    checked where fields enter the program: grid samples in ``dft_forward``
    and snapshot files in ``load_field``."""

    def test_odd_size_rejected(self, tmp_path):
        """Lattice sizes must be even."""
        with pytest.raises(ValueError, match="even"):
            load_field(snapshot_file(tmp_path / "odd.nls2", 5, np.zeros((5, 5))))
        with pytest.raises(ValueError, match="even"):
            dft_forward(np.zeros((3, 3), dtype=complex))

    def test_tiny_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="even"):
            load_field(snapshot_file(tmp_path / "empty.nls2", 0, np.zeros((0, 0))))
        with pytest.raises(ValueError, match="even"):
            dft_forward(np.zeros((0, 0), dtype=complex))

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            dft_forward(np.zeros((4, 2), dtype=complex))
        with pytest.raises(ValueError, match="shape"):
            dft_forward(np.zeros((2, 4, 4), dtype=complex))
        # a stack saved as one field: its header names N = 4, its payload is too long
        save_field(np.zeros((2, 4, 4), dtype=complex), tmp_path / "stack.nls2")
        with pytest.raises(ValueError, match="payload"):
            load_field(tmp_path / "stack.nls2")

    def test_non_finite_rejected(self, tmp_path):
        """NaN and Inf entries raise the dedicated error."""
        bad = np.zeros((4, 4), dtype=complex)
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteFieldError):
            load_field(snapshot_file(tmp_path / "nan.nls2", 4, bad))
        with pytest.raises(NonFiniteFieldError):
            dft_forward(bad)
        bad[1, 2] = 1j * np.inf
        with pytest.raises(NonFiniteFieldError):
            load_field(snapshot_file(tmp_path / "inf.nls2", 4, bad))
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
            kept = project(np.ones((m, m), dtype=complex), 4.0 / (n * n))
            k = mode_values(m)
            inside = (k >= -n // 2) & (k < n // 2)
            assert np.array_equal(kept != 0, inside[:, None] & inside[None, :])


class TestForwardTransform:
    def test_matches_direct_summation(self):
        """FFT path agrees with the O(N^4) direct sum."""
        for n in (4, 8, 16):
            g = random_grid(n)
            got = dft_forward(g)
            want = naive_dft(g, n)
            assert np.abs(got - want).max() <= 1e-12

    def test_constant_grid(self):
        """A constant samples to a single coefficient at k = 0."""
        n = 4
        c = dft_forward(np.full((n, n), 2.5 + 0j))
        want = np.zeros((n, n), dtype=complex)
        want[n // 2, n // 2] = 2.5
        assert np.abs(c - want).max() == 0.0

    def test_pure_mode(self):
        """exp(i*x1) sampled on its own grid gives coefficient 1 at (1, 0)."""
        n = 4
        x = 2.0 * np.pi * mode_values(n) / n
        vals = np.exp(1j * x)[:, None] * np.ones((1, n))
        c = dft_forward(vals)
        assert abs(c[n // 2 + 1, n // 2] - 1.0) <= 1e-15
        c[n // 2 + 1, n // 2] = 0.0
        assert np.abs(c).max() <= 1e-15

    def test_aliased_mode_folds(self):
        """The unrepresentable +N/2 mode folds onto -N/2 on the grid."""
        n = 8
        x = 2.0 * np.pi * mode_values(n) / n
        vals = np.exp(1j * (n // 2) * x)[:, None] * np.ones((1, n))
        c = dft_forward(vals)
        assert abs(c[0, n // 2] - 1.0) <= 1e-14

    def test_discrete_parseval(self):
        """Unscaled transform norm equals N^2 times the grid l2h norm."""
        for n in (4, 8, 16, 32):
            g = random_grid(n)
            raw = dft_forward(g) * (n * n)
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
            want = naive_synthesize(f, n, m)
            assert np.abs(got - want).max() <= 1e-11

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 4), (6, 8), (8, 8), (16, 32)])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_bits_match_full_ifftn(self, n, m, lead):
        """Skipping the zero rows in the axis -1 pass, and transforming into
        row views in place, leaves every bit of the padded ``ifftn``."""
        f = random_field(n, *lead)
        got = synthesize(f, m)
        assert got.shape == (*lead, m, m)
        assert np.array_equal(got.view(np.uint64), reference_synthesize(f, m).view(np.uint64))

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
        assert np.abs(back - f).max() <= 1e-13


class TestProject:
    def test_half_open_window(self):
        """Mode k survives iff -cutoff <= k_i < cutoff, componentwise."""
        n = 8
        kept = project(np.ones((n, n), dtype=complex), 0.25)  # cutoff = 2
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
            assert np.array_equal(out, f)

    def test_invalid_theta(self):
        f = random_field(8)
        for theta in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive"):
                project(f, theta)

    def test_idempotent(self):
        f = random_field(16)
        once = project(f, 0.1)
        twice = project(once, 0.1)
        assert np.array_equal(once, twice)

    def test_self_adjoint(self):
        """<Pf, g> = <f, Pg> for the coefficient inner product."""
        f, g = random_field(16), random_field(16)
        lhs = np.vdot(project(f, 0.07), g)
        rhs = np.vdot(f, project(g, 0.07))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_commutes_with_free_flow(self):
        """Both operators are frequency-diagonal."""
        f = random_field(16)
        t = 0.37
        a = project(free_flow(f, t), 0.05)
        b = free_flow(project(f, 0.05), t)
        assert np.abs(a - b).max() <= 1e-15

    def test_norm_non_increasing(self):
        f = random_field(16)
        assert l2_norm(project(f, 0.3)) <= l2_norm(f)


class TestEmbedRestrict:
    def test_embed_is_isometric(self):
        f = random_field(8)
        wide = embed(f, 16)
        assert wide.shape == (16, 16)
        assert l2_norm(wide) == l2_norm(f)

    def test_embed_restrict_round_trip(self):
        f = random_field(8)
        back = restrict(embed(f, 20), 8)
        assert np.array_equal(back, f)

    def test_embed_places_modes(self):
        """A mode keeps its wavenumber through embedding."""
        n, m = 4, 10
        coeffs = np.zeros((n, n), dtype=complex)
        coeffs[n // 2 + 1, n // 2 - 2] = 3.0  # k = (1, -2)
        wide = embed(coeffs, m)
        assert wide[m // 2 + 1, m // 2 - 2] == 3.0
        assert np.count_nonzero(wide) == 1

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
        assert abs(l2_norm(coeffs) - 2.0 * np.pi * 0.5) <= 1e-15

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
        for s in (0.0, 0.5, 1.0, 2.0):
            assert abs(sobolev_norm(coeffs, s) - 2.0 * np.pi * 2.0 ** (s / 2)) <= 1e-12

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



class TestStacks:
    @pytest.mark.parametrize("n", [8, 16, 22])
    def test_stack_equals_slices(self, n):
        """On a 3-slice stack, each slice of restrict, project, synthesize and
        sobolev_norm is bit for bit that function on the slice alone."""
        stack = random_field(n, 3)
        theta, k = 16.0 / n**2, 2 * (n // 4)  # cutoff n/4: the filter bites
        for got, one in [
            (restrict(stack, k), lambda f: restrict(f, k)),
            (project(stack, theta), lambda f: project(f, theta)),
            (synthesize(stack), synthesize),
            (synthesize(stack, 2 * n), lambda f: synthesize(f, 2 * n)),
            (sobolev_norm(stack, 1.3), lambda f: sobolev_norm(f, 1.3)),
        ]:
            assert got.shape[0] == 3
            for g, f in zip(got, stack):
                assert np.array_equal(g, one(f))
        assert isinstance(sobolev_norm(stack[0], 1.3), float)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
