"""Tests for the pinned random stream and rough datum generation."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

import nls2d.roughdata as roughdata
from nls2d.roughdata import RoughDataSpec, generate, generate_stack, uniform_block
from nls2d.spectral import l2_norm, mode_values

from oracles import splitmix64_reference

GOLDEN = json.loads((Path(__file__).parent / "data" / "rng_golden.json").read_text())


class TestStream:
    def test_golden_draws(self):
        """First draws match the values frozen in the golden file."""
        for seed_text, hexes in GOLDEN.items():
            want = [float.fromhex(h) for h in hexes]
            assert uniform_block(int(seed_text), len(want)).tolist() == want

    def test_block_matches_stream(self):
        """Vectorized block equals the pure-integer reference draw for draw."""
        for seed in (0, 1, 42, 2**63 + 17):
            assert uniform_block(seed, 257).tolist() == splitmix64_reference(seed, 257)

    def test_block_matches_independent_reference(self):
        assert uniform_block(9, 64).tolist() == splitmix64_reference(9, 64)

    def test_range_half_open(self):
        v = uniform_block(3, 10_000)
        assert v.min() >= -1.0
        assert v.max() < 1.0

    def test_moments(self):
        """10^6 draws: mean within 0.005 of 0, variance within 0.01 of 1/3."""
        v = uniform_block(0, 10**6)
        assert abs(v.mean()) <= 0.005
        assert abs(v.var() - 1.0 / 3.0) <= 0.01

    def test_seed_wraps_mod_2_64(self):
        assert np.array_equal(uniform_block(5, 16), uniform_block(5 + 2**64, 16))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            uniform_block(0, -1)


class TestSpecValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError, match="s must"):
            RoughDataSpec(s=0.0, seed=1, n_modes=8)
        with pytest.raises(ValueError, match="eps"):
            RoughDataSpec(s=1.0, seed=1, n_modes=8, eps=0.0)
        with pytest.raises(ValueError, match="target_l2"):
            RoughDataSpec(s=1.0, seed=1, n_modes=8, target_l2=-0.1)
        with pytest.raises(ValueError, match="even"):
            RoughDataSpec(s=1.0, seed=1, n_modes=9)


class TestGenerate:
    def test_deterministic(self):
        """Equal specs produce bit-identical coefficient arrays."""
        spec = RoughDataSpec(s=0.7, seed=123, n_modes=32)
        assert np.array_equal(generate(spec), generate(spec))

    def test_seeds_differ(self):
        a = generate(RoughDataSpec(s=1.0, seed=1, n_modes=16))
        b = generate(RoughDataSpec(s=1.0, seed=2, n_modes=16))
        assert not np.array_equal(a, b)

    def test_normalization_exact(self):
        """The L2 norm hits target_l2 to 1e-14 relative."""
        for target in (0.1, 1.0, 3.5):
            f = generate(RoughDataSpec(s=0.5, seed=9, n_modes=24, target_l2=target))
            assert abs(l2_norm(f) - target) <= 1e-14 * target

    def test_construction_from_stream(self):
        """Coefficients follow the documented layout: row-major modes,
        real before imaginary, decay weight, one global scale."""
        spec = RoughDataSpec(s=1.25, seed=77, n_modes=8)
        f = generate(spec)
        n = spec.n_modes
        draws = uniform_block(spec.seed, 2 * n * n)
        g = draws[0::2].reshape(n, n) + 1j * draws[1::2].reshape(n, n)
        k = mode_values(n).astype(float)
        ksq = k[:, None] ** 2 + k[None, :] ** 2
        raw = (1.0 + ksq) ** (-(spec.s + 1.0 + spec.eps) / 2.0) * g
        scale = spec.target_l2 / (2.0 * np.pi * np.sqrt(np.vdot(raw, raw).real))
        assert np.array_equal(f, raw * scale)

    def test_amplitudes_decay_with_frequency(self):
        """Mean modulus over a high-frequency annulus sits well below the
        mean over low frequencies."""
        f = generate(RoughDataSpec(s=0.9, seed=4, n_modes=64))
        k = mode_values(64).astype(float)
        r = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
        low = np.abs(f[r <= 4.0]).mean()
        high = np.abs(f[(r > 24.0) & (r <= 32.0)]).mean()
        assert high < 0.05 * low

    def test_zero_draw_retry(self, monkeypatch, caplog):
        """An all-zero draw bumps the seed once, with a warning."""
        spec = RoughDataSpec(s=1.0, seed=50, n_modes=8)
        real_uniform = roughdata._uniform
        calls = []

        def zero_first_draw(seeds, count):
            calls.extend(seeds.tolist())
            draws = real_uniform(seeds, count)
            return np.zeros_like(draws) if len(calls) == 1 else draws

        monkeypatch.setattr(roughdata, "_uniform", zero_first_draw)
        with caplog.at_level(logging.WARNING, logger="nls2d.roughdata"):
            f = generate(spec)
        assert calls == [50, 51]
        assert sum("retrying" in r.message for r in caplog.records) == 1
        monkeypatch.undo()
        assert np.array_equal(f, generate(RoughDataSpec(s=1.0, seed=51, n_modes=8)))

    @pytest.mark.parametrize("seed", [5, -3, 2**45 * 1_000_003, 2**64 - 2])
    def test_stack_matches_generate(self, seed):
        """Each slice of the batched draw is ``generate``'s field, bit for bit,
        also for negative seeds and seeds that wrap mod 2**64."""
        spec = RoughDataSpec(s=0.8, seed=seed, n_modes=8, target_l2=2.5)
        stack = generate_stack(spec, 5)
        assert stack.shape == (5, 8, 8)
        for m, c in enumerate(stack):
            want = generate(RoughDataSpec(s=0.8, seed=seed + m, n_modes=8, target_l2=2.5))
            assert np.array_equal(c, want)

    def test_stack_zero_draw_retry(self, monkeypatch, caplog):
        """An all-zero slice of the batched draw alone gets its seed bumped."""
        real_uniform = roughdata._uniform

        def zero_seed_52(seeds, count):
            draws = real_uniform(seeds, count)
            draws[seeds == 52] = 0.0
            return draws

        monkeypatch.setattr(roughdata, "_uniform", zero_seed_52)
        with caplog.at_level(logging.WARNING, logger="nls2d.roughdata"):
            stack = generate_stack(RoughDataSpec(s=1.0, seed=50, n_modes=8), 4)
        assert [r.message for r in caplog.records] == [
            "all draws zero for seed 52; retrying with seed 53"]
        monkeypatch.undo()
        for m, seed in enumerate((50, 51, 53, 53)):
            want = generate(RoughDataSpec(s=1.0, seed=seed, n_modes=8))
            assert np.array_equal(stack[m], want)

    def test_tail_decay_rate(self):
        """Weighted tail mass follows the documented power law.

        For weight exponent q and smoothness s the tail above radius R
        decays like R**(2*(q - s) - 2*eps); the fitted log-log slope over a
        seed ensemble must sit within 0.3 of that rate.
        """
        s, sigma, eps, n = 1.0, 0.5, 0.01, 256
        k = mode_values(n).astype(float)
        ksq = k[:, None] ** 2 + k[None, :] ** 2
        radii = np.geomspace(3.0, 16.0, 5)
        slopes = []
        for seed in range(1, 7):
            f = generate(RoughDataSpec(s=s, seed=seed, n_modes=n, eps=eps))
            weighted = (1.0 + ksq) ** sigma * np.abs(f) ** 2
            tails = [weighted[np.sqrt(ksq) > r].sum() for r in radii]
            slopes.append(np.polyfit(np.log(radii), np.log(tails), 1)[0])
        theory = 2.0 * (sigma - s) - 2.0 * eps
        assert abs(float(np.mean(slopes)) - theory) <= 0.3


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
