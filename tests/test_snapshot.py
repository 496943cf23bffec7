"""Tests for the binary field snapshot format."""

import hmac
import io
import struct

import numpy as np
import pytest

import nls2d.snapshot as snapshot
from nls2d.snapshot import FORMAT_VERSION, MAGIC, load_field, save_field

RNG = np.random.default_rng(99)


def random_field(n: int) -> np.ndarray:
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


class TestSnapshotRoundTrip:
    def test_bit_identical(self, tmp_path):
        """Write then read returns the exact same coefficients."""
        f = random_field(16)
        path = tmp_path / "field.nls2"
        save_field(f, path)
        back = load_field(path)
        assert back.shape == (16, 16)
        assert np.array_equal(back, f)
        assert back.dtype == np.complex128

    def test_header_layout(self, tmp_path):
        """Magic, version, and N occupy the first 12 bytes, little-endian."""
        f = random_field(4)
        path = tmp_path / "field.nls2"
        save_field(f, path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        version, n = struct.unpack("<II", blob[4:12])
        assert version == FORMAT_VERSION
        assert n == 4
        assert len(blob) == 12 + 16 * 4 * 4

    def test_payload_is_le_float64_pairs(self, tmp_path):
        """Payload stores (re, im) binary64 pairs in row-major mode order."""
        n = 4
        coeffs = np.arange(n * n, dtype=np.float64).reshape(n, n) * (1 - 2j)
        path = tmp_path / "field.nls2"
        save_field(coeffs, path)
        payload = path.read_bytes()[12:]
        first_re, first_im = struct.unpack("<dd", payload[:16])
        assert first_re == coeffs[0, 0].real
        assert first_im == coeffs[0, 0].imag
        flat = np.frombuffer(payload, dtype="<f8")
        assert np.array_equal(flat[0::2].reshape(n, n), coeffs.real)
        assert np.array_equal(flat[1::2].reshape(n, n), coeffs.imag)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        """A save that dies part way leaves the previous file whole and no temp file."""
        path = tmp_path / "field.nls2"
        save_field(random_field(8), path)
        old = path.read_bytes()

        class TornWrite(io.FileIO):
            def write(self, data):  # the header goes through; the payload dies half written
                if self.tell():
                    super().write(memoryview(data).cast("B")[:512])
                    raise OSError("disk full")
                return super().write(data)

        monkeypatch.setattr(snapshot, "open", TornWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_field(random_field(8), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["field.nls2"]


class TestSnapshotErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nls2"
        path.write_bytes(b"XXXX" + b"\x00" * 24)
        with pytest.raises(ValueError, match="magic"):
            load_field(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.nls2"
        path.write_bytes(MAGIC + struct.pack("<II", 99, 2) + b"\x00" * 64)
        with pytest.raises(ValueError, match="version"):
            load_field(path)

    def test_truncated_payload(self, tmp_path):
        f = random_field(8)
        path = tmp_path / "field.nls2"
        save_field(f, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_field(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.nls2"
        path.write_bytes(b"NL")
        with pytest.raises(ValueError, match="header"):
            load_field(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_field(tmp_path / "nope.nls2")


class TestCacheEntry:
    def test_layout_and_round_trip(self, tmp_path):
        """An entry is the snapshot bytes, then their HMAC-SHA256 under the key."""
        f = random_field(8)
        save_field(f, tmp_path / "plain.nls2")
        plain = (tmp_path / "plain.nls2").read_bytes()
        path = tmp_path / "ref.entry"
        save_field(np.asfortranarray(f), path, "key-a")
        assert path.read_bytes() == plain + hmac.digest(b"key-a", plain, "sha256")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.nls2", "ref.entry"]
        back = load_field(path, "key-a")
        assert back.dtype == np.complex128 and np.array_equal(back, f)

    def test_other_key_or_short_file_rejected(self, tmp_path):
        path = tmp_path / "ref.entry"
        save_field(random_field(4), path, "key-a")
        with pytest.raises(ValueError, match="corrupt or keyed to a different run"):
            load_field(path, "key-b")
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="corrupt"):
            load_field(path, "key-a")
        with pytest.raises(FileNotFoundError):
            load_field(tmp_path / "none.entry", "key-a")


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
