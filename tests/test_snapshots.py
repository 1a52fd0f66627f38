"""Binary snapshot format: round trips, validation, corruption handling."""

import struct

import numpy as np
import pytest

from qgk.grid import GridSpec
from qgk import spectral as sp
from qgk.config import write_csv, write_manifest_sidecar
from qgk.snapshots import (
    MAGIC,
    SnapshotError,
    atomic_output,
    read_on_grid,
    read_snapshot,
    write_snapshot,
)


def field(n=16, L=2.5, seed=0):
    g = GridSpec(n, L)
    return sp.random_band_field(g, seed, 1.0, 3.0, 1, n // 3)


def test_round_trip_bitwise(tmp_path):
    u = field(seed=3)
    path = tmp_path / "state.qgk"
    write_snapshot(path, u, 1.75)
    v, t = read_snapshot(path)
    assert t == 1.75
    assert v.grid.n == u.grid.n
    assert v.grid.box_length == u.grid.box_length
    assert np.array_equal(v.coeffs, u.coeffs)


def test_header_layout(tmp_path):
    u = field(n=16, L=2.5)
    path = tmp_path / "state.qgk"
    write_snapshot(path, u, 0.5)
    raw = path.read_bytes()
    magic, version, n, L, t = struct.unpack("<4sIIdd", raw[:28])
    assert magic == MAGIC and version == 1 and n == 16
    assert L == 2.5 and t == 0.5
    assert len(raw) == 28 + 16 * 16 * 16


def test_truncated_payload_rejected(tmp_path):
    u = field()
    path = tmp_path / "state.qgk"
    write_snapshot(path, u, 0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(SnapshotError, match="payload"):
        read_snapshot(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "state.qgk"
    write_snapshot(path, field(), 0.0)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "state.qgk"
    write_snapshot(path, field(), 0.0)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="version"):
        read_snapshot(path)


def test_hermitian_violation_rejected(tmp_path):
    u = field(seed=4)
    coeffs = u.coeffs.copy()
    coeffs[1, 2] += 0.5  # break the symmetry on purpose
    path = tmp_path / "state.qgk"
    path.write_bytes(struct.pack("<4sIIdd", MAGIC, 1, u.grid.n, u.grid.box_length, 0.0)
                     + np.fft.fftshift(coeffs).astype("<c16").tobytes())
    with pytest.raises(SnapshotError, match="Hermitian"):
        read_snapshot(path)


def test_nonfinite_rejected(tmp_path):
    u = field(seed=5)
    u.band[2, 2] = np.nan
    path = tmp_path / "state.qgk"
    write_snapshot(path, u, 0.0)
    with pytest.raises(SnapshotError, match="finite"):
        read_snapshot(path)


class Interrupted(RuntimeError):
    pass


def test_interrupted_snapshot_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "state.qgk"
    write_snapshot(path, field(seed=5), 0.5)
    before = path.read_bytes()
    with pytest.raises(Interrupted):
        with atomic_output(path, "wb") as fh:
            fh.write(b"QGK1 partial payload")
            raise Interrupted
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.qgk"]


def test_interrupted_csv_and_sidecar_writes_keep_earlier_files(tmp_path):
    class BrokenManifest:
        def lines(self):
            yield "qgk manifest"
            raise Interrupted

    def broken_rows():
        yield [1.0, 2.0]
        raise Interrupted

    csv_path = tmp_path / "series.csv"
    write_csv(csv_path, ["a", "b"], [[0.5, 0.25]])
    snap = tmp_path / "final.qgk"
    write_snapshot(snap, field(seed=6), 1.0)
    sidecar = tmp_path / "final.qgk.manifest.txt"
    sidecar.write_text("earlier manifest\n")
    names = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(Interrupted):
        write_csv(csv_path, ["a", "b"], broken_rows())
    with pytest.raises(Interrupted):
        write_manifest_sidecar(snap, BrokenManifest())
    assert csv_path.read_text() == "a,b\n0.5,0.25\n"
    assert sidecar.read_text() == "earlier manifest\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.mark.parametrize("offset,value", [
    (20, float("nan")), (20, float("inf")), (12, float("inf")), (12, float("nan")),
], ids=["nan-time", "inf-time", "inf-L", "nan-L"])
def test_nonfinite_header_rejected(tmp_path, offset, value):
    path = tmp_path / "state.qgk"
    write_snapshot(path, field(), 0.5)
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="invalid header"):
        read_snapshot(path)


def test_payload_is_the_shifted_complex_array(tmp_path):
    u = field(n=16, seed=7)
    path = tmp_path / "state.qgk"
    write_snapshot(path, u, 0.0)
    shifted = np.fft.fftshift(u.coeffs)
    interleaved = np.stack([shifted.real, shifted.imag], axis=-1).astype("<f8")
    assert path.read_bytes()[28:] == interleaved.tobytes()


def test_read_on_grid_keeps_the_grid_and_checks_n_and_l(tmp_path):
    u = field(n=16, L=2.5, seed=8)
    path = tmp_path / "state.qgk"
    write_snapshot(path, u, 3.0)
    grid = GridSpec(16, 2.5, "two_thirds_truncation")
    v, t = read_on_grid(path, grid)
    assert v.grid is grid and np.array_equal(v.coeffs, u.coeffs) and t == 3.0
    for other in (GridSpec(32, 2.5), GridSpec(16, 2.0)):
        with pytest.raises(SnapshotError, match="does not match the config grid"):
            read_on_grid(path, other)


def test_missing_output_directory_is_named(tmp_path):
    target = tmp_path / "nodir" / "x.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_csv(target, ["a"], [[1.0]])
    message = str(info.value)
    assert str(target) in message and str(tmp_path / "nodir") in message
    assert ".tmp" not in message
    assert list(tmp_path.iterdir()) == []
