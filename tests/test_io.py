import struct
from dataclasses import replace

import numpy as np
import pytest

from edwardsim import (
    ModelParams,
    builtin_shift,
    read_path_binary,
    read_path_csv,
    read_shift_csv,
    sample_fbm,
    silt_raw,
    stream,
    write_path_binary,
    write_path_csv,
    write_shift_csv,
)
from edwardsim.pathio import BINARY_MAGIC, BINARY_VERSION


@pytest.fixture()
def path64(small_params, small_cov):
    return sample_fbm(small_params, stream(5, 0), cov=small_cov)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path, small_params, small_cov, path64):
        dest = tmp_path / "path.csv"
        write_path_csv(dest, path64)
        back = read_path_csv(dest, small_params)
        assert np.array_equal(back.grid.points, path64.grid.points)
        assert np.array_equal(back.values, path64.values)
        assert silt_raw(back, 0.1) == silt_raw(path64, 0.1)

    def test_header_row(self, tmp_path, path64):
        dest = tmp_path / "path.csv"
        write_path_csv(dest, path64)
        first = dest.read_text().splitlines()[0]
        assert first == "t,x_1,x_2"

    def test_file_fixes_grid_shape(self, tmp_path, path64, desk_params):
        # N and T come from the file; H, d, g from the caller's model
        dest = tmp_path / "path.csv"
        write_path_csv(dest, path64)
        back = read_path_csv(dest, desk_params)
        assert back.grid.n == 64
        assert back.cov.params.N == 64
        assert back.cov.params.H == desk_params.H

    def test_file_fixes_horizon(self, tmp_path, small_params):
        # a horizon-2 file read under T = 1: path and covariance both span [0, 2]
        path = sample_fbm(replace(small_params, T=2.0), stream(5, 0))
        dest = tmp_path / "path.csv"
        write_path_csv(dest, path)
        back = read_path_csv(dest, small_params)
        assert back.cov.params.T == 2.0 and back.cov.grid.horizon == 2.0
        assert np.array_equal(back.grid.points, path.grid.points)

    def test_dimension_mismatch(self, tmp_path, path64):
        dest = tmp_path / "path.csv"
        write_path_csv(dest, path64)
        p1 = ModelParams(H=0.5, d=1, N=64, seed=0)
        with pytest.raises(ValueError, match="expected 2 columns"):
            read_path_csv(dest, p1)


class TestBinary:
    def test_round_trip_is_exact(self, tmp_path, small_params, path64):
        dest = tmp_path / "path.fbmp"
        write_path_binary(dest, path64)
        back = read_path_binary(dest, small_params)
        assert np.array_equal(back.grid.points, path64.grid.points)
        assert np.array_equal(back.values, path64.values)

    def test_header_layout(self, tmp_path, path64):
        dest = tmp_path / "path.fbmp"
        write_path_binary(dest, path64)
        blob = dest.read_bytes()
        assert blob[:16] == struct.pack("<4sIII", BINARY_MAGIC, BINARY_VERSION, 64, 2)
        assert len(blob) == 16 + 8 * 64 * 3

    def test_truncated(self, tmp_path, small_params):
        dest = tmp_path / "stub.fbmp"
        dest.write_bytes(b"FBMP\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_path_binary(dest, small_params)

    def test_bad_magic(self, tmp_path, small_params, path64):
        dest = tmp_path / "path.fbmp"
        write_path_binary(dest, path64)
        blob = dest.read_bytes()
        dest.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            read_path_binary(dest, small_params)

    def test_bad_version(self, tmp_path, small_params, path64):
        dest = tmp_path / "path.fbmp"
        write_path_binary(dest, path64)
        blob = dest.read_bytes()
        dest.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
        with pytest.raises(ValueError, match="version"):
            read_path_binary(dest, small_params)

    def test_length_mismatch(self, tmp_path, small_params, path64):
        dest = tmp_path / "path.fbmp"
        write_path_binary(dest, path64)
        dest.write_bytes(dest.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="length"):
            read_path_binary(dest, small_params)

    def test_dimension_mismatch(self, tmp_path, path64):
        dest = tmp_path / "path.fbmp"
        write_path_binary(dest, path64)
        p1 = ModelParams(H=0.5, d=1, N=64, seed=0)
        with pytest.raises(ValueError, match="file has d=2"):
            read_path_binary(dest, p1)


class TestShiftCsv:
    def test_round_trip_is_exact(self, tmp_path, small_params, small_cov):
        shift = builtin_shift("sine", small_params, cov=small_cov)
        dest = tmp_path / "shift.csv"
        write_shift_csv(dest, shift)
        back = read_shift_csv(dest, small_params, cov=small_cov)
        assert np.array_equal(back.k, shift.k)
        assert np.array_equal(back.w, shift.w)
        assert back.energy == shift.energy

    def test_header_row(self, tmp_path, small_params, small_cov):
        shift = builtin_shift("linear", small_params, cov=small_cov)
        dest = tmp_path / "shift.csv"
        write_shift_csv(dest, shift)
        assert dest.read_text().splitlines()[0] == "t,k_1,k_2"

    def test_grid_mismatch(self, tmp_path, small_params, small_cov):
        shift = builtin_shift("linear", small_params, cov=small_cov)
        dest = tmp_path / "shift.csv"
        write_shift_csv(dest, shift)
        other = ModelParams(H=0.5, d=2, N=32, seed=0)
        with pytest.raises(ValueError, match="does not match the model grid"):
            read_shift_csv(dest, other)

    def test_perturbed_time_column(self, tmp_path, small_params, small_cov):
        shift = builtin_shift("linear", small_params, cov=small_cov)
        table = np.column_stack([small_cov.grid.points + 1e-6, shift.k])
        dest = tmp_path / "shift.csv"
        np.savetxt(dest, table, fmt="%.17g", delimiter=",", header="t,k_1,k_2", comments="")
        with pytest.raises(ValueError, match="does not match the model grid"):
            read_shift_csv(dest, small_params, cov=small_cov)
