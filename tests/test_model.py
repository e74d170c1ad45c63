import math

import numpy as np
import pytest

from mamimo.model import ArrayGeometry, CsiSample, Position3, RadioConfig, SampleGrid


class TestPosition3:
    def test_finite_required(self):
        with pytest.raises(ValueError):
            Position3(math.nan, 0, 0)
        with pytest.raises(ValueError):
            Position3(0, math.inf, 0)

    def test_distance(self):
        assert Position3(0, 0, 0).distance_mm(Position3(3, 4, 0)) == 5.0

    def test_immutable(self):
        p = Position3(1, 2, 3)
        with pytest.raises(AttributeError):
            p.x = 9


class TestRadioConfig:
    def test_defaults_consistent(self):
        r = RadioConfig()
        assert r.pilot_count * r.interleave_factor == r.total_subcarriers
        assert r.carrier_hz == 2.61e9

    def test_inconsistent_interleaving_rejected(self):
        with pytest.raises(ValueError):
            RadioConfig(total_subcarriers=1200, pilot_count=99, interleave_factor=12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            RadioConfig(subcarrier_spacing_hz=0)


class TestCsiSample:
    def test_shape_and_metadata(self):
        s = CsiSample(np.ones((2, 3)), user_id=5, sample_id="abc_-0")
        assert s.n_antennas == 2 and s.n_subcarriers == 3
        assert s.user_id == 5

    def test_matrix_locked(self):
        s = CsiSample(np.ones((1, 1)))
        with pytest.raises(ValueError):
            s.h[0, 0] = 2.0

    def test_caller_array_not_locked_or_aliased(self):
        h = np.ones((2, 2), dtype=np.complex128)
        s = CsiSample(h)
        h[0, 0] = 5.0  # caller keeps a writeable array
        assert s.h[0, 0] == 1.0  # and the sample keeps its own copy

    @pytest.mark.parametrize("bad_value", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                           complex(np.inf, 1.0), complex(1.0, -np.inf)])
    def test_nonfinite_rejected(self, bad_value):
        bad = np.ones((2, 2), dtype=complex)
        bad[1, 0] = bad_value
        with pytest.raises(ValueError, match="finite"):
            CsiSample(bad)

    def test_user_id_range(self):
        with pytest.raises(ValueError):
            CsiSample(np.ones((1, 1)), user_id=12)
        with pytest.raises(ValueError):
            CsiSample(np.ones((1, 1)), user_id=-1)

    def test_sample_id_charset(self):
        with pytest.raises(ValueError):
            CsiSample(np.ones((1, 1)), sample_id="abcd")  # too short
        with pytest.raises(ValueError):
            CsiSample(np.ones((1, 1)), sample_id="ab/cde")  # bad char

    def test_sample_id_with_trailing_newline_rejected(self):
        # ``$`` matches before a final newline; the whole id must match
        with pytest.raises(ValueError):
            CsiSample(np.ones((1, 1)), sample_id="abcdef\n")

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            CsiSample(np.ones((0, 3)))
        with pytest.raises(ValueError):
            CsiSample(np.ones(4))


class TestSampleGrid:
    def test_default_node_count(self):
        g = SampleGrid()
        assert g.nx == g.ny == 251
        assert g.node_count == 63001

    def test_zero_extent_single_node(self):
        g = SampleGrid(x_extent_mm=0, y_extent_mm=0)
        assert g.node_count == 1

    def test_small_grid(self):
        g = SampleGrid(x_extent_mm=10, y_extent_mm=10, resolution_mm=5)
        assert g.nx == g.ny == 3

    @pytest.mark.parametrize("extent,resolution", [(250.0, 0.1), (1.2, 0.4)])
    def test_extent_off_by_rounding_refused(self, extent, resolution):
        # floor(250 / 0.1) is 2499 and floor(1.2 / 0.4) is 2: the last node would be dropped
        with pytest.raises(ValueError, match=rf"extent {extent} mm at {resolution} mm drops its last node"):
            SampleGrid(x_extent_mm=extent, y_extent_mm=extent, resolution_mm=resolution)
        with pytest.raises(ValueError):
            SampleGrid(x_extent_mm=10.0, y_extent_mm=extent, resolution_mm=resolution)
        # a true non-multiple still floors
        assert SampleGrid(x_extent_mm=100.0, y_extent_mm=0.0, resolution_mm=0.7).nx == 143

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleGrid(resolution_mm=0)
        for resolution in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SampleGrid(resolution_mm=resolution)
        with pytest.raises(ValueError):
            SampleGrid(x_extent_mm=math.inf)
        with pytest.raises(ValueError):
            SampleGrid(x_extent_mm=-1)


class TestArrayGeometry:
    def test_arrays_locked(self):
        g = ArrayGeometry(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            g.positions_mm[0, 0] = 5.0
