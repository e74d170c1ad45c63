import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo.geometry import build_topology, default_positioner_grids, grid_positions, roi_center
from mamimo.model import Position3, Positions, SampleGrid, Traversal


def min_pairwise_distance(points):
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    d[np.diag_indices(len(points))] = np.inf
    return d.min()


class TestBuildTopology:
    def test_ura_defaults(self):
        g = build_topology("ura")
        assert g.n_elements == 64
        assert min_pairwise_distance(g.positions_mm) == pytest.approx(70.0)
        assert np.mean(g.positions_mm[:, 2]) == pytest.approx(1000.0)
        assert np.all(g.positions_mm[:, 1] == 0.0)  # array plane is y = 0

    def test_ula_span(self):
        g = build_topology("ula")
        xs = g.positions_mm[:, 0]
        assert xs.max() - xs.min() == pytest.approx(63 * 70.0)  # 4410 mm centre span

    def test_da_shape(self):
        g = build_topology("da")
        assert g.n_elements == 64
        assert np.all(g.positions_mm[:, 2] == 1000.0)
        # eight sub-array centres on the 2500 mm octagon around the user-area centre
        centres = g.positions_mm.reshape(8, 8, 3).mean(axis=1)
        c = roi_center()
        assert np.allclose(np.hypot(centres[:, 0] - c.x, centres[:, 1] - c.y), 2500.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_topology("hexagon")

    @pytest.mark.parametrize("kind", ["ura", "ula", "da"])
    def test_deterministic_bit_for_bit(self, kind):
        a = build_topology(kind)
        b = build_topology(kind)
        assert np.array_equal(a.positions_mm, b.positions_mm)


class TestGridPositions:
    def test_default_grid_node_count(self):
        assert len(grid_positions(SampleGrid())) == 63001

    def test_degenerate_grid(self):
        g = SampleGrid(origin=Position3(10, 20, 30), x_extent_mm=0, y_extent_mm=0)
        assert list(grid_positions(g)) == [Position3(10, 20, 30)]

    def test_ten_by_five(self):
        g = SampleGrid(x_extent_mm=10, y_extent_mm=10, resolution_mm=5)
        assert len(grid_positions(g)) == 9

    def test_serpentine_two_by_two(self):
        g = SampleGrid(x_extent_mm=1, y_extent_mm=1, resolution_mm=1)
        order = [(p.x, p.y) for p in grid_positions(g, Traversal.SERPENTINE)]
        assert order == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_raster_and_serpentine_same_nodes(self):
        g = SampleGrid(x_extent_mm=20, y_extent_mm=15, resolution_mm=5)
        raster = grid_positions(g, Traversal.RASTER)
        serp = grid_positions(g, Traversal.SERPENTINE)
        assert len(raster) == len(serp)
        assert set(raster) == set(serp)
        assert raster != serp

    def test_each_node_once(self):
        g = SampleGrid(x_extent_mm=25, y_extent_mm=10, resolution_mm=5)
        pts = grid_positions(g)
        assert len(set(pts)) == len(pts) == g.node_count

    @given(x_extent=st.floats(0, 200), y_extent=st.floats(0, 200),
           res=st.floats(0.5, 50))
    @settings(max_examples=50, deadline=None)
    def test_count_formula(self, x_extent, y_extent, res):
        try:
            g = SampleGrid(x_extent_mm=x_extent, y_extent_mm=y_extent, resolution_mm=res)
        except ValueError:
            # refused only where the floor drops a node that lies on the edge up to rounding
            assert any(e // res + 1 == round(e / res) and abs(round(e / res) * res - e) <= 1e-9 * e
                       for e in (x_extent, y_extent))
            return
        expected = (int(x_extent // res) + 1) * (int(y_extent // res) + 1)
        assert len(grid_positions(g)) == expected

    @pytest.mark.parametrize("order", list(Traversal))
    @pytest.mark.parametrize("x_extent,y_extent", [(5.0, 2.0), (5.0, 2.5), (0.0, 0.0)])
    def test_matches_closed_form_bit_for_bit(self, order, x_extent, y_extent):
        g = SampleGrid(origin=Position3(-1252.5, 1003.3, 1000.0), x_extent_mm=x_extent,
                       y_extent_mm=y_extent, resolution_mm=0.7)
        expected = []
        for iy in range(g.ny):
            cols = range(g.nx)
            if order is Traversal.SERPENTINE and iy % 2 == 1:
                cols = reversed(cols)
            expected += [(g.origin.x + ix * 0.7, g.origin.y + iy * 0.7, g.origin.z) for ix in cols]
        pts = list(grid_positions(g, order))
        assert all(type(p) is Position3 and type(p.x) is type(p.y) is type(p.z) is float
                   for p in pts)
        assert np.array([(p.x, p.y, p.z) for p in pts]).tobytes() == np.array(expected).tobytes()

    def test_read_only_array_with_views(self):
        g = SampleGrid(origin=Position3(-1252.5, 1003.3, 1000.0), x_extent_mm=10,
                       y_extent_mm=10, resolution_mm=5)
        pts = grid_positions(g, Traversal.SERPENTINE)
        assert pts.xyz.shape == (9, 3) and pts.xyz.flags.c_contiguous
        assert pts.xyz.tobytes() == np.array([(p.x, p.y, p.z) for p in pts]).tobytes()
        with pytest.raises(ValueError):
            pts.xyz[0, 0] = 1.0
        part = pts[2:5]
        assert isinstance(part, Positions) and np.shares_memory(part.xyz, pts.xyz)
        assert list(part) == list(pts)[2:5]
        assert part[-1] == pts[4] == Position3(-1247.5, 1008.3, 1000.0)


class TestDefaultArrangement:
    def test_number_of_distinct_positions(self):
        grids = default_positioner_grids()
        seen = set()
        for g in grids:
            seen.update((p.x, p.y) for p in grid_positions(g))
        assert len(seen) == 4 * 63001 == 252004

    def test_four_positioners(self):
        grids = default_positioner_grids()
        assert len(grids) == 4
        assert all(g.node_count == 63001 for g in grids)
