"""
Antenna topologies and positioner grids
=======================================

Builds the three 64-element base-station deployments, checks their
geometry, and enumerates the positioner grids that tile the user area.
"""

import numpy as np

from mamimo import TopologyKind, build_topology, default_positioner_grids, grid_positions
from mamimo.geometry import roi_center

# The rectangular panel: 8x8 elements, 70 mm pitch, centred 1 m above the
# floor in the plane y = 0, with the user area in +y.
ura = build_topology(TopologyKind.URA)
print(f"URA: {ura.n_elements} elements")
print(f"  x span   : {ura.positions_mm[:, 0].min():7.1f} .. {ura.positions_mm[:, 0].max():7.1f} mm")
print(f"  z centre : {ura.positions_mm[:, 2].mean():7.1f} mm")

# The linear deployment keeps the same pitch; 64 elements span 63 pitches
# between the first and last element centres.
ula = build_topology(TopologyKind.ULA)
span = ula.positions_mm[:, 0].max() - ula.positions_mm[:, 0].min()
print(f"ULA: centre-to-centre span {span:.0f} mm")

# Eight sub-arrays of eight elements on an octagon of radius 2500 mm around
# the user area; each sub-array's centre sits on a vertex.
da = build_topology(TopologyKind.DA)
centres = da.positions_mm.reshape(8, 8, 3).mean(axis=1)
roi = roi_center()
radii = np.hypot(centres[:, 0] - roi.x, centres[:, 1] - roi.y)
print(f"DA : {da.n_elements} elements, sub-array centres {radii.min():.1f} .. "
      f"{radii.max():.1f} mm from the user-area centre")

# The user area is scanned by four positioner tables in a 2x2 arrangement.
# At the default 5 mm resolution each 1250 mm x 1250 mm table gives a
# 251 x 251 grid.
grids = default_positioner_grids()
for slot, grid in enumerate(grids):
    print(f"positioner {slot}: origin ({grid.origin.x:8.1f}, "
          f"{grid.origin.y:8.1f}) mm, {grid.nx} x {grid.ny} = {grid.node_count} nodes")

total = sum(g.node_count for g in grids)
print(f"total labelled positions over the four tables: {total}")

# Serpentine traversal visits every node once while reversing direction on
# alternate rows; the orders diverge where the second row begins.
from mamimo import SampleGrid, Position3, Traversal

tiny = SampleGrid(origin=Position3(0, 0, 0), x_extent_mm=10, y_extent_mm=10,
                  resolution_mm=5)
raster = grid_positions(tiny, Traversal.RASTER)
serp = grid_positions(tiny, Traversal.SERPENTINE)
print("raster 3x3    :", [(p.x, p.y) for p in raster])
print("serpentine 3x3:", [(p.x, p.y) for p in serp])
