"""
Beamforming power maps
======================

Beamform towards one user with maximum-ratio weights and evaluate the
received power over the whole user area, for each topology, on a shared
colour scale.
"""

from mamimo import (
    Position3,
    RadioConfig,
    SampleGrid,
    build_topology,
    los_channel,
    normalize_power_maps,
    power_map,
)
from mamimo.dsp import power_map_to_csv, power_map_to_pgm
from mamimo.geometry import grid_positions

radio = RadioConfig()

# One coarse 51 x 51 grid over a positioner table and a target inside it.
grid = SampleGrid(origin=Position3(-625.0, 1000.0, 1000.0),
                  x_extent_mm=1250.0, y_extent_mm=1250.0, resolution_mm=25.0)
target_pos = Position3(0.0, 1600.0, 1000.0)

# Maps for all three deployments. Weights come from the target's channel
# only; every node of the grid is then evaluated against those weights.
raw_maps = {}
for name in ("ura", "ula", "da"):
    topology = build_topology(name)
    target = los_channel(topology, target_pos, radio)
    field = (los_channel(topology, p, radio) for p in grid_positions(grid))
    raw_maps[name] = power_map(grid, field, target)

# Normalising over a shared set makes the topologies comparable: the
# strongest node across all three maps becomes 1.
shared = normalize_power_maps(list(raw_maps.values()))
for name, pmap in zip(raw_maps, shared):
    iy, ix = pmap.argmax_node()
    peak = pmap.node_position(iy, ix)
    print(f"{name}: peak {pmap.values.max():.3f} at node ({iy:2d},{ix:2d}) "
          f"= ({peak.x:7.1f}, {peak.y:7.1f}) mm")

# The surrounding octagon focuses in both dimensions, so its peak sits at
# the target; the panel and the line can only steer in angle, so their
# energy rides the 1/d^2 slope toward the array along the beam direction.

# Export: 16-bit grayscale PGM over a -40..0 dB range plus a CSV table.
for name, pmap in zip(raw_maps, shared):
    power_map_to_pgm(pmap, f"map_{name}.pgm", db_range=(-40.0, 0.0))
    power_map_to_csv(pmap, f"map_{name}.csv")
    print(f"wrote map_{name}.pgm / map_{name}.csv")
