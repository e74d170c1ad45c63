"""Array topology construction and positioner grids.

Three 64-element deployments are supported: a rectangular 8x8 panel (URA),
a 64-element line (ULA), both placed in the array plane y = 0 with the
user area in +y, and a distributed deployment (DA) of eight 8-element
sub-arrays on an octagon around the user area.

Distances between element centres are 70 mm and the array height is 1000 mm
above the floor. The user area ("ROI") is the square covered by the four
positioner tables; it starts at a configurable standoff from the array
plane, the one offset every command can set. A grid's nodes are one array.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ArrayGeometry, Position3, Positions, SampleGrid, TopologyKind, Traversal

SPACING_MM = 70.0
URA_SIDE = 8
DEFAULT_HEIGHT_MM = 1000.0
DEFAULT_STANDOFF_MM = 1000.0
OCTAGON_RADIUS_MM = 2500.0
ULA_ELEMENTS = 64
DA_SUBARRAYS = 8
DA_SUBARRAY_ELEMENTS = 8


def roi_center(standoff_mm: float = DEFAULT_STANDOFF_MM) -> Position3:
    """Centre of the user area: the 2505 mm square of all four positioner tables."""
    return Position3(0.0, standoff_mm + 2505.0 / 2.0, DEFAULT_HEIGHT_MM)


def build_topology(kind: TopologyKind | str,
                   standoff_mm: float = DEFAULT_STANDOFF_MM) -> ArrayGeometry:
    """Construct the element layout of one of the supported deployments.

    URA: ``URA_SIDE`` x ``URA_SIDE`` panel in the x/z plane, centred on x = 0 at the
    array height. Element order is row-major from the bottom row, left
    to right.

    ULA: 64 colinear elements along x, centred on x = 0; the span between
    first and last element centres is 63 * 70 mm = 4410 mm (adding one
    element-width footprint gives the often-quoted 4480 mm).

    DA: eight short lines of eight elements placed at the vertices of an
    octagon of radius 2500 mm around the user-area centre, each tangential
    to the octagon.
    """
    kind = TopologyKind(kind)

    if kind is TopologyKind.URA:
        offsets = (np.arange(URA_SIDE) - (URA_SIDE - 1) / 2.0) * SPACING_MM
        return ArrayGeometry([[x, 0.0, DEFAULT_HEIGHT_MM + z]
                              for z in offsets for x in offsets])

    if kind is TopologyKind.ULA:
        n = ULA_ELEMENTS
        xs = (np.arange(n) - (n - 1) / 2.0) * SPACING_MM
        positions = np.column_stack([xs, np.zeros(n), np.full(n, DEFAULT_HEIGHT_MM)])
        return ArrayGeometry(positions)

    # DA, the one kind left
    center = roi_center(standoff_mm=standoff_mm)
    positions = []
    for vertex in range(DA_SUBARRAYS):
        theta = 2.0 * math.pi * vertex / DA_SUBARRAYS
        vx = center.x + OCTAGON_RADIUS_MM * math.cos(theta)
        vy = center.y + OCTAGON_RADIUS_MM * math.sin(theta)
        # tangential direction along which the sub-array line extends
        tx, ty = -math.sin(theta), math.cos(theta)
        offsets = (np.arange(DA_SUBARRAY_ELEMENTS) - (DA_SUBARRAY_ELEMENTS - 1) / 2.0) * SPACING_MM
        for off in offsets:
            positions.append([vx + off * tx, vy + off * ty, DEFAULT_HEIGHT_MM])
    return ArrayGeometry(positions)


def grid_positions(grid: SampleGrid, order: Traversal = Traversal.RASTER) -> Positions:
    """Every node of a positioner grid exactly once, as one locked (N, 3) array.

    Rows run along x at fixed y; serpentine order reverses the x direction
    on every other row. A node is origin + index * resolution, one multiply
    then one add per coordinate, as the scalar closed form rounds it.
    Degenerate extents collapse to a single point.
    """
    o, res = grid.origin, grid.resolution_mm
    xs = o.x + np.arange(grid.nx) * res
    xyz = np.empty((grid.ny, grid.nx, 3))
    xyz[..., 0], xyz[..., 1], xyz[..., 2] = xs, (o.y + np.arange(grid.ny) * res)[:, None], o.z
    if order is Traversal.SERPENTINE:
        xyz[1::2, :, 0] = xs[::-1]
    return Positions(xyz.reshape(-1, 3))


def default_positioner_grids(standoff_mm: float = DEFAULT_STANDOFF_MM,
                             extent_mm: float = 1250.0,
                             resolution_mm: float = 5.0) -> list[SampleGrid]:
    """The four positioner tables in their 2x2 arrangement.

    Adjacent tables are separated by one grid step so that the four node
    sets never share a coordinate and the combined campaign covers
    4 * 63,001 distinct positions at defaults.
    """
    pitch = extent_mm + resolution_mm
    x0 = -(extent_mm + resolution_mm / 2.0)  # symmetric about x = 0
    grids = []
    for col, row in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        origin = Position3(x0 + col * pitch, standoff_mm + row * pitch, DEFAULT_HEIGHT_MM)
        grids.append(SampleGrid(origin=origin, x_extent_mm=extent_mm, y_extent_mm=extent_mm,
                                resolution_mm=resolution_mm))
    return grids
