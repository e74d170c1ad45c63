"""Core domain types shared by every stage of the toolkit.

All positions are expressed in millimetres in a single lab-local frame:
the x/y origin sits below the centre of the rectangular base-station array,
y grows towards the user area and z is height above the floor. Every type
here is an immutable value after construction and safe to share between
threads.
"""

from __future__ import annotations

import enum
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

#: Number of orthogonal uplink pilots the frame structure provides.
MAX_USERS = 12

#: Filename / trigger-payload charset, six characters exactly. Test ids with
#: ``fullmatch``: ``match`` with a ``$`` anchor also accepts a trailing newline.
SAMPLE_ID_PATTERN = re.compile(r"[0-9A-Za-z_-]{6}")


class TopologyKind(enum.Enum):
    """Base-station antenna deployment."""

    URA = "ura"  # 8x8 rectangular panel in front of the user area
    ULA = "ula"  # 64 elements on a line in front of the user area
    DA = "da"    # 8 sub-arrays of 8 on an octagon around the user area


class Traversal(enum.Enum):
    """Order in which grid nodes are visited."""

    RASTER = "raster"          # every row left to right
    SERPENTINE = "serpentine"  # alternate row direction, minimises travel


@dataclass(frozen=True, slots=True)
class Position3:
    """A point in the local frame, millimetres."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"position must be finite, got ({self.x}, {self.y}, {self.z})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def distance_mm(self, other: "Position3") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


class Positions(Sequence):
    """Position3 items over one locked (N, 3) float64 array ``xyz``: an int index
    gives a Position3 of Python floats, a slice a view, and equality holds item
    by item with any sequence of Position3. Like FingerprintDb it takes
    ownership: a C-contiguous float64 array is kept, not copied, and locked."""

    def __init__(self, points):
        if not isinstance(points, np.ndarray):
            points = np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64).reshape(-1, 3)
        xyz = np.ascontiguousarray(points, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3 or not np.isfinite(xyz).all():
            raise ValueError(f"positions must be a finite (N, 3) array, got shape {xyz.shape}")
        xyz.flags.writeable = False
        self.xyz = xyz

    def __len__(self):
        return self.xyz.shape[0]

    def __getitem__(self, i):
        return Positions(self.xyz[i]) if isinstance(i, slice) else Position3(*self.xyz[i].tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True, slots=True)
class RadioConfig:
    """Frame-structure and RF parameters of the base station.

    Defaults match an LTE-like TDD setup: 15 kHz subcarriers, 1200 usable
    subcarriers of which each of the 12 users sounds every 12th one, giving
    100 pilot subcarriers per user.
    """

    carrier_hz: float = 2.61e9
    subcarrier_spacing_hz: float = 15e3
    total_subcarriers: int = 1200
    pilot_count: int = 100
    interleave_factor: int = 12

    def __post_init__(self):
        for name in (
            "carrier_hz",
            "subcarrier_spacing_hz",
            "total_subcarriers",
            "pilot_count",
            "interleave_factor",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pilot_count * self.interleave_factor != self.total_subcarriers:
            raise ValueError(
                "pilot_count * interleave_factor must equal total_subcarriers "
                f"({self.pilot_count} * {self.interleave_factor} != {self.total_subcarriers})"
            )


class ArrayGeometry:
    """Positions of the base-station elements, isotropic radiators.

    ``positions_mm`` is (n, 3). Element order is part of the contract:
    rebuilding the same topology yields bit-identical coordinates in the
    same order.
    """

    def __init__(self, kind: TopologyKind, positions_mm):
        # a private copy: locking it must not freeze a caller-owned array
        positions_mm = np.array(positions_mm, dtype=np.float64, order="C")
        if positions_mm.ndim != 2 or positions_mm.shape[1] != 3:
            raise ValueError("positions_mm must have shape (n, 3)")
        if not np.all(np.isfinite(positions_mm)):
            raise ValueError("geometry must be finite")
        positions_mm.flags.writeable = False
        self.kind = kind
        self.positions_mm = positions_mm

    @property
    def n_elements(self) -> int:
        return self.positions_mm.shape[0]

    def __repr__(self):
        return f"ArrayGeometry(kind={self.kind.value}, n_elements={self.n_elements})"


class CsiSample:
    """One channel snapshot: an M x F complex matrix with metadata.

    ``h[m, k]`` is the complex gain between base-station antenna ``m`` and
    the user, on the user's k-th pilot subcarrier. The matrix is locked
    read-only after construction.
    """

    def __init__(self, h, label: Position3 | None = None, user_id: int = 0,
                 sample_id: str = "000000"):
        h = np.array(h, dtype=np.complex128, order="C")  # private copy, locked below
        if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
            raise ValueError("channel matrix must be 2-D with at least one entry")
        if not np.isfinite(h.view(np.float64)).all():  # both parts; cheaper than complex isfinite
            raise ValueError("channel matrix must be finite")
        if not 0 <= user_id < MAX_USERS:
            raise ValueError(f"user_id must be in [0, {MAX_USERS}), got {user_id}")
        if not SAMPLE_ID_PATTERN.fullmatch(sample_id):
            raise ValueError(f"sample_id must be 6 chars of [0-9A-Za-z_-], got {sample_id!r}")
        h.flags.writeable = False
        self.h = h
        self.label = label
        self.user_id = int(user_id)
        self.sample_id = sample_id

    @property
    def n_antennas(self) -> int:
        return self.h.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.h.shape[1]

    def __repr__(self):
        return (
            f"CsiSample(id={self.sample_id!r}, user={self.user_id}, "
            f"shape={self.n_antennas}x{self.n_subcarriers}, label={self.label})"
        )


@dataclass(frozen=True, slots=True)
class SampleGrid:
    """The rectangular work area of one xy-positioner.

    Nodes lie every ``resolution_mm`` along each axis starting at ``origin``;
    the node count per axis is floor(extent / resolution) + 1, so the default
    1250 mm extent at 5 mm resolution gives 251 nodes per axis. An extent
    the floor would cut one node short, as 250 mm at 0.1 mm, is refused.
    """

    origin: Position3 = field(default_factory=lambda: Position3(0.0, 0.0, 0.0))
    x_extent_mm: float = 1250.0
    y_extent_mm: float = 1250.0
    resolution_mm: float = 5.0
    positioner_id: int = 0

    def __post_init__(self):
        if not (0 <= self.x_extent_mm < math.inf and 0 <= self.y_extent_mm < math.inf):
            raise ValueError("extents must be finite and nonnegative")
        if not 0 < self.resolution_mm < math.inf:
            raise ValueError(f"resolution must be finite and positive, got {self.resolution_mm}")
        if not 0 <= self.positioner_id < 4:
            raise ValueError("positioner_id must be in [0, 4)")
        for extent in (self.x_extent_mm, self.y_extent_mm):
            q = extent / self.resolution_mm
            if extent // self.resolution_mm < round(q) and math.isclose(q, round(q), rel_tol=1e-9):
                raise ValueError(f"extent {extent} mm at {self.resolution_mm} mm drops its last node")

    @property
    def nx(self) -> int:
        return int(self.x_extent_mm // self.resolution_mm) + 1

    @property
    def ny(self) -> int:
        return int(self.y_extent_mm // self.resolution_mm) + 1

    @property
    def node_count(self) -> int:
        return self.nx * self.ny
