"""Synthetic CSI generation: free-space line-of-sight, optional single-bounce
scatterers and reproducible complex Gaussian noise.

The channel convention is the narrowband free-space field factor per
element and pilot subcarrier,

    h[m, k] = g_m * (lambda_k / (4 pi d_m)) * exp(-j 2 pi f_k d_m / c)

with d_m the element-to-user distance in metres and g_m an optional
cosine-power element pattern. Transmit power is *not* baked into h; it is
applied by the link-budget stage, so |h| depends only on geometry and
wavelength. Every function is pure; noise randomness is confined to the
seed carried by NoiseSpec.

Seed rule: every producer of samples makes them through
:func:`synthesize_sample`, whose noise generator is
``np.random.default_rng((seed, stream, key))`` -- the run seed, the
producer's ``STREAM_*`` constant and the sample id's six ASCII bytes read
as a big-endian integer. So no two seeds, producers or samples share a
noise draw, and a rerun reproduces every sample bit for bit. Campaign
positioner jitter uses ``STREAM_JITTER`` with the table index as key, and
the CLI's random user grouping uses ``(seed, STREAM_GROUPING)``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import ArrayGeometry, CsiSample, Position3, RadioConfig

SPEED_OF_LIGHT = 299_792_458.0  # m/s

MM_PER_M = 1000.0

# noise streams, one per producer of samples (see the module docstring)
STREAM_GRID = 1
STREAM_QUERY = 2
STREAM_TARGET = 3
STREAM_POOL = 4
STREAM_CAPTURE = 5
STREAM_JITTER = 6
STREAM_GROUPING = 7


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """Propagation knobs for the synthetic generator.

    ``pattern_exponent`` q shapes the element directivity as max(0, cos
    theta)^q relative to the facing vector; q = 0 is isotropic. When
    ``include_los`` is False only scattered paths contribute, which gives an
    nLoS-like channel from the same scatterer list.
    """

    pattern_exponent: float = 0.0
    include_los: bool = True

    def __post_init__(self):
        if self.pattern_exponent < 0:
            raise ValueError("pattern_exponent must be nonnegative")


@dataclass(frozen=True, slots=True)
class Scatterer:
    """A single-bounce reflector with complex reflection coefficient."""

    position: Position3
    reflection: complex

    def __post_init__(self):
        if abs(self.reflection) > 1.0 + 1e-12:
            raise ValueError("reflection coefficient magnitude must be <= 1")


@dataclass(frozen=True, slots=True)
class NoiseSpec:
    """Additive-noise request: SNR relative to the sample's own mean power.

    ``snr_db = math.inf`` disables noise. A fixed seed, an int or a tuple
    of ints as ``np.random.default_rng`` takes it, makes the noise
    realisation reproducible.
    """

    snr_db: float
    seed: int | tuple[int, ...] = 0


def pilot_frequencies(radio: RadioConfig, user_id: int) -> np.ndarray:
    """Absolute frequencies (Hz) of one user's interleaved pilot subcarriers.

    User u occupies subcarrier slots u, u+12, u+24, ... of the 1200-slot
    band centred on the carrier, i.e.

        f_k = carrier + (interleave * k + u - total/2) * spacing,  k = 0..99

    so the 12 users partition the band with no overlap and one user's
    adjacent pilots are 12 subcarrier spacings apart.
    """
    if not 0 <= user_id < radio.interleave_factor:
        raise ValueError(f"user_id must be in [0, {radio.interleave_factor}), got {user_id}")
    k = np.arange(radio.pilot_count)
    offsets = radio.interleave_factor * k + user_id - radio.total_subcarriers / 2.0
    return radio.carrier_hz + offsets * radio.subcarrier_spacing_hz


def _path_matrix(d_m: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Free-space factor (lambda / 4 pi d) exp(-j 2 pi f d / c) for all paths."""
    lam = SPEED_OF_LIGHT / freqs  # (F,)
    amp = lam[None, :] / (4.0 * np.pi * d_m[:, None])
    phase = -2.0 * np.pi * freqs[None, :] * d_m[:, None] / SPEED_OF_LIGHT
    return amp * np.exp(1j * phase)


def _field(geom: ArrayGeometry, user: Position3, freqs: np.ndarray, q: float,
           include_los: bool, scatterers) -> np.ndarray:
    """LoS (optional, with pattern gain) plus one single-bounce path per scatterer."""
    if include_los:
        delta_mm = user.as_array()[None, :] - geom.positions_mm  # (M, 3)
        d_m = np.linalg.norm(delta_mm, axis=1) / MM_PER_M
        if np.any(d_m == 0.0):
            raise ValueError("user position coincides with an array element")
        h = _path_matrix(d_m, freqs)
        if q != 0.0:
            cos_theta = np.einsum("mi,mi->m", delta_mm, geom.facings) / (d_m * MM_PER_M)
            h = (np.maximum(cos_theta, 0.0) ** q)[:, None] * h
    else:
        h = np.zeros((geom.n_elements, freqs.size), dtype=np.complex128)
    user_arr = user.as_array()
    for sc in scatterers:
        sc_arr = sc.position.as_array()
        d1 = np.linalg.norm(sc_arr[None, :] - geom.positions_mm, axis=1) / MM_PER_M
        d2 = float(np.linalg.norm(user_arr - sc_arr)) / MM_PER_M
        if d2 == 0.0 or np.any(d1 == 0.0):
            raise ValueError("scatterer coincides with an array element or the user")
        h = h + sc.reflection * _path_matrix(d1 + d2, freqs)
    return h


def los_channel(geom: ArrayGeometry, user: Position3, radio: RadioConfig,
                cfg: ChannelConfig = ChannelConfig(), user_id: int = 0,
                sample_id: str = "000000") -> CsiSample:
    """Line-of-sight channel from every element to one user position.

    The returned sample carries the user position as its label. Magnitude
    follows the 1/d law exactly, so doubling the distance halves |h|.
    """
    h = _field(geom, user, pilot_frequencies(radio, user_id), cfg.pattern_exponent, True, ())
    return CsiSample(h, label=user, user_id=user_id, sample_id=sample_id)


def multipath_channel(geom: ArrayGeometry, user: Position3, radio: RadioConfig,
                      cfg: ChannelConfig, scatterers, user_id: int = 0,
                      sample_id: str = "000000") -> CsiSample:
    """Line-of-sight plus one single-bounce path per scatterer.

    Each scatterer adds Gamma * (lambda / 4 pi (d1+d2)) * exp(-j 2 pi f
    (d1+d2) / c) over the element -> scatterer -> user detour. Contributions
    superpose linearly, so an empty list reproduces the LoS channel exactly.
    """
    h = _field(geom, user, pilot_frequencies(radio, user_id), cfg.pattern_exponent,
               cfg.include_los, scatterers)
    return CsiSample(h, label=user, user_id=user_id, sample_id=sample_id)


def synthesize_sample(geom: ArrayGeometry, user: Position3, radio: RadioConfig,
                      cfg: ChannelConfig = ChannelConfig(), scatterers=(), *,
                      snr_db: float, seed: int, stream: int, user_id: int = 0,
                      sample_id: str = "000000") -> CsiSample:
    """Sample ``sample_id`` of a producer's run: the multipath channel (an
    empty scatterer list is plain LoS), then noise seeded by the seed rule."""
    sample = multipath_channel(geom, user, radio, cfg, scatterers,
                               user_id=user_id, sample_id=sample_id)
    key = int.from_bytes(sample_id.encode("ascii"), "big")
    return add_noise(sample, NoiseSpec(snr_db, (seed, stream, key)))


def add_noise(csi: CsiSample, spec: NoiseSpec) -> CsiSample:
    """Add circularly symmetric complex Gaussian noise at the requested SNR.

    The per-entry noise variance is the sample's mean entry power scaled by
    10^(-snr/10), so the SNR is relative to the sample itself. Infinite SNR
    returns the input unchanged.
    """
    if math.isinf(spec.snr_db) and spec.snr_db > 0:
        return csi
    mean_power = float(np.mean(np.abs(csi.h) ** 2))
    sigma2 = mean_power * 10.0 ** (-spec.snr_db / 10.0)
    rng = np.random.default_rng(spec.seed)
    shape = csi.h.shape
    noise = math.sqrt(sigma2 / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return CsiSample(csi.h + noise, label=csi.label, user_id=csi.user_id,
                     sample_id=csi.sample_id)


def load_scatterers(path) -> list[Scatterer]:
    """Read a scatterer list CSV: ``x_mm,y_mm,z_mm,gamma_re,gamma_im``."""
    scatterers = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip() == "x_mm":  # optional header
                continue
            if len(row) != 5:
                raise ValueError(f"line {lineno}: expected 5 columns, got {len(row)}")
            x, y, z, gre, gim = (float(v) for v in row)
            scatterers.append(Scatterer(Position3(x, y, z), complex(gre, gim)))
    return scatterers


def save_scatterers(scatterers, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_mm", "y_mm", "z_mm", "gamma_re", "gamma_im"])
        for sc in scatterers:
            writer.writerow([repr(sc.position.x), repr(sc.position.y), repr(sc.position.z),
                             repr(sc.reflection.real), repr(sc.reflection.imag)])

