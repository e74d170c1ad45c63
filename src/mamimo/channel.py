"""Synthetic CSI generation: free-space line-of-sight, optional single-bounce
scatterers and reproducible complex Gaussian noise.

The channel convention is the narrowband free-space field factor per
element and pilot subcarrier,

    h[m, k] = (lambda_k / (4 pi d_m)) * exp(-j 2 pi f_k d_m / c)

with d_m the element-to-user distance in metres, for isotropic elements.
One kernel sums every path of a sample. A user's pilots are evenly spaced,
f_k = f_0 + k D, so with B = ceil(sqrt(F)) and k = B a + b the phase factors
as exp(-j 2 pi f_0 d / c) * e_C^a * e_F^b, with e_C = exp(-j 2 pi B D d / c)
and e_F = exp(-j 2 pi D d / c): three ``exp`` calls per path instead of F.
The coarse factors (carrying Gamma / d) and the fine ones are powers built
by repeated products, and one batched matmul of the two sums the paths.
Each of the three phases is rounded once at its full size, so an entry
stays within a few eps * 2 pi f_0 d / c of the exact field plus about A + B
roundings from the products: measured 8e-14 of the peak for users within
3.5 m of the array (scattered paths up to 5 m) and 1.0e-12 at 30-50 m, as
a direct ``exp`` gives.
Transmit power is *not* baked into h; it is applied by the link-budget
stage, so |h| depends only on geometry and wavelength. Every function is
pure; noise randomness is confined to the seed carried by NoiseSpec.

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

    When ``include_los`` is False only scattered paths contribute, which
    gives an nLoS-like channel from the same scatterer list.
    """

    include_los: bool = True


@dataclass(frozen=True, slots=True)
class Scatterer:
    """A single-bounce reflector with complex reflection coefficient."""

    position: Position3
    reflection: complex

    def __post_init__(self):
        if not abs(self.reflection) <= 1.0 + 1e-12:  # also refuses nan and inf
            raise ValueError(f"reflection coefficient must be finite with magnitude <= 1, "
                             f"got {self.reflection}")


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


def _field(geom: ArrayGeometry, user: Position3, radio: RadioConfig, user_id: int,
           include_los: bool, scatterers) -> np.ndarray:
    """Sum over paths p of Gamma_p (lambda_k / 4 pi d_p) exp(-j 2 pi f_k d_p / c):
    LoS (Gamma = 1, optional), then element -> scatterer -> user per scatterer."""
    pts = np.array([user.as_array()] + [sc.position.as_array() for sc in scatterers])
    diff = pts - np.vstack([geom.positions_mm, pts[:1]])[:, None, :]  # rows: elements, then user
    d = np.sqrt((diff * diff).sum(axis=2)) / MM_PER_M
    d, d2 = d[:-1], d[-1, 1:]
    if include_los and not d[:, 0].all():
        raise ValueError("user position coincides with an array element")
    if not (d2.all() and d[:, 1:].all()):
        raise ValueError("scatterer coincides with an array element or the user")
    d[:, 1:] += d2
    first = 0 if include_los else 1
    d = d[:, first:]  # (M, P)
    gains = np.array([1.0] + [sc.reflection for sc in scatterers], dtype=complex)[first:]
    # f_k = f_0 + (n_fine a + b) step: three exp calls per path, e = (e_0, e_C, e_F) at f_0,
    # n_fine step and step, each phase rounded once. The coarse factors (Gamma / d) e_0 e_C^a
    # and the fine ones e_F^b are built side by side by repeated products, one call per power.
    freqs = pilot_frequencies(radio, user_id)
    step = radio.interleave_factor * radio.subcarrier_spacing_hz
    n_fine = math.ceil(math.sqrt(freqs.size))
    k = -2.0 * np.pi / SPEED_OF_LIGHT
    e = np.exp(1j * (np.array([freqs[0], n_fine * step, step])[:, None, None] * d * k))
    powers = np.empty((n_fine, 2) + d.shape, dtype=complex)  # [i, 0] coarse, [i, 1] fine
    powers[0, 0], powers[0, 1] = gains / d * e[0], 1.0
    for i in range(1, n_fine):
        np.multiply(powers[i - 1], e[1:], out=powers[i])
    coarse = powers[:math.ceil(freqs.size / n_fine), 0]  # (A, M, P), A <= n_fine
    h = coarse.transpose(1, 0, 2) @ powers[:, 1].transpose(1, 2, 0)  # (M, A, B)
    h = h.reshape(geom.n_elements, -1)[:, :freqs.size]
    h *= SPEED_OF_LIGHT / (4.0 * np.pi * freqs)
    return h


def los_channel(geom: ArrayGeometry, user: Position3, radio: RadioConfig, user_id: int = 0,
                sample_id: str = "000000") -> CsiSample:
    """Line-of-sight channel from every element to one user position.

    The returned sample carries the user position as its label. Magnitude
    follows the 1/d law exactly, so doubling the distance halves |h|.
    """
    h = _field(geom, user, radio, user_id, True, ())
    return CsiSample(h, label=user, user_id=user_id, sample_id=sample_id)


def multipath_channel(geom: ArrayGeometry, user: Position3, radio: RadioConfig,
                      cfg: ChannelConfig, scatterers, user_id: int = 0,
                      sample_id: str = "000000") -> CsiSample:
    """Line-of-sight plus one single-bounce path per scatterer.

    Each scatterer adds Gamma * (lambda / 4 pi (d1+d2)) * exp(-j 2 pi f
    (d1+d2) / c) over the element -> scatterer -> user detour. Contributions
    superpose linearly, so an empty list reproduces the LoS channel exactly.
    """
    h = _field(geom, user, radio, user_id, cfg.include_los, scatterers)
    return CsiSample(h, label=user, user_id=user_id, sample_id=sample_id)


def synthesize_sample(geom: ArrayGeometry, user: Position3, radio: RadioConfig,
                      scatterers=(), *, snr_db: float, seed: int, stream: int,
                      user_id: int = 0, sample_id: str = "000000") -> CsiSample:
    """Sample ``sample_id`` of a producer's run: the multipath channel (an
    empty scatterer list is plain LoS), then noise seeded by the seed rule."""
    sample = multipath_channel(geom, user, radio, ChannelConfig(), scatterers,
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
    """Read a scatterer list CSV: ``x_mm,y_mm,z_mm,gamma_re,gamma_im``.

    A bad row (wrong column count, a non-numeric or non-finite value, or
    |Gamma| > 1) raises ValueError naming ``path:line``.
    """
    scatterers = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip() == "x_mm":  # optional header
                continue
            try:
                if len(row) != 5:
                    raise ValueError(f"expected 5 columns, got {len(row)}")
                x, y, z, gre, gim = (float(v) for v in row)
                scatterers.append(Scatterer(Position3(x, y, z), complex(gre, gim)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return scatterers

