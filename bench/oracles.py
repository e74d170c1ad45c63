"""Reference computations the benchmark checks mamimo's outputs against.

Nothing here imports ``mamimo``: each oracle restates the method from its
definition, so a fault in the program cannot hide in a shared helper.

- ``free_space_channel``: the closed-form channel, lambda / (4 pi d) *
  exp(-j 2 pi f d / c) summed over the line-of-sight path and the
  single-bounce paths, on the interleaved pilot plan.
- ``knn_direct``: brute-force k-nearest-neighbour location from direct
  feature differences.
- ``zf_pinv_se``: zero-forcing beams from a pseudo-inverse per subcarrier,
  with the SINR and spectral efficiency of every user.
- ``read_csi1``: a reader of the ``CSI1`` sample container.

The ``check_*`` functions turn a program output and its reference into a
pass/fail verdict at the tolerance the benchmark states.
"""

from __future__ import annotations

import struct

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# The paper's frame structure: 1200 subcarriers at 15 kHz around 2.61 GHz,
# interleaved over 12 users, so each user sounds 100 pilot subcarriers.
CARRIER_HZ = 2.61e9
SPACING_HZ = 15e3
TOTAL_SUBCARRIERS = 1200
INTERLEAVE = 12
PILOTS = TOTAL_SUBCARRIERS // INTERLEAVE

CSI1_HEADER = struct.Struct("<4sBBHHH")

#: The campaign's noisy files must show the requested SNR within this, dB.
SNR_TOLERANCE_DB = 0.5
#: Largest cross-user to own-beam power ratio a ZF group may show.
ZF_LEAKAGE_BOUND = 1e-10
#: Relative tolerance of per-user spectral efficiency against the oracle.
SE_RTOL = 1e-9
#: Absolute tolerance of a kNN estimate against the oracle, millimetres.
KNN_ATOL_MM = 1e-9


def ura_elements(rows: int = 8, cols: int = 8, spacing_mm: float = 70.0,
                 height_mm: float = 1000.0) -> np.ndarray:
    """Element centres (M, 3) of the rectangular panel in the plane y = 0.

    Row-major from the bottom row, left to right, centred on x = 0.
    """
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing_mm
    zs = height_mm + (np.arange(rows) - (rows - 1) / 2.0) * spacing_mm
    return np.array([[x, 0.0, z] for z in zs for x in xs])


def pilot_frequencies(user_id: int) -> np.ndarray:
    """Frequencies (Hz) of user ``user_id``'s pilots: slots u, u+12, u+24, ..."""
    slots = INTERLEAVE * np.arange(PILOTS) + user_id - TOTAL_SUBCARRIERS / 2.0
    return CARRIER_HZ + slots * SPACING_HZ


def _path(d_m: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """lambda / (4 pi d) exp(-j 2 pi f d / c) for path lengths d_m (..., M)."""
    wavelength = SPEED_OF_LIGHT / freqs
    d = d_m[..., None]
    return wavelength / (4.0 * np.pi * d) * np.exp(-2j * np.pi * freqs * d / SPEED_OF_LIGHT)


def free_space_channel(elements_mm: np.ndarray, users_mm: np.ndarray, user_id: int,
                       scatterers=()) -> np.ndarray:
    """Closed-form channel (N, M, F) from every element to every user.

    ``users_mm`` is (N, 3); ``scatterers`` is a sequence of
    ((x, y, z) in mm, complex reflection). A scatterer adds the detour
    element -> scatterer -> user with its reflection coefficient.
    """
    users = np.atleast_2d(np.asarray(users_mm, dtype=np.float64))
    freqs = pilot_frequencies(user_id)
    d_los = np.linalg.norm(users[:, None, :] - elements_mm[None, :, :], axis=2) / 1000.0
    h = _path(d_los, freqs)
    for position, gamma in scatterers:
        s = np.asarray(position, dtype=np.float64)
        d1 = np.linalg.norm(s[None, :] - elements_mm, axis=1) / 1000.0  # (M,)
        d2 = np.linalg.norm(users - s[None, :], axis=1) / 1000.0  # (N,)
        h = h + gamma * _path(d1[None, :] + d2[:, None], freqs)
    return h


def read_csi1(path) -> np.ndarray:
    """Read a ``CSI1`` sample file into an (M, F) complex128 matrix."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, _, m, f, _ = CSI1_HEADER.unpack_from(data)
    if magic != b"CSI1" or version != 1:
        raise ValueError(f"{path}: not a CSI1 v1 file")
    if len(data) != CSI1_HEADER.size + 8 * m * f:
        raise ValueError(f"{path}: {len(data)} bytes for a {m}x{f} sample")
    iq = np.frombuffer(data, dtype="<f4", offset=CSI1_HEADER.size).reshape(m, f, 2)
    return iq[:, :, 0].astype(np.float64) + 1j * iq[:, :, 1].astype(np.float64)


def measured_snr_db(h_measured: np.ndarray, h_clean: np.ndarray) -> float:
    """SNR of a noisy snapshot against its noiseless reference, dB."""
    signal = np.mean(np.abs(h_clean) ** 2)
    noise = np.mean(np.abs(h_measured - h_clean) ** 2)
    return float(10.0 * np.log10(signal / noise))


def check_sample_snr(h_measured: np.ndarray, h_clean: np.ndarray, snr_db: float) -> bool:
    """The file's CSI, taken against the channel at its label, shows the SNR."""
    if h_measured.shape != h_clean.shape:
        return False
    return abs(measured_snr_db(h_measured, h_clean) - snr_db) <= SNR_TOLERANCE_DB


def features(h: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of all entries, over the Frobenius norm.

    ``h`` is (M, F) or a stack (N, M, F); the result is (2 M F,) or (N, 2 M F).
    """
    flat = h.reshape(-1, h.shape[-2] * h.shape[-1])
    x = np.concatenate([flat.real, flat.imag], axis=1)
    x = x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    return x[0] if h.ndim == 2 else x


def direct_distances(db_chunks, vectors: np.ndarray) -> np.ndarray:
    """Euclidean distances (B, N) from each row of ``vectors`` to every row
    of the database, given as an iterable of (n_i, D) chunks, from the
    plain difference (no expanded Gram form)."""
    vectors = np.atleast_2d(vectors)
    parts = []
    for chunk in db_chunks:
        block = np.empty((vectors.shape[0], chunk.shape[0]))
        for b, v in enumerate(vectors):
            diff = chunk - v[None, :]
            block[b] = np.sqrt(np.einsum("nd,nd->n", diff, diff))
        parts.append(block)
    return np.concatenate(parts, axis=1)


def knn_direct(distances: np.ndarray, labels_mm: np.ndarray, k: int,
               exclude: int | None = None) -> np.ndarray:
    """Inverse-distance weighted mean of the k nearest labels.

    ``distances`` is (N,); ties go to the lower database index; ``exclude``
    drops one row (leave-one-out). The weight is 1 / (d + 1e-12).
    """
    d = np.array(distances, dtype=np.float64)
    if exclude is not None:
        d[exclude] = np.inf
    nearest = np.argsort(d, kind="stable")[:k]
    w = 1.0 / (d[nearest] + 1e-12)
    return (labels_mm[nearest] * w[:, None]).sum(axis=0) / w.sum()


def check_estimate(estimate_mm, expected_mm, atol_mm: float = KNN_ATOL_MM) -> bool:
    """A position estimate agrees with the oracle's within ``atol_mm``."""
    gap = np.linalg.norm(np.asarray(estimate_mm, float) - np.asarray(expected_mm, float))
    return bool(gap <= atol_mm)


def zf_pinv_weights(H: np.ndarray) -> np.ndarray:
    """Unit-norm ZF beams (K, M, F): columns of pinv(H_f), normalized."""
    K, M, F = H.shape
    W = np.empty((K, M, F), dtype=np.complex128)
    for f in range(F):
        Wf = np.linalg.pinv(H[:, :, f])  # (M, K)
        W[:, :, f] = (Wf / np.linalg.norm(Wf, axis=0, keepdims=True)).T
    return W


def group_se(H: np.ndarray, W: np.ndarray, total_power: float, noise_power: float) -> np.ndarray:
    """Per-user spectral efficiency (K,) with an equal power split.

    SINR_k,f = P |h_k,f^T w_k,f|^2 / (noise + sum_{j != k} P |h_k,f^T w_j,f|^2)
    """
    K = H.shape[0]
    p = total_power / K
    se = np.empty(K)
    for k in range(K):
        gains = p * np.abs(np.einsum("mf,jmf->jf", H[k], W)) ** 2  # (K, F)
        interference = gains.sum(axis=0) - gains[k]
        se[k] = np.mean(np.log2(1.0 + gains[k] / (noise_power + interference)))
    return se


def zf_pinv_se(H: np.ndarray, total_power: float, noise_power: float) -> np.ndarray:
    """Per-user spectral efficiency of a ZF group with pseudo-inverse beams."""
    return group_se(H, zf_pinv_weights(H), total_power, noise_power)


def zf_leakage(H: np.ndarray, W: np.ndarray) -> float:
    """Largest |h_k^T w_j|^2 / |h_k^T w_k|^2 over users k != j and subcarriers."""
    K = H.shape[0]
    power = np.abs(np.einsum("kmf,jmf->kjf", H, W)) ** 2
    own = power[np.arange(K), np.arange(K)]  # (K, F)
    off = power / own[:, None, :]
    off[np.arange(K), np.arange(K)] = 0.0
    return float(off.max())


def check_zf_group(H: np.ndarray, W: np.ndarray, se_program: np.ndarray,
                   total_power: float, noise_power: float) -> bool:
    """A ZF group nulls its cross-user leakage and matches the oracle SE."""
    if zf_leakage(H, W) > ZF_LEAKAGE_BOUND:
        return False
    expected = zf_pinv_se(H, total_power, noise_power)
    return bool(np.allclose(se_program, expected, rtol=SE_RTOL, atol=0.0))
