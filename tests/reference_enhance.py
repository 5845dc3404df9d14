"""Per-block enhancement loops, kept as the oracle for ``fingerprint.enhance``.

These are the original ``ridge_wavelength`` and ``gabor_enhance``, unchanged:
one oriented window, ``map_coordinates`` call and DFT per block, and one
``signal.fftconvolve`` of the whole image per (orientation bin, wavelength)
group.  ``reference_enhance`` composes them into the whole chain.  The
property tests check that the batched ``ridge_wavelength`` returns the very
same arrays.  The windowed ``gabor_enhance`` sums its products in
transforms of other lengths, so it matches ``reference_gabor_enhance`` to
a rounding tolerance, and bit for bit wherever every group takes the whole
image; its uint8 output and the templates matched on every capture and
noise image tested.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage, signal

from wearauth.fingerprint.enhance import (
    _MAX_WAVELENGTH,
    _MIN_WAVELENGTH,
    _N_THETA_BINS,
    BLOCK_SIZE,
    _gabor_kernel,
    _to_uint8,
    normalize,
    orientation_field,
)
from wearauth.fingerprint.image import GrayImage


def reference_ridge_wavelength(norm: np.ndarray, theta: np.ndarray, valid: np.ndarray,
                     block: int = BLOCK_SIZE) -> tuple[np.ndarray, np.ndarray]:
    """Dominant ridge wavelength per block in pixels, with a validity mask.

    Samples an oriented window around each block centre, averages along the
    ridge direction and takes the strongest DFT bin of that signature.
    """
    h, w = norm.shape
    hb, wb = theta.shape
    win_len = 2 * block          # samples across the ridges
    win_width = block            # samples along the ridges
    wavelengths = np.zeros_like(theta)
    ok = np.zeros_like(valid)
    u = np.arange(win_len) - (win_len - 1) / 2.0
    v = np.arange(win_width) - (win_width - 1) / 2.0
    uu, vv = np.meshgrid(u, v, indexing="ij")
    for by in range(hb):
        for bx in range(wb):
            if not valid[by, bx]:
                continue
            cy = by * block + block / 2.0 - 0.5
            cx = bx * block + block / 2.0 - 0.5
            t = theta[by, bx]
            # u axis: across ridges (normal direction); v axis: along ridges.
            ny, nx = np.sin(t + np.pi / 2.0), np.cos(t + np.pi / 2.0)
            ry, rx = np.sin(t), np.cos(t)
            ys = cy + uu * ny + vv * ry
            xs = cx + uu * nx + vv * rx
            patch = ndimage.map_coordinates(norm, [ys, xs], order=1, mode="nearest")
            sig = patch.mean(axis=1)
            sig = sig - sig.mean()
            spectrum = np.abs(np.fft.rfft(sig))
            if spectrum.size <= 2:
                continue
            k = int(np.argmax(spectrum[1:])) + 1
            lam = win_len / k
            if _MIN_WAVELENGTH <= lam <= _MAX_WAVELENGTH and spectrum[k] > 1e-6:
                wavelengths[by, bx] = lam
                ok[by, bx] = True
    if ok.any():
        fallback = float(np.median(wavelengths[ok]))
        wavelengths[valid & ~ok] = fallback
        ok = valid.copy()
    return wavelengths, ok


def reference_gabor_enhance(norm: np.ndarray, theta: np.ndarray, wavelengths: np.ndarray,
                  valid: np.ndarray, block: int = BLOCK_SIZE) -> np.ndarray:
    """Oriented band-pass filtering; invalid blocks are copied unfiltered."""
    out = norm.copy()
    if not valid.any():
        return out
    # Quantize per-block tuning so one FFT convolution serves many blocks.
    # Rounding centres the bins on the axis-aligned orientations, which keeps
    # the bin choice stable when the estimate sits numerically at 0 or pi.
    theta_bin = np.rint(theta / np.pi * _N_THETA_BINS).astype(int) % _N_THETA_BINS
    lam_bin = np.clip(np.rint(wavelengths), _MIN_WAVELENGTH, _MAX_WAVELENGTH).astype(int)
    hb, wb = theta.shape
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for by in range(hb):
        for bx in range(wb):
            if valid[by, bx]:
                groups.setdefault((theta_bin[by, bx], lam_bin[by, bx]), []).append((by, bx))
    for (tb, lam), members in sorted(groups.items()):
        kernel = _gabor_kernel(tb * np.pi / _N_THETA_BINS, float(lam))
        filtered = signal.fftconvolve(norm, kernel, mode="same")
        for by, bx in members:
            ys = slice(by * block, (by + 1) * block)
            xs = slice(bx * block, (bx + 1) * block)
            out[ys, xs] = filtered[ys, xs]
    return out


def reference_enhance(img: GrayImage) -> GrayImage:
    """``fingerprint.enhance`` with the two per-block loops above."""
    norm = normalize(img)
    theta, valid = orientation_field(norm)
    wavelengths, ok = reference_ridge_wavelength(norm, theta, valid)
    return GrayImage(_to_uint8(reference_gabor_enhance(norm, theta, wavelengths, valid & ok)))
