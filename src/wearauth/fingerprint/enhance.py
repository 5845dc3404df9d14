"""Contrast enhancement for ridge images.

Classic chain (Hong, Wan and Jain, IEEE TPAMI 1998): normalize to zero
mean / unit variance, estimate a block orientation field from gradients,
estimate the ridge wavelength per block from the projected signature, then
band-pass each block with an even-symmetric Gabor kernel tuned to its
orientation and wavelength.  The blocks that share a quantized tuning are
filtered by one FFT convolution over the part of the image they depend on,
a window or the whole image, whichever transforms less.  Blocks with no
gradient energy (or no recoverable wavelength anywhere) pass through
unfiltered.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .image import GrayImage

__all__ = [
    "BLOCK_SIZE",
    "normalize",
    "orientation_field",
    "ridge_wavelength",
    "gabor_enhance",
    "enhance",
]

BLOCK_SIZE = 16
_MIN_WAVELENGTH = 3.0
_MAX_WAVELENGTH = 25.0
_N_THETA_BINS = 16


def normalize(img: GrayImage) -> np.ndarray:
    """Zero-mean, unit-variance float image (all zeros for a flat input)."""
    px = img.pixels.astype(np.float64)
    std = px.std()
    if std == 0:
        return np.zeros_like(px)
    return (px - px.mean()) / std


def _block_reduce(arr: np.ndarray) -> np.ndarray:
    block = BLOCK_SIZE
    h, w = arr.shape
    hb, wb = h // block, w // block
    return arr[:hb * block, :wb * block].reshape(hb, block, wb, block).sum(axis=(1, 3))


def orientation_field(norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ridge orientation per block, radians in [0, pi), and a validity mask.

    Invalid blocks have no gradient energy (flat image regions).
    """
    gy, gx = _kernels.sobel_pair(norm)
    gxx = _block_reduce(gx * gx)
    gyy = _block_reduce(gy * gy)
    gxy = _block_reduce(gx * gy)
    # Doubled-angle averaging of the gradient direction.
    vx = gxx - gyy
    vy = 2.0 * gxy
    # 3x3 vector smoothing keeps the field coherent on noisy input.
    vx = _kernels.uniform3_nearest(vx)
    vy = _kernels.uniform3_nearest(vy)
    energy = np.hypot(vx, vy)
    grad_dir = 0.5 * np.arctan2(vy, vx)
    theta = np.mod(grad_dir + np.pi / 2.0, np.pi)   # ridges run normal to the gradient
    valid = energy > 1e-9 * BLOCK_SIZE * BLOCK_SIZE
    return theta, valid


def ridge_wavelength(norm: np.ndarray, theta: np.ndarray,
                     valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant ridge wavelength per block in pixels, with a validity mask.

    Samples an oriented window around each block centre, averages along the
    ridge direction and takes the strongest DFT bin of that signature.  All
    valid blocks are sampled and transformed together.
    """
    block = BLOCK_SIZE
    win_len = 2 * block          # samples across the ridges
    win_width = block            # samples along the ridges
    wavelengths = np.zeros_like(theta)
    ok = np.zeros_like(valid)
    u = np.arange(win_len) - (win_len - 1) / 2.0
    v = np.arange(win_width) - (win_width - 1) / 2.0
    uu, vv = np.meshgrid(u, v, indexing="ij")
    by, bx = np.nonzero(valid)
    if by.size:
        cy = (by * block + block / 2.0 - 0.5)[:, None, None]
        cx = (bx * block + block / 2.0 - 0.5)[:, None, None]
        t = theta[by, bx][:, None, None]
        # u axis: across ridges (normal direction); v axis: along ridges.
        ny, nx = np.sin(t + np.pi / 2.0), np.cos(t + np.pi / 2.0)
        ry, rx = np.sin(t), np.cos(t)
        ys = cy + uu * ny + vv * ry
        xs = cx + uu * nx + vv * rx
        patch = _kernels.bilinear_nearest(norm, ys, xs)
        sig = patch.mean(axis=2)
        sig = sig - sig.mean(axis=1, keepdims=True)
        spectrum = np.abs(np.fft.rfft(sig, axis=1))
        k = np.argmax(spectrum[:, 1:], axis=1) + 1
        lam = win_len / k
        peak = np.take_along_axis(spectrum, k[:, None], axis=1)[:, 0]
        found = ((spectrum.shape[1] > 2) & (_MIN_WAVELENGTH <= lam) & (lam <= _MAX_WAVELENGTH)
                 & (peak > 1e-6))
        wavelengths[by[found], bx[found]] = lam[found]
        ok[by[found], bx[found]] = True
    if ok.any():
        fallback = float(np.median(wavelengths[ok]))
        wavelengths[valid & ~ok] = fallback
        ok = valid.copy()
    return wavelengths, ok


def _gabor_kernel(theta: float, wavelength: float) -> np.ndarray:
    # Tight across-ridge envelope: at one wavelength the envelope is already
    # below 0.4%, so parallel neighbours cannot paint ghost ridges into gaps.
    sigma_across = 0.3 * wavelength
    sigma_along = 0.5 * wavelength
    half = int(np.ceil(2.5 * max(sigma_across, sigma_along)))
    y, x = np.mgrid[-half:half + 1, -half:half + 1].astype(np.float64)
    # Rotate so xr runs across the ridges (gradient direction).
    xr = x * np.cos(theta + np.pi / 2.0) + y * np.sin(theta + np.pi / 2.0)
    yr = -x * np.sin(theta + np.pi / 2.0) + y * np.cos(theta + np.pi / 2.0)
    env = np.exp(-(xr ** 2 / (2.0 * sigma_across ** 2) + yr ** 2 / (2.0 * sigma_along ** 2)))
    kernel = env * np.cos(2.0 * np.pi * xr / wavelength)
    # Remove the residual DC gain so flat regions filter to zero and block
    # seams between filtered and pass-through regions stay invisible.
    return kernel - env * (kernel.sum() / env.sum())


def _transform_shape(shape: tuple[int, int], half: int) -> tuple[int, int]:
    """The FFT shape of a linear convolution of a ``shape`` array with a
    ``2 * half + 1`` square kernel, as ``signal.fftconvolve`` pads it."""
    return tuple(_kernels.next_fast_len(n + 2 * half) for n in shape)


def gabor_enhance(norm: np.ndarray, theta: np.ndarray, wavelengths: np.ndarray,
                  valid: np.ndarray) -> np.ndarray:
    """Oriented band-pass filtering; invalid blocks are copied unfiltered.

    Each (orientation bin, wavelength) group is one FFT convolution over a
    window of the image, cropped as ``signal.fftconvolve(window, kernel,
    "same")`` crops it.  A filtered pixel depends only on the input within
    the kernel's half size ``h`` of it, so the window is the bounding box of
    the group's member blocks, padded by ``h`` and clipped to the image, and
    its transform is ``next_fast_len(window + 2h)`` long on each axis.  A
    window costs three transforms of that size (window, kernel, inverse).
    The whole image costs two (kernel, inverse) and a share of one image
    spectrum, since kernels of one wavelength share a size; such a group is
    composed exactly as ``signal.fftconvolve(norm, kernel, "same")``.  So a
    group whose window transform would reach 2/3 of the whole image's takes
    the whole image.  The inverse's second pass runs only on the rows of the
    group's member blocks, which are written directly.
    """
    block = BLOCK_SIZE
    out = norm.copy()
    if not valid.any():
        return out
    # Quantize per-block tuning so one FFT convolution serves many blocks.
    # Rounding centres the bins on the axis-aligned orientations, which keeps
    # the bin choice stable when the estimate sits numerically at 0 or pi.
    theta_bin = np.rint(theta / np.pi * _N_THETA_BINS).astype(int) % _N_THETA_BINS
    lam_bin = np.clip(np.rint(wavelengths), _MIN_WAVELENGTH, _MAX_WAVELENGTH).astype(int)
    hb, wb = theta.shape
    height, width = norm.shape
    # Block view of the output: out_blocks[by, :, bx, :] is block (by, bx).
    out_blocks = out[:hb * block, :wb * block].reshape(hb, block, wb, block)
    for lam in np.unique(lam_bin[valid]):
        at_lam = valid & (lam_bin == lam)
        bins = np.unique(theta_bin[at_lam])
        kernels = [_gabor_kernel(tb * np.pi / _N_THETA_BINS, float(lam)) for tb in bins]
        half = kernels[0].shape[0] // 2
        whole = _transform_shape(norm.shape, half)
        image_spectrum = None       # the whole image's, made for the first group that takes it
        for tb, kernel in zip(bins, kernels):
            by, bx = np.nonzero(at_lam & (theta_bin == tb))
            band = np.unique(by)         # block rows holding a member of the group
            y0, y1 = band[0] * block, (band[-1] + 1) * block
            x0, x1 = bx.min() * block, (bx.max() + 1) * block
            top, bottom = max(y0 - half, 0), min(y1 + half, height)
            left, right = max(x0 - half, 0), min(x1 + half, width)
            shape = _transform_shape((bottom - top, right - left), half)
            if 3 * shape[0] * shape[1] < 2 * whole[0] * whole[1]:
                spectrum = _kernels.rfft2(norm[top:bottom, left:right], shape)
            else:
                top, left, shape = 0, 0, whole
                if image_spectrum is None:
                    image_spectrum = _kernels.rfft2(norm, whole)
                spectrum = image_spectrum
            # A named operand: numpy would multiply into a temporary in place,
            # which rounds differently from fftconvolve's product.
            kernel_spectrum = _kernels.rfft2(kernel, shape)
            # The "same" crop: window pixel i is sample i + half of the full convolution.
            lines = (band[:, None] * block + np.arange(block)).ravel() - top + half
            filtered = _kernels.irfft2_rows(spectrum * kernel_spectrum, shape, lines)
            cols = x0 - left + half
            filtered = filtered[:, cols:cols + x1 - x0].reshape(band.size, block, -1, block)
            out_blocks[by, :, bx, :] = filtered[np.searchsorted(band, by), :, bx - bx.min(), :]
    return out


def _to_uint8(arr: np.ndarray) -> np.ndarray:
    """Map the zero-mean band-pass response symmetrically onto uint8.

    Zero response lands on 128 exactly, so regions the filter judged flat sit
    at the neutral level instead of reading as faint ridges.
    """
    scale = np.abs(arr).max()
    if scale == 0:
        return np.full(arr.shape, 128, dtype=np.uint8)
    return np.rint(np.clip(128.0 + 127.0 * arr / scale, 0, 255)).astype(np.uint8)


def enhance(img: GrayImage) -> GrayImage:
    """Full enhancement chain; output has the input's dimensions."""
    norm = normalize(img)
    theta, valid = orientation_field(norm)
    wavelengths, freq_ok = ridge_wavelength(norm, theta, valid)
    filtered = gabor_enhance(norm, theta, wavelengths, valid & freq_ok)
    return GrayImage(_to_uint8(filtered))
