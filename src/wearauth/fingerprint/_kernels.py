"""Numpy reproductions of the scipy filters and transforms the extractor uses.

Each function returns what the scipy call named in its docstring returns,
bit for bit, because it performs the same floating-point operations in the
same order.  (The one exception: a transform whose output holds exact zeros
may give some of them the other sign.)  All of them take and return float64
arrays.  The extractor needs only these, and importing ``scipy.ndimage`` and
``scipy.fft`` for them would cost every extracting process ~0.4 s and ~20 MB.
``tests/test_kernels.py`` checks each one against its scipy call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bilinear_nearest",
    "gaussian_reflect",
    "irfft2_rows",
    "next_fast_len",
    "rfft2",
    "sobel_pair",
    "uniform3_nearest",
]

_BILINEAR_CHUNK = 8192   # points per step, so that a step's temporaries stay in cache


def _lines(a: np.ndarray, axis: int, start: int, n: int) -> np.ndarray:
    """``a[start:start + n]`` along ``axis`` of a 2-D array, as a view."""
    return a[start:start + n] if axis == 0 else a[:, start:start + n]


def _correlate_symmetric(x: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """``ndimage.correlate1d(x, weights, axis, mode="reflect")`` for an odd,
    symmetric ``weights``.

    ndimage computes ``out = x[0] * w[c]`` and then, for ``j`` from the
    radius down to 1, ``out += (x[-j] + x[+j]) * w[c - j]``; this does the
    same for all lines at once.  ndimage's "reflect" is numpy's "symmetric"
    padding, repeated as often as a side shorter than the radius needs.
    """
    r = weights.size // 2
    n = x.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    p = np.pad(x, pad, mode="symmetric")
    out = _lines(p, axis, r, n) * weights[r]
    tmp = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(_lines(p, axis, r - j, n), _lines(p, axis, r + j, n), out=tmp)
        tmp *= weights[r - j]
        out += tmp
    return out


def gaussian_reflect(x: np.ndarray, sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter(x, sigma, mode="reflect")`` of a 2-D array.

    Radius ``int(4 * sigma + 0.5)``; weights ``exp(-0.5 / sigma**2 * t**2)``
    over their sum, reversed, as ndimage builds them; axis 0, then axis 1.
    """
    radius = int(4.0 * sigma + 0.5)
    t = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * t ** 2)
    weights = (weights / weights.sum())[::-1]
    return _correlate_symmetric(_correlate_symmetric(x, weights, 0), weights, 1)


def sobel_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ndimage.sobel(x, axis=0), ndimage.sobel(x, axis=1))``, mode "reflect".

    Each is ``[-1, 0, 1]`` along its axis, in ndimage's antisymmetric form
    ``x[0] * 0 + (x[-1] - x[+1]) * -1``, then ``[1, 2, 1]`` along the other,
    ``x[0] * 2 + (x[-1] + x[+1]) * 1``.  A radius-1 reflection repeats the
    edge, and filtering along one axis commutes with repeating the other
    axis's edge, so both derivatives read one copy of ``x`` padded by 1.
    """
    p = np.pad(x, 1, mode="symmetric")
    zero = p * 0.0      # the centre tap, kept for the sign of zero results
    h, w = x.shape
    return _sobel_rows(p, zero, h, w), _sobel_rows(p.T, zero.T, w, h).T


def _sobel_rows(p: np.ndarray, zero: np.ndarray, n: int, m: int) -> np.ndarray:
    """The Sobel derivative along axis 0 of the ``(n, m)`` array that ``p``
    holds padded by 1."""
    d = np.subtract(p[:n], p[2:])
    d *= -1.0
    d += zero[1:n + 1]
    out = d[:, 1:m + 1] * 2.0
    out += d[:, :m] + d[:, 2:]
    return out


def uniform3_nearest(x: np.ndarray) -> np.ndarray:
    """``ndimage.uniform_filter(x, size=3, mode="nearest")`` of a 2-D array.

    Along each axis, ndimage keeps a running sum, ``((0 + a0) + a1) + a2``
    at the first output, then ``+= a[i + 2] - a[i - 1]``, and divides each
    sum by 3.  ``np.cumsum`` adds in that same order.
    """
    out = x
    for axis in (0, 1):
        n = out.shape[axis]
        pad = [(0, 0), (0, 0)]
        pad[axis] = (1, 1)
        p = np.pad(out, pad, mode="edge")
        steps = np.empty_like(out)
        _lines(steps, axis, 0, 1)[...] = (
            (0.0 + _lines(p, axis, 0, 1)) + _lines(p, axis, 1, 1)) + _lines(p, axis, 2, 1)
        np.subtract(_lines(p, axis, 3, n - 1), _lines(p, axis, 0, n - 1),
                    out=_lines(steps, axis, 1, n - 1))
        out = np.cumsum(steps, axis=axis)
        out /= 3.0
    return out


def bilinear_nearest(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``ndimage.map_coordinates(img, [ys, xs], order=1, mode="nearest")``.

    ndimage weighs the lower neighbour by ``w0 = 1 - (c - floor(c))`` and the
    upper one by ``w1 = 1 - w0``, clamps only the two indices into the
    image, never the coordinate, and adds the corners y0x0, y0x1, y1x0,
    y1x1, each as ``(v * wy) * wx``, onto ``0.0``.
    """
    h, w = img.shape
    flat = img.reshape(-1)
    out = np.empty(ys.shape)
    out_flat, ys_flat, xs_flat = out.reshape(-1), ys.reshape(-1), xs.reshape(-1)
    for start in range(0, out_flat.size, _BILINEAR_CHUNK):
        part = slice(start, start + _BILINEAR_CHUNK)
        cols = _taps(xs_flat[part], w)
        acc = np.zeros(out_flat[part].shape)
        for row, wy in _taps(ys_flat[part], h):
            row *= w
            for col, wx in cols:
                v = flat[row + col]
                v *= wy
                v *= wx
                acc += v
        out_flat[part] = acc
    return out


def _taps(c: np.ndarray, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (clamped index, weight) of the lower and upper neighbour of each
    coordinate ``c`` on an axis of ``n`` samples."""
    lower = np.floor(c)
    w0 = 1.0 - (c - lower)
    i0 = lower.astype(np.intp)
    i1 = i0 + 1
    np.clip(i0, 0, n - 1, out=i0)
    np.clip(i1, 0, n - 1, out=i1)
    return (i0, w0), (i1, 1.0 - w0)


def next_fast_len(n: int) -> int:
    """``scipy.fft.next_fast_len(n, real=True)``: the least 5-smooth number >= ``n``."""
    while n > 1:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1
    return n


def rfft2(x: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``scipy.fft.rfftn(x, shape)`` of a 2-D array.

    numpy 2 and scipy share pocketfft and transform the axes in the same
    order: the last one real-to-complex, then the first.
    """
    return np.fft.rfftn(x, shape, axes=(0, 1))


def irfft2_rows(spectrum: np.ndarray, shape: tuple[int, int], rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of ``scipy.fft.irfftn(spectrum, shape)`` of a 2-D spectrum.

    numpy's ``irfftn`` runs a complex inverse along axis 0 and then a real
    one along axis 1, each line on its own, so the axis-0 pass runs whole and
    the axis-1 pass only on the rows asked for.  scipy scales once, by
    ``1 / (s0 * s1)``, after the last axis; numpy's default scales each axis
    by its own length, which rounds differently.  So numpy runs unscaled
    (``norm="forward"``) and the one factor follows.
    """
    columns = np.fft.ifft(spectrum, shape[0], axis=0, norm="forward")
    out = np.fft.irfft(columns[rows], shape[1], axis=1, norm="forward")
    out *= 1.0 / (shape[0] * shape[1])
    return out
