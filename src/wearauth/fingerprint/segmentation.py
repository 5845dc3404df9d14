"""Ridge/background segmentation.

Ridges are the darker class on a fingerprint capture, so both methods mark
pixels below their threshold.  A flat image yields an all-background mask.
"""

from __future__ import annotations

import enum

import numpy as np

from ._kernels import gaussian_reflect
from .image import BinaryImage, GrayImage

__all__ = ["BinarizeMethod", "binarize", "otsu_threshold"]

ADAPTIVE_SIGMA = 5.0    # px, Gaussian local-mean scale for the adaptive method
ADAPTIVE_OFFSET = 16.0  # gray levels below the local mean a ridge pixel must sit;
                        # ~12% of the enhanced dynamic range, enough that
                        # band-pass ringing around true gaps stays background


class BinarizeMethod(str, enum.Enum):
    GLOBAL_OTSU = "global_otsu"
    ADAPTIVE_MEAN = "adaptive_mean"


def otsu_threshold(pixels: np.ndarray) -> int:
    """Threshold maximizing the between-class variance of an 8-bit histogram."""
    hist = np.bincount(pixels.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    w1 = total - w0
    cum = np.cumsum(hist * levels)
    mean_total = cum[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = cum / w0
        mu1 = (mean_total - cum) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = -1.0
    return int(np.argmax(between))


def binarize(img: GrayImage, method: BinarizeMethod) -> BinaryImage:
    """Mark the darker (ridge) class; deterministic for a given method."""
    px = img.pixels
    if method is BinarizeMethod.GLOBAL_OTSU:
        if px.min() == px.max():
            return BinaryImage(np.zeros(px.shape, dtype=bool))
        t = otsu_threshold(px)
        return BinaryImage(px <= t)
    if method is BinarizeMethod.ADAPTIVE_MEAN:
        # A Gaussian window, unlike a boxcar, passes almost none of the ridge
        # frequency, so the reference level does not ripple with the pattern.
        local_mean = gaussian_reflect(px.astype(np.float64), ADAPTIVE_SIGMA)
        # The offset keeps near-flat regions background; without it any
        # arbitrarily faint oscillation would binarize into ridges.
        return BinaryImage(px < local_mean - ADAPTIVE_OFFSET)
    raise ValueError(f"unknown binarize method {method!r}")
