"""Whole-image thinning loop, kept as the oracle for ``fingerprint.thin``.

This is the former ``thin``, unchanged: every pass of both subiterations
tests every pixel.  ``thin`` re-tests only the neighbours of recent
removals once they are few; the property tests check that both return the
very same skeleton.
"""

from __future__ import annotations

import numpy as np

from wearauth.fingerprint.thinning import _REMOVABLE, _RING


def _thin_pass(img: np.ndarray, subiteration: int) -> np.ndarray:
    padded = np.pad(img, 1)
    h, w = img.shape
    code = np.zeros((h, w), dtype=np.uint8)
    for bit, (dy, dx) in enumerate(_RING):
        code |= padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] << bit
    return img & ~_REMOVABLE[subiteration][code]


def reference_thin(bits: np.ndarray) -> np.ndarray:
    """One-pixel-wide 8-connected skeleton, every pixel tested on every pass."""
    img = bits.astype(np.uint8)
    while True:
        before = img
        img = _thin_pass(img, 0)
        img = _thin_pass(img, 1)
        if np.array_equal(img, before):
            break
    return img.astype(bool)
