"""Two-subiteration morphological thinning (Zhang-Suen).

Runs to a fixpoint, so the operation is idempotent and only ever removes
pixels.  Known quirk of the algorithm: some 2x2 blobs erode away entirely;
larger components keep a single connected skeleton.
"""

from __future__ import annotations

import numpy as np

from .image import BinaryImage

__all__ = ["thin"]

# Neighbour offsets in ring order N, NE, E, SE, S, SW, W, NW; neighbour i is
# bit i of a pixel's ring code.
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _removal_tables() -> np.ndarray:
    """Zhang-Suen deletion test of both subiterations for all 256 ring codes.

    A ridge pixel is removable when it has 2-6 ridge neighbours, exactly one
    0->1 transition around the ring, and the subiteration's edge condition.
    """
    codes = np.arange(256)
    nb = (codes[None, :] >> np.arange(8)[:, None]) & 1
    n, e, s, w = nb[0], nb[2], nb[4], nb[6]
    count = nb.sum(axis=0)
    transitions = ((nb == 0) & (np.roll(nb, -1, axis=0) == 1)).sum(axis=0)
    shape_ok = (count >= 2) & (count <= 6) & (transitions == 1)
    return np.stack([
        shape_ok & (n * e * s == 0) & (e * s * w == 0),
        shape_ok & (n * e * w == 0) & (n * s * w == 0),
    ])


_REMOVABLE = _removal_tables()


def _thin_pass(img: np.ndarray, subiteration: int) -> np.ndarray:
    padded = np.pad(img, 1)
    h, w = img.shape
    code = np.zeros((h, w), dtype=np.uint8)
    for bit, (dy, dx) in enumerate(_RING):
        code |= padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] << bit
    return img & ~_REMOVABLE[subiteration][code]


def thin(binary: BinaryImage) -> BinaryImage:
    """One-pixel-wide 8-connected skeleton of a binary image."""
    img = binary.bits.astype(np.uint8)
    while True:
        before = img
        img = _thin_pass(img, 0)
        img = _thin_pass(img, 1)
        if np.array_equal(img, before):
            break
    return BinaryImage(img.astype(bool))
