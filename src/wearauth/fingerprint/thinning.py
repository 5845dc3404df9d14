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
# A pass re-tests only the neighbours of the latest removals once those number
# under 1/_FRONTIER_SHARE of the pixels; above that, testing every pixel at
# once is cheaper.
_FRONTIER_SHARE = 128


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
_REMOVABLE_U8 = _REMOVABLE.astype(np.uint8)


def _full_pass(flat: np.ndarray, offsets: np.ndarray, start: int, n: int,
               subiteration: int) -> np.ndarray:
    """Test every pixel of ``flat[start:start + n]`` at once and remove the
    removable ones; returns their flat indices."""
    body = flat[start:start + n]
    code = np.zeros(n, dtype=np.uint8)
    shifted = np.empty(n, dtype=np.uint8)
    for bit, off in enumerate(offsets):
        np.left_shift(flat[start + off:start + off + n], bit, out=shifted)
        code |= shifted
    gone = np.take(_REMOVABLE_U8[subiteration], code)
    gone &= body
    body -= gone
    return np.flatnonzero(gone.view(bool)) + start


def _frontier_pass(flat: np.ndarray, offsets: np.ndarray, changed: np.ndarray,
                   subiteration: int) -> np.ndarray:
    """Test only the ridge neighbours of ``changed`` and remove the removable
    ones; returns their flat indices."""
    near = np.unique((changed[:, None] + offsets).ravel())
    near = near[flat[near].view(bool)]
    code = np.zeros(near.size, dtype=np.uint8)
    for bit, off in enumerate(offsets):
        code |= flat[near + off] << bit
    gone = near[_REMOVABLE[subiteration][code]]
    flat[gone] = 0
    return gone


def thin(binary: BinaryImage) -> BinaryImage:
    """One-pixel-wide 8-connected skeleton of a binary image.

    Each subiteration removes its removable pixels all at once.  A pixel
    that one pass of a subiteration kept can become removable in its next
    pass only if a neighbour was removed in between, by either
    subiteration; so once removals are few, a pass re-tests just the
    neighbours of the two latest passes' removals.  It stops when a pass of
    each subiteration in turn removes nothing.
    """
    h, w = binary.bits.shape
    padded = np.pad(binary.bits.astype(np.uint8), 1)   # the frame stays 0
    flat = padded.reshape(-1)
    stride = w + 2
    offsets = np.array([dy * stride + dx for dy, dx in _RING])
    # Pixels (0, 0) to (h-1, w-1) span one run of the padded buffer; the
    # frame columns inside it are 0 and so never removed.
    start, n = stride + 1, max(0, (h - 1) * stride + w)
    removed: list[np.ndarray | None] = [None, None]   # None: not yet run
    while True:
        for sub in (0, 1):
            own, other = removed[sub], removed[1 - sub]
            if (own is None or other is None
                    or (own.size + other.size) * _FRONTIER_SHARE > h * w):
                removed[sub] = _full_pass(flat, offsets, start, n, sub)
            else:
                removed[sub] = _frontier_pass(flat, offsets, np.concatenate((own, other)), sub)
        if removed[0].size == 0 and removed[1].size == 0:
            return BinaryImage(padded[1:-1, 1:-1].astype(bool))
