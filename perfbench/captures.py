"""Seeded synthetic fingerprint captures with ground-truth identities.

In the style of SFinGe (Cappelli, Maio and Maltoni, ICPR 2000), reduced to
what the data plane needs: a smoothly curving sinusoidal ridge pattern whose
phase winds around 24 point dislocations.  Each dislocation adds or removes
one ridge, which the extractors see as an ending/bifurcation.  An identity
is a master pattern on a canvas larger than the capture window, so a genuine
probe is the same pattern seen through a shifted window with fresh sensor
noise, and an impostor is a pattern from a seed that was never enrolled.
"""

from __future__ import annotations

import numpy as np

CAPTURE_WIDTH = 278
CAPTURE_HEIGHT = 144
MAX_SHIFT = 8              # px; a genuine probe's window moves at most this far
_GRID = (8, 3)
DISLOCATIONS = _GRID[0] * _GRID[1]
_MARGIN = MAX_SHIFT
_BORDER = 12               # px kept free of dislocations inside the window


def master_pattern(identity: int) -> np.ndarray:
    """Noise-free ridge pattern of one identity, larger than a capture by
    ``MAX_SHIFT`` on every side (float, mean 0, amplitude 1)."""
    rng = np.random.default_rng([0x5F1E, identity])
    h, w = CAPTURE_HEIGHT + 2 * _MARGIN, CAPTURE_WIDTH + 2 * _MARGIN
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    wavelength = rng.uniform(8.0, 10.0)
    base = rng.uniform(0.0, np.pi)
    # A gentle orientation sweep along the long axis stands in for the
    # curvature of a real print without creating singular points.
    sweep = rng.uniform(-0.35, 0.35)
    theta = base + sweep * (x / w - 0.5) * 2.0
    normal_x, normal_y = np.cos(theta + np.pi / 2.0), np.sin(theta + np.pi / 2.0)
    phase = 2.0 * np.pi / wavelength * (x * normal_x + y * normal_y)
    # One dislocation per cell of an 8x3 grid over the capture window, jittered
    # inside its cell: no two come close enough to merge or to be culled as a
    # pair, so every capture shows a similar number of minutiae (~23, close to
    # what 30 uniformly placed dislocations leave after culling).
    inset = _MARGIN + _BORDER
    cell_w = (w - 2 * inset) / _GRID[0]
    cell_h = (h - 2 * inset) / _GRID[1]
    gx, gy = np.meshgrid(np.arange(_GRID[0]), np.arange(_GRID[1]))
    cx = inset + (gx.ravel() + rng.uniform(0.2, 0.8, DISLOCATIONS)) * cell_w
    cy = inset + (gy.ravel() + rng.uniform(0.2, 0.8, DISLOCATIONS)) * cell_h
    # Equal numbers of each winding sense: half the minutiae are ridge
    # endings and half bifurcations.
    sign = rng.permutation(np.resize((-1.0, 1.0), DISLOCATIONS))
    for px, py, s in zip(cx, cy, sign):
        phase += s * np.arctan2(y - py, x - px)
    return np.cos(phase)


def capture(identity: int, noise_seed: int, shift: tuple[int, int] = (0, 0),
            noise_sigma: float = 18.0) -> np.ndarray:
    """Window of an identity's pattern at ``shift`` plus seeded sensor noise,
    as uint8 pixels of shape (CAPTURE_HEIGHT, CAPTURE_WIDTH)."""
    dx, dy = shift
    if max(abs(dx), abs(dy)) > MAX_SHIFT:
        raise ValueError(f"shift {shift} exceeds {MAX_SHIFT} px")
    pattern = master_pattern(identity)
    window = pattern[_MARGIN + dy:_MARGIN + dy + CAPTURE_HEIGHT,
                     _MARGIN + dx:_MARGIN + dx + CAPTURE_WIDTH]
    rng = np.random.default_rng([0xCA9, identity, noise_seed])
    px = 127.5 - 100.0 * window + rng.normal(0.0, noise_sigma, window.shape)
    return np.clip(np.rint(px), 0, 255).astype(np.uint8)


def genuine_probe(identity: int, rng: np.random.Generator) -> np.ndarray:
    """Enrolled identity seen through a shifted window with new noise."""
    shift = tuple(int(v) for v in rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, 2))
    return capture(identity, int(rng.integers(1, 2**31)), shift)
