"""Synthetic inputs with known ground truth, shared across tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from scipy import ndimage

from wearauth.fingerprint.image import GrayImage


def sinusoidal_ridges(width: int, height: int, wavelength: float = 8.0,
                      ridge_angle: float = 0.0, amplitude: float = 100.0) -> GrayImage:
    """Parallel sinusoidal ridges; dark crest lines run along ``ridge_angle``."""
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    nx = np.cos(ridge_angle + np.pi / 2.0)
    ny = np.sin(ridge_angle + np.pi / 2.0)
    # Half-pixel phase offset keeps samples off the exact mean level, so
    # thresholding near the mean splits the pattern into equal halves.
    phase = 2.0 * np.pi / wavelength * (x * nx + y * ny + 0.5)
    px = 127.5 - amplitude * np.cos(phase)
    return GrayImage(np.clip(np.rint(px), 0, 255).astype(np.uint8))


def stripe_image(width: int, height: int, period: int = 8, thickness: int = 3,
                 gap: tuple[int, int, int] | None = None) -> GrayImage:
    """Full-width dark horizontal stripes on a light background.

    ``gap`` = (stripe_row, x_start, x_end) cuts one stripe open between the
    given columns, engineering a pair of ridge endings.
    """
    px = np.full((height, width), 230, dtype=np.uint8)
    for top in range(2, height - thickness, period):
        px[top:top + thickness, :] = 25
    if gap is not None:
        row, x0, x1 = gap
        top = 2 + row * period
        px[top:top + thickness, x0:x1] = 230
    return GrayImage(px)


def degrade(img: GrayImage, blur_sigma: float = 1.5, noise_amplitude: float = 40.0,
            seed: int = 7) -> GrayImage:
    """Blur plus seeded uniform noise, the 'poor capture' stand-in."""
    rng = np.random.default_rng(seed)
    px = ndimage.gaussian_filter(img.pixels.astype(np.float64), blur_sigma)
    px = px + rng.uniform(-noise_amplitude, noise_amplitude, px.shape)
    return GrayImage(np.clip(np.rint(px), 0, 255).astype(np.uint8))


def blob_image(width: int, height: int, n_blobs: int = 12, seed: int = 0) -> np.ndarray:
    """Random blobby binary mask (bool array), for thinning property tests."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((height, width), dtype=bool)
    for _ in range(n_blobs):
        cy = rng.integers(2, height - 2)
        cx = rng.integers(2, width - 2)
        r = int(rng.integers(1, 6))
        y, x = np.ogrid[0:height, 0:width]
        mask |= (y - cy) ** 2 + (x - cx) ** 2 <= r * r
    return mask


# Skeleton around a bifurcation at (6, 6) whose three branch vectors cancel in
# y up to one rounding error: np.mod(arctan2(-tiny, vx), 2*pi) rounds to 2*pi.
# Cut from the lightweight skeleton of a seeded 278x144 uniform-noise image.
ANGLE_WRAP_SKELETON = np.array([[c == "#" for c in row] for row in (
    "..#...##.....",
    "#...###.#..##",
    "#.#.#..####..",
    "..#.#....#.#.",
    "...##....#...",
    "....##.#.#...",
    "......#.#.###",
    ".#....#.##.#.",
    "#...##....#.#",
    "#..#......#.#",
    ".###....#....",
    "##.###.......",
    ".####.###.#..",
)])


def angle_wrap_image(pad: int = 5) -> GrayImage:
    """ANGLE_WRAP_SKELETON drawn dark on a light canvas with ``pad`` px margins.

    The lightweight route still reaches the wrapping bifurcation on it.
    """
    h, w = ANGLE_WRAP_SKELETON.shape
    px = np.full((h + 2 * pad, w + 2 * pad), 255, dtype=np.uint8)
    px[pad:pad + h, pad:pad + w][ANGLE_WRAP_SKELETON] = 0
    return GrayImage(px)


def hostile_blobs(valid: bytes, max_size: int = 64):
    """Arbitrary bytes, or ``valid`` with up to four bits flipped and maybe cut short."""

    @st.composite
    def damaged(draw):
        blob = bytearray(valid)
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1), max_size=4)):
            blob[bit // 8] ^= 1 << (bit % 8)
        keep = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
        return bytes(blob[:keep])

    return st.one_of(st.binary(max_size=max_size), damaged())
