"""The extractor's numpy kernels return exactly what their scipy calls return.

scipy stays in the tests as the oracle.  Sides run 1-41 px, 16-20 px (short
of the Gaussian's 20-px radius, which ``MIN_PIPELINE_SIZE`` admits) and the
278x144 capture size; values span many decades, and rounded inputs bring
exact ties and zeros.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy import ndimage

from wearauth.fingerprint._kernels import (
    bilinear_nearest,
    gaussian_reflect,
    irfft2_rows,
    next_fast_len,
    rfft2,
    sobel_pair,
    uniform3_nearest,
)

CAPTURE = (144, 278)
_side = st.one_of(st.integers(1, 41), st.integers(16, 20))
_shape = st.one_of(st.tuples(_side, _side), st.just(CAPTURE))


@st.composite
def _images(draw, shape=_shape):
    """Float images of a drawn shape, scale (1e-8 to 1e8) and rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(draw(shape)) * 10.0 ** draw(st.integers(-8, 8))
    return np.round(x) if draw(st.booleans()) else x


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


_RAMP = np.arange(16 * 20, dtype=np.float64).reshape(16, 20) - 150.0   # sides under the radius
_PIXEL = np.ones((1, 1))


class TestFilters:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(x=_images())
    @example(x=_RAMP)
    @example(x=_PIXEL)
    def test_sobel_pair(self, x):
        gy, gx = sobel_pair(x)
        assert _identical(gy, ndimage.sobel(x, axis=0, mode="reflect"))
        assert _identical(gx, ndimage.sobel(x, axis=1, mode="reflect"))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(x=_images())
    @example(x=_PIXEL)
    def test_uniform3_nearest(self, x):
        assert _identical(uniform3_nearest(x), ndimage.uniform_filter(x, size=3, mode="nearest"))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(x=_images(), sigma=st.sampled_from([5.0, 0.7, 2.3]))
    @example(x=_RAMP, sigma=5.0)
    @example(x=_PIXEL, sigma=5.0)
    def test_gaussian_reflect(self, x, sigma):
        assert _identical(gaussian_reflect(x, sigma),
                          ndimage.gaussian_filter(x, sigma=sigma, mode="reflect"))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(x=_images(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20000),
           on_grid=st.booleans())
    def test_bilinear_nearest(self, x, seed, n, on_grid):
        """Coordinates reach 5 px beyond every side; half-pixel grids hit
        exact weights of 0, 0.5 and 1."""
        rng = np.random.default_rng(seed)
        h, w = x.shape
        ys = rng.uniform(-5.0, h + 4.0, n)
        xs = rng.uniform(-5.0, w + 4.0, n)
        if on_grid:
            ys, xs = np.round(ys * 2.0) / 2.0, np.round(xs * 2.0) / 2.0
        assert _identical(bilinear_nearest(x, ys, xs),
                          ndimage.map_coordinates(x, [ys, xs], order=1, mode="nearest"))

    def test_bilinear_keeps_the_coordinate_shape(self):
        x = np.random.default_rng(0).standard_normal((20, 30))
        ys, xs = np.meshgrid(np.linspace(-2, 22, 24), np.linspace(-2, 31, 40), indexing="ij")
        ys, xs = np.stack([ys] * 3), np.stack([xs] * 3)
        assert _identical(bilinear_nearest(x, ys, xs),
                          ndimage.map_coordinates(x, [ys, xs], order=1, mode="nearest"))


class TestFft:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(x=_images(), kernel=_images(st.tuples(st.integers(1, 21), st.integers(1, 21))),
           grow=st.tuples(st.integers(0, 24), st.integers(0, 24)),
           pick=st.integers(0, 2**32 - 1))
    def test_convolution_round_trip(self, x, kernel, grow, pick):
        """The transforms of a ``gabor_enhance`` group: both spectra, their
        product and its inverse, on every row and on a sorted subset."""
        shape = tuple(next_fast_len(n + g) for n, g in zip(x.shape, grow))
        image_spectrum = rfft2(x, shape)
        assert _identical(image_spectrum, sp_fft.rfftn(x, shape))
        product = image_spectrum * rfft2(kernel, shape)
        inverse = sp_fft.irfftn(product, shape)
        every = np.arange(shape[0])
        some = np.flatnonzero(np.random.default_rng(pick).random(shape[0]) < 0.3)
        assert _identical(irfft2_rows(product, shape, every), inverse)
        assert _identical(irfft2_rows(product, shape, some), inverse[some])

    def test_next_fast_len(self):
        for n in range(5000):
            assert next_fast_len(n) == sp_fft.next_fast_len(n, real=True)
