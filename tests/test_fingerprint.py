import importlib.util
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from wearauth.fingerprint import (
    BinarizeMethod,
    BinaryImage,
    GrayImage,
    MinutiaKind,
    TemplateAlgorithm,
    binarize,
    enhance,
    extract_template,
    normalize,
    orientation_field,
    read_pgm,
    thin,
    thinning,
    write_pgm,
)
from wearauth.fingerprint import _kernels
from wearauth.fingerprint.enhance import (
    _MAX_WAVELENGTH,
    _MIN_WAVELENGTH,
    _N_THETA_BINS,
    _gabor_kernel,
    _transform_shape,
    gabor_enhance,
    ridge_wavelength,
)
from wearauth.fingerprint.image import MAX_PIXELS
from wearauth.fingerprint.minutiae import (
    DEFAULT_BORDER_MARGIN,
    DEFAULT_MIN_DISTANCE,
    MAX_MINUTIAE,
    Minutia,
    Template,
    _candidates,
    _crossing_number_map,
    _filter_false_minutiae,
    _minutia_angle,
    _traced,
)

from patterns import (
    ANGLE_WRAP_SKELETON,
    blob_image,
    degrade,
    hostile_blobs,
    sinusoidal_ridges,
    stripe_image,
)
from reference_enhance import (
    reference_enhance,
    reference_gabor_enhance,
    reference_ridge_wavelength,
)
from reference_thinning import reference_thin

EIGHT = np.ones((3, 3), dtype=int)  # 8-connectivity structuring element


def _scan(skeleton: BinaryImage) -> list[Minutia]:
    """Every crossing-number minutia of a skeleton, with its angle."""
    return _traced(skeleton.bits, _candidates(skeleton))


def _reference_thin(bits: np.ndarray) -> np.ndarray:
    """Naive per-pixel two-subiteration thinning, straight from the published
    algorithm description; the production code must agree exactly."""
    img = bits.astype(np.uint8).copy()

    def neighbours(y, x, a):
        p = np.pad(a, 1)
        y, x = y + 1, x + 1
        return [p[y - 1, x], p[y - 1, x + 1], p[y, x + 1], p[y + 1, x + 1],
                p[y + 1, x], p[y + 1, x - 1], p[y, x - 1], p[y - 1, x - 1]]

    changed = True
    while changed:
        changed = False
        for sub in (0, 1):
            to_delete = []
            for y in range(img.shape[0]):
                for x in range(img.shape[1]):
                    if not img[y, x]:
                        continue
                    n = neighbours(y, x, img)
                    b = sum(n)
                    ring = n + [n[0]]
                    a_count = sum(1 for i in range(8) if ring[i] == 0 and ring[i + 1] == 1)
                    p2, _, p4, _, p6, _, p8, _ = n
                    if sub == 0:
                        cond = p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
                    else:
                        cond = p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0
                    if 2 <= b <= 6 and a_count == 1 and cond:
                        to_delete.append((y, x))
            if to_delete:
                changed = True
                for y, x in to_delete:
                    img[y, x] = 0
    return img.astype(bool)


class TestBinarize:
    @pytest.mark.parametrize("method", list(BinarizeMethod))
    def test_constant_image_is_all_background(self, method):
        img = GrayImage(np.full((32, 32), 140, dtype=np.uint8))
        assert binarize(img, method).bits.sum() == 0

    def test_half_black_half_white(self):
        px = np.full((32, 32), 255, dtype=np.uint8)
        px[:, :16] = 0
        out = binarize(GrayImage(px), BinarizeMethod.GLOBAL_OTSU)
        assert out.bits[:, :16].all()
        assert not out.bits[:, 16:].any()

    @pytest.mark.parametrize("method", list(BinarizeMethod))
    def test_sinusoid_duty_cycle(self, method):
        img = sinusoidal_ridges(128, 128, wavelength=8, ridge_angle=0.0)
        duty = binarize(img, method).bits.mean()
        assert abs(duty - 0.5) <= 0.1

    def test_ridges_are_the_dark_class(self):
        img = stripe_image(64, 64)
        out = binarize(img, BinarizeMethod.GLOBAL_OTSU)
        dark = img.pixels < 128
        assert np.array_equal(out.bits, dark)


class TestEnhance:
    def test_orientation_field_on_30_degree_pattern(self):
        img = sinusoidal_ridges(192, 192, wavelength=8, ridge_angle=np.deg2rad(30))
        theta, valid = orientation_field(normalize(img))
        interior = theta[2:-2, 2:-2]
        err = np.abs(((interior - np.deg2rad(30)) + np.pi / 2) % np.pi - np.pi / 2)
        assert valid[2:-2, 2:-2].all()
        assert np.rad2deg(err.max()) <= 5.0

    def test_enhanced_correlates_with_clean_pattern(self):
        img = sinusoidal_ridges(192, 192, wavelength=8, ridge_angle=np.deg2rad(30))
        out = enhance(img)
        a = img.pixels[16:-16, 16:-16].astype(float).ravel()
        b = out.pixels[16:-16, 16:-16].astype(float).ravel()
        assert np.corrcoef(a, b)[0, 1] >= 0.9

    def test_constant_image_stays_constant(self):
        img = GrayImage(np.full((64, 64), 90, dtype=np.uint8))
        out = enhance(img)
        assert out.width == 64 and out.height == 64
        assert np.ptp(out.pixels) == 0

    def test_snr_improves_on_noisy_pattern(self):
        clean = sinusoidal_ridges(192, 192, wavelength=8, ridge_angle=np.deg2rad(30))
        rng = np.random.default_rng(3)
        noisy = GrayImage(np.clip(
            clean.pixels + rng.uniform(-80, 80, clean.pixels.shape), 0, 255).astype(np.uint8))
        out = enhance(noisy)

        ref = clean.pixels[16:-16, 16:-16].astype(float).ravel()

        def snr_db(img):
            x = img[16:-16, 16:-16].astype(float).ravel()
            design = np.vstack([ref, np.ones_like(ref)]).T
            coef, *_ = np.linalg.lstsq(design, x, rcond=None)
            resid = x - design @ coef
            return 10 * np.log10(np.var(coef[0] * ref) / np.var(resid))

        assert snr_db(out.pixels) >= snr_db(noisy.pixels)


@st.composite
def _enhance_inputs(draw):
    """Random or sinusoidal 16x16..278x144 images, some with a flat patch."""
    h = draw(st.integers(16, 144))
    w = draw(st.integers(16, 278))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        px = rng.integers(0, 256, (h, w)).astype(np.uint8)
    else:
        # Wavelengths outside 3-25 px leave blocks with no estimate.
        wavelength = draw(st.sampled_from([2.0, 4.0, 7.5, 9.0, 12.0, 40.0]))
        px = sinusoidal_ridges(w, h, wavelength=wavelength,
                               ridge_angle=draw(st.floats(0.0, np.pi))).pixels
    if draw(st.booleans()):
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        px = px.copy()
        px[y0:y0 + draw(st.integers(16, 96)), x0:x0 + draw(st.integers(16, 160))] = 128
    return normalize(GrayImage(px))


def _lam_bins(wavelengths: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The wavelength bins of the valid blocks, as ``gabor_enhance`` rounds them."""
    return np.unique(np.clip(np.rint(wavelengths[valid]), _MIN_WAVELENGTH, _MAX_WAVELENGTH))


def _half(lam: float) -> int:
    return _gabor_kernel(0.0, float(lam)).shape[0] // 2


def _gabor_tolerance(norm: np.ndarray, wavelengths: np.ndarray, valid: np.ndarray) -> float:
    """How far two FFT evaluations of the Gabor groups may differ, fixed from
    float64 before any difference was measured.

    ``gabor_enhance`` and ``reference_gabor_enhance`` evaluate one exact
    convolution per group, whose values are at most ``||kernel||_1 *
    max|norm|`` in magnitude, through three transforms (image or window,
    kernel, inverse) of at most ``N`` points, ``N`` the whole image's
    transform at the longest kernel.  A mixed-radix FFT of ``N`` points has
    at most ``log2 N`` stages, and each stage rounds a value by at most
    ``eps`` of the scale that flows through it.  So each side lies within
    ``3 * log2 N * eps * ||kernel||_1 * max|norm|`` of the exact value, and
    the two within twice that, with ``||kernel||_1`` the largest over every
    orientation bin of the wavelengths in use.  A wrong crop or window is
    off by the order of the values themselves, ~``1 / (6 log2 N eps)`` ~
    10^13 times more.
    """
    lams = _lam_bins(wavelengths, valid)
    if lams.size == 0:
        return 0.0
    shape = _transform_shape(norm.shape, _half(lams.max()))
    kernel_l1 = max(np.abs(_gabor_kernel(tb * np.pi / _N_THETA_BINS, float(lam))).sum()
                    for lam in lams for tb in range(_N_THETA_BINS))
    eps = np.finfo(np.float64).eps
    return 6.0 * np.log2(shape[0] * shape[1]) * eps * kernel_l1 * np.abs(norm).max()


def _transforms(norm, theta, wavelengths, valid):
    """``gabor_enhance``'s result, with the ``(input, shape)`` of every
    ``_kernels.rfft2`` call and the shape of every ``_kernels.irfft2_rows`` call."""
    with mock.patch.object(_kernels, "rfft2", wraps=_kernels.rfft2) as forward, \
            mock.patch.object(_kernels, "irfft2_rows", wraps=_kernels.irfft2_rows) as inverse:
        result = gabor_enhance(norm, theta, wavelengths, valid)
    return (result, [(c.args[0], tuple(c.args[1])) for c in forward.call_args_list],
            [tuple(c.args[1]) for c in inverse.call_args_list])


@st.composite
def _tunings(draw):
    """Gaussian noise with arbitrary orientations, wavelengths (clipped to
    3-25) and masks on 16x16..144x278 images."""
    shape = draw(st.tuples(st.integers(16, 144), st.integers(16, 278)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    norm = rng.standard_normal(shape)
    blocks = (shape[0] // 16, shape[1] // 16)
    theta = rng.uniform(0.0, np.pi, blocks)
    wavelengths = rng.uniform(0.0, 30.0, blocks)
    valid = rng.random(blocks) < draw(st.floats(0.0, 1.0))
    return norm, theta, wavelengths, valid


class TestEnhanceMatchesReference:
    """The batched stages return what the per-block loops returned: exactly for
    the wavelengths, and within ``_gabor_tolerance`` for the filtered image."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(norm=_enhance_inputs(), all_invalid=st.booleans())
    @example(norm=normalize(degrade(sinusoidal_ridges(278, 144, 9.0, 0.4))), all_invalid=False)
    def test_chain_equals_reference(self, norm, all_invalid):
        theta, valid = orientation_field(norm)
        if all_invalid:
            valid = np.zeros_like(valid)
        wavelengths, ok = ridge_wavelength(norm, theta, valid)
        ref_wavelengths, ref_ok = reference_ridge_wavelength(norm, theta, valid)
        assert np.array_equal(wavelengths, ref_wavelengths)
        assert np.array_equal(ok, ref_ok)
        filtered = gabor_enhance(norm, theta, wavelengths, valid & ok)
        reference = reference_gabor_enhance(norm, theta, wavelengths, valid & ok)
        assert (np.abs(filtered - reference).max()
                <= _gabor_tolerance(norm, wavelengths, valid & ok))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(tuning=_tunings())
    def test_gabor_equals_reference_on_any_tuning(self, tuning):
        norm, theta, wavelengths, valid = tuning
        filtered = gabor_enhance(norm, theta, wavelengths, valid)
        reference = reference_gabor_enhance(norm, theta, wavelengths, valid)
        assert np.abs(filtered - reference).max() <= _gabor_tolerance(norm, wavelengths, valid)

    @pytest.mark.parametrize("shape", [(48, 80), (144, 278), (400, 496)])
    def test_whole_image_groups_equal_reference_bit_for_bit(self, shape):
        """Two orientations on a checkerboard of an odd number of block rows and
        columns: both groups reach all four edges, so both take the whole
        image, share its spectrum and compose exactly as ``fftconvolve``."""
        norm = np.random.default_rng(7).standard_normal(shape)
        by, bx = np.indices((shape[0] // 16, shape[1] // 16))
        theta = np.where((by + bx) % 2 == 0, 0.3, 2.0)
        wavelengths = np.full(theta.shape, 9.0)
        valid = np.ones(theta.shape, dtype=bool)
        filtered, forward, inverse = _transforms(norm, theta, wavelengths, valid)
        whole = _transform_shape(shape, _half(9.0))
        assert [s for _, s in forward] == [whole] * 3 and inverse == [whole] * 2
        assert sum(x is norm for x, _ in forward) == 1
        assert np.array_equal(filtered, reference_gabor_enhance(norm, theta, wavelengths, valid))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(tuning=_tunings())
    def test_transform_area_never_exceeds_the_whole_image_scheme(self, tuning):
        """Each group's forward and inverse transforms, and the image spectra,
        sum to no more area than one image spectrum per wavelength plus a
        whole-image kernel transform and inverse per group."""
        norm, theta, wavelengths, valid = tuning
        _, forward, inverse = _transforms(norm, theta, wavelengths, valid)
        theta_bin = np.rint(theta / np.pi * _N_THETA_BINS).astype(int) % _N_THETA_BINS
        lam_bin = np.clip(np.rint(wavelengths), _MIN_WAVELENGTH, _MAX_WAVELENGTH)
        groups = set(zip(lam_bin[valid], theta_bin[valid]))
        whole_scheme = 0
        for lam in _lam_bins(wavelengths, valid):
            s0, s1 = _transform_shape(norm.shape, _half(lam))
            whole_scheme += (1 + 2 * sum(g == lam for g, _ in groups)) * s0 * s1
        assert len(inverse) == len(groups)
        assert sum(s0 * s1 for _, (s0, s1) in forward) + sum(s0 * s1 for s0, s1 in inverse) \
            <= whole_scheme

    def test_no_block_yields_a_wavelength(self):
        norm = normalize(sinusoidal_ridges(96, 64, wavelength=40.0))
        theta, valid = orientation_field(norm)
        wavelengths, ok = ridge_wavelength(norm, theta, valid)
        assert valid.any() and not ok.any()
        ref_wavelengths, ref_ok = reference_ridge_wavelength(norm, theta, valid)
        assert np.array_equal(wavelengths, ref_wavelengths) and np.array_equal(ok, ref_ok)

    def test_median_fallback_fills_blocks_without_a_wavelength(self):
        px = np.hstack([sinusoidal_ridges(64, 64, wavelength=8.0).pixels,
                        sinusoidal_ridges(64, 64, wavelength=40.0).pixels])
        norm = normalize(GrayImage(px))
        theta, valid = orientation_field(norm)
        wavelengths, ok = ridge_wavelength(norm, theta, valid)
        ref_wavelengths, ref_ok = reference_ridge_wavelength(norm, theta, valid)
        assert np.array_equal(wavelengths, ref_wavelengths) and np.array_equal(ok, ref_ok)
        assert np.array_equal(ok, valid)
        # Blocks on the long-wavelength half carry the short half's median.
        assert np.allclose(wavelengths[:, 6:][valid[:, 6:]], 8.0, atol=1.0)


class TestThin:
    def test_matches_reference_implementation(self):
        for seed in range(12):
            bits = blob_image(40, 32, n_blobs=8, seed=seed)
            assert np.array_equal(thin(BinaryImage(bits)).bits, _reference_thin(bits))

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(bits=hnp.arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 20)),
                           elements=st.booleans()))
    def test_matches_reference_on_random_bits(self, bits):
        assert np.array_equal(thin(BinaryImage(bits)).bits, _reference_thin(bits))

    def test_reference_on_nine_square(self):
        sq = np.zeros((13, 13), dtype=bool)
        sq[2:11, 2:11] = True
        skel = thin(BinaryImage(sq)).bits
        assert np.array_equal(skel, _reference_thin(sq))
        assert skel.sum() <= 9
        _, n = ndimage.label(skel, structure=EIGHT)
        assert n == 1

    def test_thick_bar_reduces_to_one_pixel_line(self):
        bar = np.zeros((9, 20), dtype=bool)
        bar[3:6, 2:18] = True
        skel = thin(BinaryImage(bar)).bits
        ys, xs = np.nonzero(skel)
        assert set(ys.tolist()) == {4}                 # the middle row survives
        assert skel.sum() >= 12                        # ends erode a little
        assert np.all(np.diff(sorted(xs)) == 1)        # still one solid line

    def test_all_zero_image(self):
        z = np.zeros((16, 16), dtype=bool)
        assert thin(BinaryImage(z)).bits.sum() == 0

    def test_idempotent_and_never_adds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bits = rng.random((48, 48)) < 0.45
            once = thin(BinaryImage(bits))
            twice = thin(once)
            assert np.array_equal(once.bits, twice.bits)
            assert not (once.bits & ~bits).any()

    def test_components_never_split(self):
        # Thinning may erase tiny blobs entirely (a known trait of the
        # algorithm) but must never cut one component into several.
        for seed in range(8):
            bits = blob_image(64, 48, n_blobs=10, seed=seed)
            skel = thin(BinaryImage(bits)).bits
            labels, n = ndimage.label(bits, structure=EIGHT)
            for lab in range(1, n + 1):
                _, pieces = ndimage.label(skel & (labels == lab), structure=EIGHT)
                assert pieces <= 1


def _diagonal_band(length: int) -> np.ndarray:
    """A 2-px diagonal band: thinning peels 2 pixels off each end per pass,
    for ``length / 2`` iterations."""
    y, x = np.mgrid[0:length, 0:length + 2]
    return (x - y >= 0) & (x - y <= 1)


@st.composite
def _bit_images(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.tuples(st.integers(1, 64), st.integers(1, 64)))
    bits = rng.random(shape) < draw(st.floats(0.05, 0.95))
    if draw(st.booleans()) and min(shape) > 4:
        n = min(shape[0], shape[1] - 2)
        band = _diagonal_band(n)
        y0, x0 = draw(st.integers(0, shape[0] - n)), draw(st.integers(0, shape[1] - n - 2))
        bits[y0:y0 + n, x0:x0 + n + 2] = band
    return bits


class TestThinMatchesWholeImageLoop:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(bits=_bit_images())
    @example(bits=_diagonal_band(150))
    @example(bits=np.ones((1, 1), dtype=bool))
    @example(bits=binarize(enhance(degrade(sinusoidal_ridges(278, 144, 9.0, 0.4))),
                           BinarizeMethod.ADAPTIVE_MEAN).bits)
    @example(bits=binarize(degrade(sinusoidal_ridges(278, 144, 7.5, 2.0)),
                           BinarizeMethod.GLOBAL_OTSU).bits)
    def test_same_skeleton(self, bits):
        assert np.array_equal(thin(BinaryImage(bits)).bits, reference_thin(bits))

    def test_long_peel_runs_on_the_frontier(self, monkeypatch):
        calls = {"full": 0, "frontier": 0}
        for name in calls:
            original = getattr(thinning, f"_{name}_pass")

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(thinning, f"_{name}_pass", counted)
        bits = _diagonal_band(150)
        assert np.array_equal(thin(BinaryImage(bits)).bits, reference_thin(bits))
        assert calls["full"] == 2 and calls["frontier"] >= 140

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_image(self, shape):
        assert thin(BinaryImage(np.zeros(shape, dtype=bool))).bits.shape == shape


def _mask(rows):
    return BinaryImage(np.array([[c == "1" for c in row] for row in rows]))


def _pointwise_crossing_number(bits, x, y):
    """Half the absolute differences around the ring of an interior ridge
    pixel, one pixel at a time: the oracle for ``_crossing_number_map``."""
    ring = [int(bits[y + dy, x + dx]) for dy, dx in thinning._RING]
    return sum(abs(a - b) for a, b in zip(ring, ring[1:] + ring[:1])) // 2


class TestCrossingNumber:
    """The crossing-number map the extractor runs, on hand-built skeletons:
    1 ending, 2 continuation, 3 bifurcation, 0 off the ridge and on the border."""

    def test_line_interior_is_continuation(self):
        skel = _mask(["00000", "01110", "00000"])
        assert _crossing_number_map(skel.bits)[1, 2] == 2

    def test_line_endpoint(self):
        cn = _crossing_number_map(_mask(["00000", "01110", "00000"]).bits)
        assert cn[1, 1] == 1
        assert cn[1, 3] == 1

    def test_y_junction_is_bifurcation(self):
        skel = _mask([
            "10001",
            "01010",
            "00100",
            "00100",
        ])
        assert _crossing_number_map(skel.bits)[2, 2] == 3

    def test_loop_interior_is_all_continuation(self):
        ring = np.zeros((8, 10), dtype=bool)
        ring[2, 2:8] = True
        ring[5, 2:8] = True
        ring[2:6, 2] = True
        ring[2:6, 7] = True
        cn = _crossing_number_map(ring)
        assert np.all(cn[ring] == 2)

    def test_border_pixels_are_zero(self):
        """A line off the top edge: its border pixel, an ending by its ring, maps to 0."""
        cn = _crossing_number_map(_mask(["01000", "01000", "01000", "00000"]).bits)
        assert cn[0, 1] == 0
        assert cn[1, 1] == 2 and cn[2, 1] == 1

    def test_non_ridge_pixels_are_zero(self):
        cn = _crossing_number_map(_mask(["000", "010", "000"]).bits)
        assert cn[0, 0] == 0
        assert not cn.any()

    def test_vectorized_map_agrees_with_pointwise(self):
        rng = np.random.default_rng(5)
        bits = thin(BinaryImage(rng.random((32, 32)) < 0.4)).bits
        cn_map = _crossing_number_map(bits)
        ys, xs = np.nonzero(bits)
        for y, x in zip(ys.tolist(), xs.tolist()):
            if 0 < x < 31 and 0 < y < 31:
                assert cn_map[y, x] == _pointwise_crossing_number(bits, x, y)


class TestExtractTemplate:
    def test_blank_image_gives_empty_template(self):
        img = GrayImage(np.full((32, 32), 200, dtype=np.uint8))
        t = extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
        assert len(t) == 0

    def test_too_small_image_rejected(self):
        img = GrayImage(np.zeros((15, 40), dtype=np.uint8))
        with pytest.raises(ValueError):
            extract_template(img, TemplateAlgorithm.LIGHTWEIGHT)

    def test_pixel_ceiling(self):
        at_ceiling = GrayImage(np.zeros((512, 512), dtype=np.uint8))
        assert len(extract_template(at_ceiling, TemplateAlgorithm.HIGH_ACCURACY)) == 0
        for shape in ((513, 512), (16, MAX_PIXELS // 16 + 1)):
            with pytest.raises(ValueError, match="exceeds"):
                extract_template(GrayImage(np.zeros(shape, dtype=np.uint8)),
                                 TemplateAlgorithm.LIGHTWEIGHT)

    def test_deterministic(self):
        img = stripe_image(96, 72, period=8, thickness=3, gap=(4, 40, 64))
        a = extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
        b = extract_template(GrayImage(img.pixels.copy()), TemplateAlgorithm.HIGH_ACCURACY)
        assert a == b

    def test_ridge_break_yields_exactly_two_endings(self):
        img = stripe_image(160, 120, period=8, thickness=3, gap=(7, 64, 104))
        t = extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
        assert len(t) == 2
        assert all(m.kind is MinutiaKind.ENDING for m in t.minutiae)
        left, right = t.minutiae
        row_top = 2 + 7 * 8
        for m in t.minutiae:
            assert row_top <= m.y < row_top + 3
        assert 56 <= left.x <= 72      # near the engineered gap edges; the
        assert 96 <= right.x <= 112    # band-pass bleeds a few pixels inward

    def test_lightweight_finds_spurious_minutiae_on_degraded_image(self):
        img = stripe_image(160, 120, period=8, thickness=3, gap=(7, 64, 104))
        degraded = degrade(img)
        high = extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
        light = extract_template(degraded, TemplateAlgorithm.LIGHTWEIGHT)
        high_on_degraded = extract_template(degraded, TemplateAlgorithm.HIGH_ACCURACY)
        assert len(light) > len(high)
        assert len(light) > len(high_on_degraded)

    def test_minutiae_respect_bounds_and_spacing(self):
        img = stripe_image(160, 120, period=8, thickness=3, gap=(7, 64, 104))
        t = extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
        for m in t.minutiae:
            assert 10 <= m.x < img.width - 10
            assert 10 <= m.y < img.height - 10
        pts = [(m.x, m.y) for m in t.minutiae]
        for i, (x1, y1) in enumerate(pts):
            for x2, y2 in pts[i + 1:]:
                assert np.hypot(x1 - x2, y1 - y2) >= 8.0

    @pytest.mark.parametrize("algorithm", list(TemplateAlgorithm))
    def test_rotate_180_maps_minutiae(self, algorithm):
        # Border-free pattern on a block-aligned canvas (dims divisible by the
        # 16px analysis block) so the enhancement grid maps onto itself.
        px = np.full((96, 128), 230, dtype=np.uint8)
        for top in range(22, 75, 12):
            px[top:top + 3, 26:102] = 25
        px[58:61, 56:80] = 230
        img = GrayImage(px)
        rotated = GrayImage(px[::-1, ::-1].copy())
        t = extract_template(img, algorithm)
        t_rot = extract_template(rotated, algorithm)
        assert len(t) == len(t_rot)
        mapped = sorted(((img.width - 1 - m.x, img.height - 1 - m.y, m.kind,
                          (m.angle + np.pi) % (2 * np.pi)) for m in t_rot.minutiae))
        original = sorted(((m.x, m.y, m.kind, m.angle) for m in t.minutiae))
        # The thinning subiterations swap under rotation, so allow 1px drift.
        for (x1, y1, k1, a1), (x2, y2, k2, a2) in zip(original, mapped):
            assert k1 == k2
            assert abs(x1 - x2) <= 1 and abs(y1 - y2) <= 1
            diff = abs(a1 - a2) % (2 * np.pi)
            assert min(diff, 2 * np.pi - diff) <= np.pi / 8

    def test_scan_classifies_both_kinds(self):
        # A straight line plus a diagonal branch: one bifurcation, three endings.
        bits = np.zeros((16, 16), dtype=bool)
        bits[8, 2:14] = True
        for i in range(1, 5):
            bits[8 - i, 8 + i] = True
        minutiae = _scan(BinaryImage(bits))
        kinds = sorted(m.kind.value for m in minutiae)
        assert kinds == ["bifurcation", "ending", "ending", "ending"]


class TestMinutiaAngle:
    def test_wraps_two_pi_to_zero(self):
        # np.mod(arctan2(-tiny, vx), 2*pi) is exactly 2*pi for this bifurcation.
        assert _minutia_angle(ANGLE_WRAP_SKELETON, 6, 6) == 0.0

    # Seeds whose lightweight extraction met a 2*pi angle and raised.
    @pytest.mark.parametrize("seed", [0, 3, 7, 19, 21, 25, 27, 28])
    @pytest.mark.parametrize("algorithm", list(TemplateAlgorithm))
    def test_uniform_noise_extracts(self, seed, algorithm):
        img = GrayImage(np.random.default_rng(seed).integers(0, 256, (144, 278), dtype=np.uint8))
        if algorithm is TemplateAlgorithm.HIGH_ACCURACY:
            minutiae = extract_template(img, algorithm).minutiae
        else:
            # ~5,500 minutiae: the route refuses them, so scan the skeleton directly.
            with pytest.raises(ValueError, match=f"{MAX_MINUTIAE}-record limit"):
                extract_template(img, algorithm)
            minutiae = _scan(thin(binarize(img, BinarizeMethod.GLOBAL_OTSU)))
        assert len(minutiae) > 0
        assert all(0.0 <= m.angle < 2 * np.pi for m in minutiae)

    def test_lightweight_refuses_noise_before_tracing(self):
        """512x512 noise has ~37,000 crossing-number minutiae; tracing them
        took ~19 s before the codec refused the template."""
        img = GrayImage(np.random.default_rng(0).integers(0, 256, (512, 512), dtype=np.uint8))
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"{MAX_MINUTIAE}-record limit"):
            extract_template(img, TemplateAlgorithm.LIGHTWEIGHT)
        assert time.perf_counter() - t0 < 2.0

    def test_limit_counts_endings_and_bifurcations(self):
        bits = np.zeros((16, 40), dtype=bool)
        bits[4, 2:38] = True
        bits[4:13, 20] = True           # a T: three endings and one bifurcation
        skeleton = BinaryImage(bits)
        assert len(_candidates(skeleton, limit=4)) == 4
        with pytest.raises(ValueError, match="4 minutiae exceed the 3-record limit"):
            _candidates(skeleton, limit=3)


def _load_captures():
    """The benchmark's seeded capture generator, ``perfbench/captures.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "captures.py"
    spec = importlib.util.spec_from_file_location("perfbench_captures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_then_filter(img, enhancer=enhance):
    """The high-accuracy route that traced every candidate's angle before the
    position filter, kept as the oracle for filtering first."""
    skeleton = thin(binarize(enhancer(img), BinarizeMethod.ADAPTIVE_MEAN))
    kept = _filter_false_minutiae(_scan(skeleton), img.width, img.height,
                                  DEFAULT_BORDER_MARGIN, DEFAULT_MIN_DISTANCE)
    return Template(img.width, img.height, TemplateAlgorithm.HIGH_ACCURACY, tuple(kept))


class TestFilterBeforeTracing:
    @pytest.mark.parametrize("identity,noise_seed,shift", [
        (0, 0, (0, 0)), (1, 5, (3, -2)), (2, 9, (-8, 8)), (17, 1, (5, 0)), (40, 3, (0, -6))])
    def test_same_template_on_captures(self, identity, noise_seed, shift):
        img = GrayImage(_load_captures().capture(identity, noise_seed, shift))
        template = extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
        assert len(template) > 0
        assert template == _trace_then_filter(img)

    @pytest.mark.parametrize("seed", [0, 3, 7, 19, 21, 25, 27, 28])
    def test_same_template_on_uniform_noise(self, seed):
        img = GrayImage(np.random.default_rng(seed).integers(0, 256, (144, 278), dtype=np.uint8))
        assert extract_template(img, TemplateAlgorithm.HIGH_ACCURACY) == _trace_then_filter(img)


def _probe(kind, k):
    """Genuine probe ``k`` (identity ``k``, shifted, fresh noise) or impostor
    capture ``k`` (an identity from 1000), as the benchmark draws them."""
    captures = _load_captures()
    if kind == "genuine":
        return GrayImage(captures.genuine_probe(k, np.random.default_rng([2718, k])))
    return GrayImage(captures.capture(1000 + 7919 * k, k + 1))


class TestWindowedGaborMatchesReferenceChain:
    """Windowed groups round differently from whole-image ones; on captures
    and on noise the enhanced image and the template must not notice."""

    @pytest.mark.parametrize("kind", ["genuine", "impostor"])
    @pytest.mark.parametrize("k", range(1, 21))
    def test_captures(self, kind, k):
        img = _probe(kind, k)
        assert np.array_equal(enhance(img).pixels, reference_enhance(img).pixels)
        assert (extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
                == _trace_then_filter(img, reference_enhance))

    @pytest.mark.parametrize("shape,seed", [((144, 278), 0), ((144, 278), 11), ((144, 278), 12),
                                            ((512, 512), 0)])
    def test_uniform_noise(self, shape, seed):
        img = GrayImage(np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8))
        assert np.array_equal(enhance(img).pixels, reference_enhance(img).pixels)
        assert (extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
                == _trace_then_filter(img, reference_enhance))

    def test_capture_groups_transform_windows_smaller_than_the_image(self):
        """Most of a capture's groups hold a few neighbouring blocks: their
        image transforms read a window of the capture, not all of it."""
        norm = normalize(_probe("genuine", 1))
        theta, valid = orientation_field(norm)
        wavelengths, ok = ridge_wavelength(norm, theta, valid)
        _, forward, _ = _transforms(norm, theta, wavelengths, valid & ok)
        # Image transforms read norm or a view of it; kernel transforms do not.
        assert sum(np.shares_memory(x, norm) and x.shape != norm.shape for x, _ in forward) >= 2


def _dense_filter(minutiae, width, height, border_margin, min_distance):
    """The former n x n x 2 pairwise filter, kept as the oracle."""
    kept = [m for m in minutiae
            if border_margin <= m.x < width - border_margin
            and border_margin <= m.y < height - border_margin]
    if len(kept) < 2:
        return kept
    xy = np.array([[m.x, m.y] for m in kept], dtype=np.float64)
    diff = xy[:, None, :] - xy[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    close = (dist < min_distance).any(axis=1)
    return [m for m, c in zip(kept, close) if not c]


@st.composite
def _minutiae_sets(draw):
    """Scattered minutiae plus partners exactly 8 px away, duplicates and
    partners just inside or outside 8 px."""
    coord = st.integers(0, 79)
    points = draw(st.lists(st.tuples(coord, coord), max_size=40))
    offsets = st.sampled_from([(8, 0), (0, 8), (-8, 0), (0, -8), (0, 0),
                               (5, 6), (6, 6), (7, 3), (-4, 7), (1, 1)])
    partners = draw(st.lists(st.sampled_from(points), max_size=20)) if points else []
    for x, y in partners:
        dx, dy = draw(offsets)
        if 0 <= x + dx < 80 and 0 <= y + dy < 80:
            points.append((x + dx, y + dy))
    kinds = draw(st.lists(st.sampled_from(list(MinutiaKind)),
                          min_size=len(points), max_size=len(points)))
    return [Minutia(x=x, y=y, angle=0.0, kind=k) for (x, y), k in zip(points, kinds)]


class TestFilterFalseMinutiae:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(minutiae=_minutiae_sets(), border_margin=st.integers(0, 12),
           min_distance=st.sampled_from([8.0, 7.99, 8.01, 1.0, 0.0, -1.0, 20.0,
                                         float("inf"), float("nan")]))
    def test_same_survivors_as_dense(self, minutiae, border_margin, min_distance):
        got = _filter_false_minutiae(minutiae, 80, 80, border_margin, min_distance)
        assert got == _dense_filter(minutiae, 80, 80, border_margin, min_distance)

    def test_exactly_min_distance_apart_both_survive(self):
        a = Minutia(x=20, y=20, angle=0.0, kind=MinutiaKind.ENDING)
        b = Minutia(x=28, y=20, angle=0.0, kind=MinutiaKind.ENDING)
        c = Minutia(x=40, y=40, angle=0.0, kind=MinutiaKind.ENDING)
        d = Minutia(x=40, y=40, angle=1.0, kind=MinutiaKind.BIFURCATION)
        assert _filter_false_minutiae([a, b, c, d], 80, 80, 10, 8.0) == [a, b]

    def test_peak_memory_is_linear(self):
        """The dense filter held n x n x 2 float64 (~366 MiB at n = 4,000)."""
        def peak(n, column):
            rng = np.random.default_rng(n)
            xs = np.full(n, 100) if column else rng.integers(10, 502, n)
            minutiae = [Minutia(x=int(x), y=int(y), angle=0.0, kind=MinutiaKind.ENDING)
                        for x, y in zip(xs, rng.integers(10, 502, n))]
            tracemalloc.start()
            try:
                _filter_false_minutiae(minutiae, 512, 512, 10, 8.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for column in (False, True):   # True: one x for all, the sweep's worst case
            small, large = peak(1000, column), peak(4000, column)
            assert large < 1 << 20
            assert large < 6 * small   # 4x the points: ~4x the peak, not 16x


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = stripe_image(40, 30)
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_comments_in_header(self, tmp_path):
        img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        blob = b"P5\n# a comment\n4 4\n# another\n255\n" + img.pixels.tobytes()
        path = tmp_path / "c.pgm"
        path.write_bytes(blob)
        assert np.array_equal(read_pgm(path).pixels, img.pixels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_raw_blob(self):
        img = GrayImage.from_raw(bytes(range(12)), 4, 3)
        assert img.width == 4 and img.height == 3
        assert img.pixels[2, 3] == 11
        with pytest.raises(ValueError):
            GrayImage.from_raw(bytes(10), 4, 3)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(blob=hostile_blobs(b"P5\n# capture\n6 4\n255\n" + bytes(range(0, 240, 10))))
    def test_hostile_bytes_raise_only_value_error(self, tmp_path_factory, blob):
        try:
            img = GrayImage.from_pgm_bytes(blob)
        except ValueError:
            img = None
        else:
            assert img.pixels.size <= len(blob)
        path = tmp_path_factory.getbasetemp() / "hostile.pgm"
        path.write_bytes(blob)
        try:
            from_file = read_pgm(path)
        except ValueError:
            assert img is None
        else:
            assert img is not None and np.array_equal(from_file.pixels, img.pixels)
