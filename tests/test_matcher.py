import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth import codec, matcher
from wearauth.fingerprint.minutiae import Minutia, MinutiaKind, Template, TemplateAlgorithm
from wearauth.matcher import (
    CHUNK_ELEMENTS, MAX_ROTATIONS, MatchParams, load_gallery, match, match_gallery,
)

from reference_matcher import reference_match, reference_pair_bounds

E, B = MinutiaKind.ENDING, MinutiaKind.BIFURCATION


def T(points, w=300, h=300):
    ms = tuple(Minutia(x=x, y=y, angle=a % (2 * math.pi), kind=k) for x, y, a, k in points)
    return Template(width=w, height=h, algorithm=TemplateAlgorithm.HIGH_ACCURACY, minutiae=ms)


def random_template(rng, n, w=300, h=300):
    pts = [(int(x), int(y), float(a), E if rng.random() < 0.6 else B)
           for x, y, a in zip(rng.integers(20, w - 20, n), rng.integers(20, h - 20, n),
                              rng.uniform(0, 2 * math.pi, n))]
    return T(pts, w, h)


class TestMatch:
    def test_self_match_is_perfect(self):
        rng = np.random.default_rng(42)
        t = random_template(rng, 28)
        res = match(t, t)
        assert res.score == 1.0
        assert res.transform == (0.0, 0.0, 0.0)
        assert res.decision == "accept"
        assert len(res.pairs) == 28

    def test_known_translation_recovered(self):
        rng = np.random.default_rng(42)
        t = random_template(rng, 28)
        shifted = T([(m.x + 5, m.y - 3, m.angle, m.kind) for m in t.minutiae], 320, 320)
        res = match(t, shifted)
        assert res.score == 1.0
        assert res.transform[0] == pytest.approx(5.0, abs=1e-9)
        assert res.transform[1] == pytest.approx(-3.0, abs=1e-9)
        assert res.transform[2] == 0.0

    def test_known_rotation_recovered(self):
        rng = np.random.default_rng(1)
        t = random_template(rng, 20)
        theta = math.pi / 30  # on the search grid
        c, s = math.cos(theta), math.sin(theta)
        pts = [(int(round(m.x * c - m.y * s)) + 50, int(round(m.x * s + m.y * c)),
                m.angle + theta, m.kind) for m in t.minutiae]
        res = match(t, T(pts, 500, 500))
        assert res.score == 1.0
        assert res.transform[2] == pytest.approx(theta)

    def test_disjoint_kinds_score_zero(self):
        endings = T([(50 + 40 * i, 50, 0.0, E) for i in range(4)], 500, 500)
        bifurcations = T([(60 + 40 * i, 300, 0.0, B) for i in range(4)], 500, 500)
        res = match(endings, bifurcations)
        assert res.score == 0.0
        assert res.decision == "reject"
        assert res.pairs == ()

    def test_incompatible_angles_score_zero(self):
        a = T([(50 + 40 * i, 50, 0.0, E) for i in range(4)], 500, 500)
        b = T([(50 + 40 * i, 50, math.pi, E) for i in range(4)], 500, 500)
        # angle gap of pi exceeds tolerance + rotation range everywhere
        assert match(a, b).score == 0.0

    def test_empty_cases(self):
        empty = T([])
        something = T([(50, 50, 0.0, E)])
        for probe, gallery in ((empty, empty), (empty, something), (something, empty)):
            res = match(probe, gallery)
            assert res.score == 0.0
            assert res.decision == "reject"

    def test_variants_do_not_match(self):
        """A template of one extraction variant is refused against the other's,
        even an empty one, instead of scoring near zero."""
        high = T([(100, 100, 0.0, E)])
        for minutiae in (high.minutiae, ()):
            light = Template(width=300, height=300, algorithm=TemplateAlgorithm.LIGHTWEIGHT,
                             minutiae=minutiae)
            for probe, gallery in ((light, high), (high, light)):
                with pytest.raises(ValueError, match="cannot match"):
                    match(probe, gallery)
            assert match(light, light).score == (1.0 if minutiae else 0.0)

    def test_score_formula(self):
        # one pair out of 1 and 3 minutiae: 2*1/(1+3)
        probe = T([(100, 100, 0.0, E)])
        gallery = T([(100, 100, 0.0, E), (200, 100, math.pi, B), (100, 200, math.pi, B)])
        res = match(probe, gallery)
        assert res.score == pytest.approx(0.5)
        assert res.decision == "accept"

    def test_threshold_decision(self):
        probe = T([(100, 100, 0.0, E), (150, 220, 2.0, B)])
        gallery = T([(100, 100, 0.0, E), (250, 40, 4.0, B)])
        res = match(probe, gallery, MatchParams(score_threshold=0.6))
        assert res.score == pytest.approx(0.5)
        assert res.decision == "reject"


class TestMatchProperties:
    def test_score_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            a = random_template(rng, int(rng.integers(3, 15)))
            b = random_template(rng, int(rng.integers(3, 15)))
            assert match(a, b).score == pytest.approx(match(b, a).score, abs=1e-12)

    def test_score_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            a = random_template(rng, int(rng.integers(1, 12)))
            b = random_template(rng, int(rng.integers(1, 12)))
            assert 0.0 <= match(a, b).score <= 1.0

    def test_monotone_in_position_tolerance(self):
        rng = np.random.default_rng(9)
        a = random_template(rng, 10)
        b = random_template(rng, 10)
        scores = [match(a, b, MatchParams(position_tolerance=tol)).score
                  for tol in (2.0, 6.0, 12.0, 20.0)]
        assert all(s1 <= s2 for s1, s2 in zip(scores, scores[1:]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        a = random_template(rng, 12)
        b = random_template(rng, 9)
        shift = lambda t: T([(m.x + 17, m.y + 11, m.angle, m.kind) for m in t.minutiae],
                            t.width + 40, t.height + 40)
        assert match(a, b).score == pytest.approx(match(shift(a), shift(b)).score, abs=1e-12)

    def test_pairing_is_one_to_one(self):
        rng = np.random.default_rng(11)
        a = random_template(rng, 15)
        b = random_template(rng, 15)
        res = match(a, b, MatchParams(position_tolerance=40.0))
        probes = [p for p, _ in res.pairs]
        galleries = [g for _, g in res.pairs]
        assert len(probes) == len(set(probes))
        assert len(galleries) == len(set(galleries))


_ANGLES = (0.0, 0.3, math.pi / 2, math.pi, 4.0)


@st.composite
def _templates(draw, spread, one_kind):
    """0-14 minutiae; a small spread forces duplicate positions and key ties."""
    n = draw(st.integers(0, 14))
    pts = [(draw(st.integers(20, 20 + spread)), draw(st.integers(20, 20 + spread)),
            draw(st.one_of(st.sampled_from(_ANGLES),
                           st.floats(0.0, 2 * math.pi, exclude_max=True))),
            E if one_kind else draw(st.sampled_from((E, B))))
           for _ in range(n)]
    return T(pts)


@st.composite
def _params(draw):
    rotation_range = draw(st.sampled_from((0.0, math.pi / 30, math.pi / 6)))
    half_steps = draw(st.integers(1, 5))
    on_grid = rotation_range / half_steps if rotation_range else math.pi / 60
    rotation_step = draw(st.sampled_from((on_grid, on_grid * 0.77)))  # on / off grid
    # Whole-pixel tolerances meet integer distances (3-4-5) exactly at the edge.
    position_tolerance = draw(st.one_of(st.sampled_from((1.0, 5.0, 10.0)),
                                        st.floats(0.5, 40.0)))
    return MatchParams(position_tolerance=position_tolerance,
                       angle_tolerance=draw(st.floats(0.01, math.pi)),
                       score_threshold=draw(st.floats(0.05, 0.95)),
                       rotation_range=rotation_range, rotation_step=rotation_step)


@st.composite
def _match_cases(draw):
    spread = draw(st.sampled_from((0, 4, 40, 250)))
    one_kind = draw(st.booleans())
    return (draw(_templates(spread, one_kind)), draw(_templates(spread, one_kind)),
            draw(_params()))


class TestSparseSearchIsExact:
    """The sparse search returns exactly what the exhaustive dense search does."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(_match_cases())
    def test_equals_reference(self, case):
        probe, gallery, params = case
        assert match(probe, gallery, params) == reference_match(probe, gallery, params)

    def test_key_tie_goes_to_the_first_rotation(self):
        # The probe minutia at the origin lands on gallery minutia 0 with the
        # same key at theta = -1 and +1.  At +1 two more compatible pairs lie
        # in tolerance, so that translation has the larger bound and is tried
        # first; the dense search met -1 first, and -1 must still win.
        probe = T([(0, 0, 0.0, E), (0, 4, 0.3, E)])
        gallery = T([(50, 50, math.pi, E), (52, 54, math.pi - 0.3, E)])
        params = MatchParams(position_tolerance=5.0, angle_tolerance=math.pi - 1.0 + 1e-6,
                             rotation_range=1.0, rotation_step=1.0)
        res = match(probe, gallery, params)
        assert res == reference_match(probe, gallery, params)
        assert res.pairs == ((0, 0),)
        assert res.transform == (50.0, 50.0, -1.0)

    def test_benchmark_sized_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            a, b = random_template(rng, 23), random_template(rng, 23)
            params = MatchParams(position_tolerance=30.0)
            assert match(a, b, params) == reference_match(a, b, params)


def _bound_inputs(p_pts, g_pts, params):
    """``_pair_bounds`` arguments for (x, y, angle, kind) points, as ``match`` builds them."""
    p_xy = np.array([(x, y) for x, y, _, _ in p_pts], dtype=np.float64).reshape(-1, 2)
    g_xy = np.array([(x, y) for x, y, _, _ in g_pts], dtype=np.float64).reshape(-1, 2)
    p_ang = np.array([a for _, _, a, _ in p_pts], dtype=np.float64)
    g_ang = np.array([a for _, _, a, _ in g_pts], dtype=np.float64)
    kind_ok = (np.array([k for *_, k in p_pts])[:, None]
               == np.array([k for *_, k in g_pts])[None, :])
    thetas = params.rotations()
    rot = np.stack([p_xy @ np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
                    for t in thetas])
    return rot, g_xy, p_ang, g_ang, kind_ok, np.array(thetas), params


def _bounds_agree(args, chunk=CHUNK_ELEMENTS):
    expected = reference_pair_bounds(*args)
    with mock.patch.object(matcher, "CHUNK_ELEMENTS", chunk):
        bounds = matcher._pair_bounds(*args)
    assert bounds.dtype == expected.dtype
    assert np.array_equal(bounds, expected)
    return bounds


@st.composite
def _bound_cases(draw):
    """Points on a tiny to wide grid (coincident minutiae, whole-pixel
    distances that meet whole-pixel tolerances exactly), or off it; one kind
    or two; angle tolerances from nearly none to every pair compatible."""
    spread = draw(st.sampled_from((0, 3, 12, 60, 400)))
    coord = st.one_of(st.integers(-spread, spread),
                      st.floats(-spread, spread, allow_subnormal=False))
    one_kind = draw(st.booleans())
    angle = st.one_of(st.sampled_from(_ANGLES), st.floats(0.0, 2 * math.pi, exclude_max=True))
    points = st.lists(st.tuples(coord, coord, angle,
                                st.just(0) if one_kind else st.integers(0, 1)),
                      min_size=1, max_size=12)
    rotation_range = draw(st.sampled_from((0.0, math.pi / 30, math.pi / 6)))
    params = MatchParams(
        position_tolerance=draw(st.one_of(st.sampled_from((1.0, 5.0, 10.0)),
                                          st.floats(0.5, 40.0))),
        angle_tolerance=draw(st.one_of(st.sampled_from((1e-3, math.pi)),
                                       st.floats(0.01, math.pi))),
        rotation_range=rotation_range,
        rotation_step=rotation_range / draw(st.integers(1, 5)) if rotation_range else 0.1)
    chunk = draw(st.sampled_from((CHUNK_ELEMENTS, 64, 5)))
    return _bound_inputs(draw(points), draw(points), params), chunk


class TestSweepBoundsAreExact:
    """The sweep-line bound pass returns exactly the padded pass's bounds."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_bound_cases())
    def test_equals_reference(self, case):
        args, chunk = case
        _bounds_agree(args, chunk)

    def test_rotations_without_a_compatible_pair(self):
        # Only theta = 0 brings the probe angle within 1e-3 of the gallery's.
        pts = [(10 * i, 7 * i, 1.0, 0) for i in range(6)]
        args = _bound_inputs(pts, pts, MatchParams(angle_tolerance=1e-3))
        bounds = _bounds_agree(args).reshape(len(args[-2]), -1)
        zero = list(args[-2]).index(0.0)
        assert bounds[zero].max() == 6
        assert not np.delete(bounds, zero, axis=0).any()

    @pytest.mark.parametrize("chunk", [CHUNK_ELEMENTS, 64, 5])
    def test_every_pair_compatible(self, chunk):
        rng = np.random.default_rng(4)
        pts = [(int(x), int(y), float(a), 0) for x, y, a in
               zip(rng.integers(0, 40, 15), rng.integers(0, 40, 15), rng.uniform(0, 6, 15))]
        _bounds_agree(_bound_inputs(pts, pts[::-1], MatchParams(angle_tolerance=math.pi)), chunk)

    def test_coincident_minutiae(self):
        pts = [(50, 50, 0.0, 0)] * 5
        bounds = _bounds_agree(_bound_inputs(pts, pts[:3], MatchParams()))
        assert bounds.max() == 3

    def test_more_near_minutiae_than_a_byte_counts(self):
        # 260 probe minutiae within tolerance of a 10-minutia gallery: the
        # probe side's count passes 255 although the bound itself fits a byte.
        probe = [(i % 4, i // 4 % 4, 0.0, 0) for i in range(260)]
        gallery = [(i % 3, i // 3, 0.0, 0) for i in range(10)]
        bounds = _bounds_agree(_bound_inputs(probe, gallery, MatchParams(rotation_range=0.0)))
        assert bounds.min() == 10

    def test_distance_of_exactly_the_tolerance(self):
        # Aligned on their first minutiae, the second ones lie (3, 4) apart,
        # on the hypot test's edge, or (5, 0) apart, on the x pre-test's edge:
        # in tolerance at 5.0, out of it one ulp below.
        probe = [(0, 0, 0.0, 0), (10, 0, 0.0, 0)]
        for second in ((113, 104, 0.0, 0), (115, 100, 0.0, 0)):
            gallery = [(100, 100, 0.0, 0), second]
            first = [_bounds_agree(_bound_inputs(probe, gallery, MatchParams(
                         position_tolerance=tol, rotation_range=0.0)))[0]
                     for tol in (5.0, math.nextafter(5.0, 0.0))]
            assert first == [2, 1], second


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatchMemory:
    def test_benchmark_sized_pair_peaks_below_dense_search(self):
        rng = np.random.default_rng(5)
        a, b = random_template(rng, 23), random_template(rng, 23)
        match(a, b)  # warm caches outside the measurement
        assert _peak_bytes(match, a, b) <= _peak_bytes(reference_match, a, b)

    def test_sixty_minutiae_stay_under_documented_ceiling(self):
        rng = np.random.default_rng(6)
        a, b = random_template(rng, 60), random_template(rng, 60)
        match(a, b)
        same_kind = sum(m.kind == n.kind for m in a.minutiae for n in b.minutiae)
        rotations = len(MatchParams().rotations())
        # Ceiling from ``match``'s docstring.
        ceiling = 10 * 2**20 + 16 * rotations * len(a) + 10 * rotations * same_kind
        assert _peak_bytes(match, a, b) <= ceiling

    def test_one_wide_rotation_stays_under_documented_ceiling(self):
        # 65,536 kind-compatible pairs on one rotation: the sort past 2**15
        # translations holds a whole rotation.
        rng = np.random.default_rng(7)
        pts = [(x, y, 0.0, 0) for x, y in rng.uniform(0, 3000, (512, 2)).tolist()]
        args = _bound_inputs(pts[:256], pts[256:], MatchParams(rotation_range=0.0,
                                                              angle_tolerance=math.pi))
        pairs = 256 * 256
        # Ceiling from ``match``'s docstring, on one rotation.
        ceiling = 10 * 2**20 + 16 * 256 + 10 * pairs + 150 * (pairs - 2**15)
        assert _peak_bytes(matcher._pair_bounds, *args) <= ceiling


class TestMatchParams:
    def test_rotation_grid_is_symmetric(self):
        rots = MatchParams().rotations()
        assert len(rots) == 21
        assert rots == sorted(rots)
        assert all(any(abs(r + q) < 1e-12 for q in rots) for r in rots)

    @pytest.mark.parametrize("kw", [
        {"position_tolerance": 0.0},
        {"angle_tolerance": -1.0},
        {"score_threshold": 0.0},
        {"score_threshold": 1.0},
        {"rotation_step": 0.0},
        {"position_tolerance": math.nan},
        {"position_tolerance": math.inf},
        {"angle_tolerance": math.nan},
        {"angle_tolerance": math.inf},
        {"score_threshold": math.nan},
        {"rotation_range": math.inf},
        {"rotation_range": math.nan},
        {"rotation_step": math.nan},
        {"rotation_step": math.inf},
        {"rotation_step": 1e-300},  # range/step overflows to inf
        {"position_tolerance": "12"},
        {"rotation_range": None},
        {"angle_tolerance": True},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            MatchParams(**kw)

    def test_rotation_grid_cap(self):
        # k half-steps give 2k + 1 angles; the cap is checked arithmetically,
        # so the refused grid is never built.
        k = (MAX_ROTATIONS - 1) // 2
        at_cap = MatchParams(rotation_range=k * 0.01, rotation_step=0.01)
        assert len(at_cap.rotations()) == MAX_ROTATIONS
        with pytest.raises(ValueError):
            MatchParams(rotation_range=(k + 1) * 0.01, rotation_step=0.01)
        with pytest.raises(ValueError):
            MatchParams(rotation_range=math.pi, rotation_step=1e-9)


class TestGallery:
    def _write(self, directory, entries):
        index = {}
        for label, template in entries.items():
            filename = f"{label}.fpt"
            (directory / filename).write_bytes(codec.encode(template))
            index[label] = filename
        (directory / "index.json").write_text(json.dumps(index))

    def test_load_and_rank(self, tmp_path):
        rng = np.random.default_rng(12)
        alice = random_template(rng, 12, 256, 256)
        bob = random_template(rng, 12, 256, 256)
        self._write(tmp_path, {"alice": alice, "bob": bob})
        gallery = load_gallery(tmp_path)
        assert set(gallery) == {"alice", "bob"}

        probe = codec.decode(codec.encode(alice))  # same quantization as stored
        results = match_gallery(probe, tmp_path)
        assert results[0]["label"] == "alice"
        assert results[0]["score"] == 1.0
        assert results[0]["decision"] == "accept"

    def test_missing_index(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_gallery(tmp_path)

    @pytest.mark.parametrize("filename", [5, None, ["x"], {"x": 1}, True])
    def test_index_entry_must_be_a_filename(self, tmp_path, filename):
        (tmp_path / "index.json").write_text(json.dumps({"a": filename}))
        with pytest.raises(ValueError, match="'a' must be a filename"):
            load_gallery(tmp_path)
