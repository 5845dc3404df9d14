import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth import codec
from wearauth.fingerprint.minutiae import Minutia, MinutiaKind, Template, TemplateAlgorithm
from wearauth.matcher import (
    MAX_ROTATIONS, MatchParams, load_gallery, match, match_gallery,
)

from reference_matcher import reference_match

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
