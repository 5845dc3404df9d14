"""Minutiae-set matching: alignment search, greedy pairing, score, decision.

Every same-kind probe/gallery pair proposes a translation at each of the 21
rotations of one fixed grid (:data:`ROTATIONS`, -30 to +30 degrees in 3
degree steps); the transform that pairs the most minutiae
(greedy nearest pairing within position/angle tolerances) wins.  Ties break
toward the tightest alignment (smallest summed pair distance), then the
smallest rotation, the smallest translation, the lexicographically first
pairing and finally the first candidate in (rotation, anchor pair) order, so
results are deterministic.

The search is exact but sparse.  At a rotation only the pairs that pass the
kind and angle tests can ever be paired, so one vectorized pass over all
rotations turns those pairs into a per-translation upper bound on the pair
count.  The pass is a sweep line: each rotation's pairs are sorted by their
x offset, and a translation measures only the run of pairs within x
tolerance of its own shift, found by binary search.  Greedy pairing then
runs on translations in descending-bound order and stops once no remaining
bound reaches the best pair count.  On the benchmark prints (~23 minutiae)
the runs hold ~7 % of the (translation, compatible pair) elements; a 1:1
match takes ~6 ms, ~4.5 ms of it in the bound pass, on a 2-core x86 host
(~190 ms for the dense search), and results are identical to the dense
search's.  Time still grows as 21 x n^4 in the worst case (every pair
compatible and in tolerance); memory does not (see ``match``).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import codec
from .fingerprint.minutiae import Template

__all__ = [
    "MatchParams",
    "MatchResult",
    "match",
    "load_gallery",
    "match_gallery",
    "INDEX_FILENAME",
    "ROTATIONS",
    "CHUNK_ELEMENTS",
]

INDEX_FILENAME = "index.json"

#: The rotations searched, in radians: -30 to +30 degrees in 3 degree steps.
ROTATIONS = tuple(i * (math.pi / 60.0) for i in range(-10, 11))

#: Elements (candidate translation x compatible pair) measured per chunk.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class MatchParams:
    """Alignment and decision tolerances.

    Position tolerance is in absolute pixels, so rescaling both templates by
    a common factor can change the outcome; scale invariance is not claimed.
    Every field must be finite.
    """

    position_tolerance: float = 12.0          # px
    angle_tolerance: float = math.pi / 8.0    # rad
    score_threshold: float = 0.4

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.position_tolerance <= 0 or self.angle_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.score_threshold < 1:
            raise ValueError("score_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class MatchResult:
    score: float
    pairs: tuple[tuple[int, int], ...]   # (probe index, gallery index)
    transform: tuple[float, float, float]  # dx, dy, dtheta
    decision: str                          # "accept" | "reject"

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


_NO_MATCH = MatchResult(score=0.0, pairs=(), transform=(0.0, 0.0, 0.0), decision="reject")


def _angular_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b) % (2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


def _angle_ok(p_ang: np.ndarray, g_ang: np.ndarray, theta, angle_tolerance: float) -> np.ndarray:
    """Whether probe angles rotated by ``theta`` lie within tolerance of gallery
    angles (broadcasting)."""
    return _angular_diff((p_ang + theta) % (2.0 * np.pi), g_ang) <= angle_tolerance


def _greedy_pairs(dist: np.ndarray, admissible: np.ndarray) -> list[tuple[int, int]]:
    """One-to-one pairing, nearest admissible pair first (index order on ties)."""
    ps, gs = np.nonzero(admissible)
    if ps.size == 0:
        return []
    order = np.lexsort((gs, ps, dist[ps, gs]))
    used_p = np.zeros(dist.shape[0], dtype=bool)
    used_g = np.zeros(dist.shape[1], dtype=bool)
    pairs = []
    for idx in order.tolist():
        p, g = int(ps[idx]), int(gs[idx])
        if not used_p[p] and not used_g[g]:
            used_p[p] = used_g[g] = True
            pairs.append((p, g))
    return pairs


def _pair_bounds(rot: np.ndarray, g_xy: np.ndarray, p_ang: np.ndarray, g_ang: np.ndarray,
                 kind_ok: np.ndarray, thetas: np.ndarray, params: MatchParams) -> np.ndarray:
    """Upper bound on the pair count of every candidate translation.

    Translation ``r * n_anchor + a`` is rotation ``r`` with anchor pair ``a``
    of ``np.nonzero(kind_ok)`` aligned.  Its bound is the smaller of the
    numbers of distinct probe and gallery minutiae that fall within the
    position tolerance of a kind- and angle-compatible partner.

    A sweep line finds the candidates.  At each rotation the kind-compatible
    pairs are sorted by ``key = rot_x - gal_x``; the key of anchor pair ``a``
    is minus the x shift of its translation, and the compatible pairs within
    x tolerance of that translation form one run of keys around it, found by
    binary search.  Only that run, widened by a bound on the rounding error,
    is measured.
    """
    n_rot, n_p = rot.shape[:2]
    n_g = g_xy.shape[0]
    anchor_p, anchor_g = np.nonzero(kind_ok)
    n_anchor = anchor_p.size
    tol = params.position_tolerance
    bounds = np.zeros(n_rot * n_anchor, dtype=np.min_scalar_type(min(n_p, n_g)))
    # Rounding slack of the run: with u = eps / 2 and M the largest
    # |rot_x| + |gal_x|, key + sx lies within 6uM of the measured
    # fl(fl(rot_x + sx) - gal_x), and the run's ends round by u(M + tol)
    # more, so a run widened by 16u(M + tol) holds every pair that passes the
    # x test below.  The y pre-test uses the same reach, so it drops only
    # pairs that hypot would reject even if it erred by a few ulps.
    reach = tol + 8 * np.finfo(np.float64).eps * (
        np.abs(rot[..., 0]).max() + np.abs(g_xy[:, 0]).max() + tol)
    # A group's per-translation arrays (~150 B each) stay under 5 MiB, unless
    # one rotation alone holds more than 2**15 translations.
    group = max(1, CHUNK_ELEMENTS // max(1, 2 * n_anchor))
    rows = max(1, CHUNK_ELEMENTS // max(n_p, n_g))
    for r0 in range(0, n_rot, group):
        r = np.arange(r0, min(r0 + group, n_rot))[:, None]
        key = rot[r, anchor_p, 0] - g_xy[anchor_g, 0]
        order = np.argsort(key, axis=1)
        key = np.take_along_axis(key, order, axis=1)
        ap, ag = anchor_p[order], anchor_g[order]
        compatible = _angle_ok(p_ang[ap], g_ang[ag], thetas[r], params.angle_tolerance)
        if not compatible.any():
            continue
        r = np.broadcast_to(r, order.shape)
        # numpy orders complex numbers lexicographically, so one binary search
        # over rotation + 1j * key finds a run within its own rotation.
        sweep = np.empty(key.shape, dtype=np.complex128)
        sweep.real = r
        sweep.imag = key
        del key
        run_keys = sweep[compatible]
        lo = np.searchsorted(run_keys, (sweep - 1j * reach).ravel(), side="left")
        hi = np.searchsorted(run_keys, (sweep + 1j * reach).ravel(), side="right")
        del sweep, run_keys
        cr, cp, cg = r[compatible], ap[compatible], ag[compatible]
        px, py, gx, gy = rot[cr, cp, 0], rot[cr, cp, 1], g_xy[cg, 0], g_xy[cg, 1]
        del cr, compatible
        sx = (g_xy[ag, 0] - rot[r, ap, 0]).ravel()
        sy = (g_xy[ag, 1] - rot[r, ap, 1]).ravel()
        target = (r * n_anchor + order).ravel()  # translation index
        del r, ap, ag, order
        count = hi - lo
        done = np.cumsum(count)
        n_rows = count.size
        q0 = 0
        while q0 < n_rows:
            # At most CHUNK_ELEMENTS measured pairs (or one translation's run)
            # and ``rows`` translations per chunk.
            q1 = int(np.searchsorted(done, done[q0] - count[q0] + CHUNK_ELEMENTS,
                                     side="right"))
            q1 = min(max(q1, q0 + 1), q0 + rows, n_rows)
            c = count[q0:q1]
            t = np.repeat(np.arange(q0, q1), c)
            pair = np.repeat(lo[q0:q1] - (np.cumsum(c) - c), c)
            pair += np.arange(pair.size)
            # Same float operations, in the same order, as the pairing in
            # ``match``: shift = gallery anchor - rotated probe anchor and
            # dist = hypot(rotated probe + shift - gallery), so the admitted
            # set is exactly the one pairing sees.  x decides first (|dx| is
            # a lower bound on dist); y and hypot run on the survivors only.
            dx = px[pair]
            dx += sx[t]
            dx -= gx[pair]
            np.abs(dx, out=dx)
            near = np.flatnonzero(dx <= tol)
            dx, t, pair = dx[near], t[near], pair[near]
            dy = py[pair]
            dy += sy[t]
            dy -= gy[pair]
            near = np.flatnonzero(np.abs(dy) <= reach)
            hit = near[np.hypot(dx[near], dy[near]) <= tol]
            t, pair = t[hit] - q0, pair[hit]
            del dx, dy, near, hit
            seen_p = np.zeros((q1 - q0, n_p), dtype=bool)
            seen_p[t, cp[pair]] = True
            seen_g = np.zeros((q1 - q0, n_g), dtype=bool)
            seen_g[t, cg[pair]] = True
            bounds[target[q0:q1]] = np.minimum(seen_p.sum(axis=1), seen_g.sum(axis=1))
            q0 = q1
        # Free this group's arrays before the next group builds its own.
        del lo, hi, px, py, gx, gy, cp, cg, sx, sy, target, count, done
    return bounds


def match(probe: Template, gallery: Template, params: MatchParams | None = None) -> MatchResult:
    """Best alignment of two templates with its similarity score.

    Score is 2*pairs/(n_probe + n_gallery); both-empty scores 0 and rejects.
    Templates of different extraction variants raise :class:`ValueError`:
    their minutiae are not comparable.

    The bound pass measures ``CHUNK_ELEMENTS`` = 2**16 (candidate
    translation, compatible pair) elements at a time, or one translation's
    pairs when those alone are more (past 256 x 256 minutiae), and sorts the
    pairs of 2**15 translations' worth of rotations at a time (one rotation
    when that alone has more).  Transient memory therefore stays under
    10 MiB (6.6 MiB measured at 55 x 55 with every pair compatible and in
    tolerance, ~2 MiB on real prints), plus 16 bytes per rotated probe
    minutia (21 rotations each), up to 10 bytes per candidate translation
    (21 x kind-compatible pairs: at most 75,600 for two 60-minutia templates)
    and, for the one-rotation sort, ~150 bytes per kind-compatible pair past
    2**15 (11.3 MiB measured at 256 x 256 one-kind minutiae, 22 MiB at
    400 x 400).

    The grid is fixed, so the worst case depends on the two templates alone.
    The codec holds at most 255 minutiae a template: at most 21 x 255 x 255 =
    1,365,525 candidate translations, and a memory ceiling of ~28 MiB by the
    sum above (the bound pass peaked at 12.4 MiB at 255 x 255 one-kind,
    angle-compatible minutiae).  Time is bounded only by the 21 x n_p**2 x
    n_g**2 pair tests of a pair whose every minutia lies within tolerance of
    every other: such a clustered pair took 30.5 s at 40 x 40 on a 2-core x86
    host, and grows as n**4 from there.
    """
    if probe.algorithm is not gallery.algorithm:
        raise ValueError(f"a {probe.algorithm.value} probe cannot match a "
                         f"{gallery.algorithm.value} gallery template")
    params = params or MatchParams()
    n_p, n_g = len(probe), len(gallery)
    if n_p == 0 or n_g == 0:
        return _NO_MATCH

    p_xy = np.array([[m.x, m.y] for m in probe.minutiae], dtype=np.float64)
    g_xy = np.array([[m.x, m.y] for m in gallery.minutiae], dtype=np.float64)
    p_ang = np.array([m.angle for m in probe.minutiae])
    g_ang = np.array([m.angle for m in gallery.minutiae])
    p_kind = np.array([m.kind.value for m in probe.minutiae])
    g_kind = np.array([m.kind.value for m in gallery.minutiae])
    kind_ok = p_kind[:, None] == g_kind[None, :]
    anchor_p, anchor_g = np.nonzero(kind_ok)
    if anchor_p.size == 0:
        return _NO_MATCH

    rot = np.stack([p_xy @ np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
                    for t in ROTATIONS])  # row-vector rotation by each theta
    bounds = _pair_bounds(rot, g_xy, p_ang, g_ang, kind_ok, np.array(ROTATIONS), params)

    # The winner is the candidate with the smallest key, the dense search's
    # visiting index (rotation, anchor) last, so any visiting order finds it;
    # descending bounds let the search stop early.
    best_key: tuple | None = None
    best: tuple[list[tuple[int, int]], tuple[float, float, float]] | None = None
    ok_rot, ok = -1, None
    for level in range(int(bounds.max()), 0, -1):
        if best_key is not None and level < -best_key[0]:
            break
        for t_idx in np.flatnonzero(bounds == level).tolist():
            r, a = divmod(t_idx, anchor_p.size)
            theta = ROTATIONS[r]
            if r != ok_rot:  # visits run in rotation order within a level
                ok_rot, ok = r, kind_ok & _angle_ok(p_ang[:, None], g_ang, theta,
                                                    params.angle_tolerance)
            shift = g_xy[anchor_g[a]] - rot[r, anchor_p[a]]
            delta = (rot[r] + shift)[:, None, :] - g_xy[None, :, :]
            dist = np.hypot(delta[..., 0], delta[..., 1])
            admissible = (dist <= params.position_tolerance) & ok
            pairs = _greedy_pairs(dist, admissible)
            dx, dy = shift
            residual = float(sum(dist[p, g] for p, g in pairs))
            key = (-len(pairs), residual, abs(theta), abs(dx) + abs(dy), tuple(pairs), t_idx)
            if best_key is None or key < best_key:
                best_key = key
                best = (pairs, (float(dx), float(dy), theta))

    if best is None:
        return _NO_MATCH
    pairs, transform = best
    score = 2.0 * len(pairs) / (n_p + n_g)
    decision = "accept" if score >= params.score_threshold else "reject"
    return MatchResult(score=score, pairs=tuple(pairs), transform=transform, decision=decision)


def load_gallery(directory: str | Path) -> dict[str, Template]:
    """Load labelled templates from a directory with an ``index.json`` map."""
    directory = Path(directory)
    index_path = directory / INDEX_FILENAME
    if not index_path.is_file():
        raise FileNotFoundError(f"gallery index {index_path} not found")
    try:
        index = json.loads(index_path.read_text())
    except RecursionError:
        raise ValueError("gallery index nests too deeply") from None
    if not isinstance(index, dict):
        raise ValueError("gallery index must map labels to filenames")
    gallery = {}
    for label, filename in sorted(index.items()):
        if not isinstance(filename, str):
            raise ValueError(f"gallery index entry {label!r} must be a filename, got {filename!r}")
        gallery[label] = codec.decode((directory / filename).read_bytes())
    return gallery


def match_gallery(probe: Template, directory: str | Path,
                  params: MatchParams | None = None) -> list[dict]:
    """Match a probe against every gallery entry, best score first."""
    params = params or MatchParams()
    results = []
    for label, template in load_gallery(directory).items():
        res = match(probe, template, params)
        results.append({
            "label": label,
            "score": res.score,
            "decision": res.decision,
            "pairs": len(res.pairs),
        })
    results.sort(key=lambda r: (-r["score"], r["label"]))
    return results
