"""Minutiae-set matching: alignment search, greedy pairing, score, decision.

Every same-kind probe/gallery pair proposes a translation at each rotation
of a discretized search range; the transform that pairs the most minutiae
(greedy nearest pairing within position/angle tolerances) wins.  Ties break
toward the tightest alignment (smallest summed pair distance), then the
smallest rotation, the smallest translation, the lexicographically first
pairing and finally the first candidate in (rotation, anchor pair) order, so
results are deterministic.

The search is exact but sparse.  At a rotation only the pairs that pass the
kind and angle tests can ever be paired, so one vectorized pass over all
rotations measures just those pairs under every candidate translation and
turns them into a per-translation upper bound on the pair count.  Greedy
pairing then runs on translations in descending-bound order and stops once
no remaining bound reaches the best pair count.  On the benchmark prints
(~23 minutiae) 40-170 of the 529 pairs are compatible at a rotation, so the
pass measures a fifth or less of the distances a dense search would; a
1:1 match takes ~8 ms instead of ~190 ms on a 2-core x86 host, and results
are identical to the dense search's.  Time still grows as rotations x n^4 in
the worst case (every pair compatible and in tolerance); memory does not
(see ``match``).
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
    "MAX_ROTATIONS",
    "CHUNK_ELEMENTS",
]

INDEX_FILENAME = "index.json"

#: Largest rotation grid ``MatchParams`` accepts (0.5 degree steps over +-180).
MAX_ROTATIONS = 721

#: Elements (candidate translation x compatible pair) measured per chunk.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class MatchParams:
    """Alignment and decision tolerances.

    Position tolerance is in absolute pixels, so rescaling both templates by
    a common factor can change the outcome; scale invariance is not claimed.
    Every field must be finite, and the rotation grid may hold at most
    ``MAX_ROTATIONS`` angles.
    """

    position_tolerance: float = 12.0          # px
    angle_tolerance: float = math.pi / 8.0    # rad
    score_threshold: float = 0.4
    rotation_range: float = math.pi / 6.0     # rad, searched symmetrically
    rotation_step: float = math.pi / 60.0     # rad

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
        if self.rotation_range < 0 or self.rotation_step <= 0:
            raise ValueError("rotation range must be >= 0 and step > 0")
        # 2*k + 1 angles with k = floor(ratio); compared as a float, so an
        # overflowing ratio is refused instead of raising OverflowError.
        if self._half_steps() >= (MAX_ROTATIONS + 1) // 2:
            raise ValueError(f"rotation grid exceeds {MAX_ROTATIONS} angles")

    def _half_steps(self) -> float:
        return self.rotation_range / self.rotation_step + 1e-9

    def rotations(self) -> list[float]:
        k = int(math.floor(self._half_steps()))
        return [i * self.rotation_step for i in range(-k, k + 1)]


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


def _pair_ok(kind_ok: np.ndarray, p_ang: np.ndarray, g_ang: np.ndarray,
             thetas: np.ndarray, angle_tolerance: float) -> np.ndarray:
    """(rotation, probe, gallery) mask of the pairs passing kind and angle tests."""
    rotated = (p_ang[None, :] + thetas[:, None]) % (2.0 * np.pi)
    return kind_ok & (_angular_diff(rotated[:, :, None], g_ang) <= angle_tolerance)


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
    """
    n_rot, n_p = rot.shape[:2]
    n_g = g_xy.shape[0]
    anchor_p, anchor_g = np.nonzero(kind_ok)
    n_anchor = anchor_p.size
    bounds = np.zeros(n_rot * n_anchor, dtype=np.min_scalar_type(min(n_p, n_g)))
    group = max(1, CHUNK_ELEMENTS // (n_p * n_g))
    for r0 in range(0, n_rot, group):
        ok = _pair_ok(kind_ok, p_ang, g_ang, thetas[r0:r0 + group], params.angle_tolerance)
        n_group = ok.shape[0]
        e_rot, e_p, e_g = np.nonzero(ok)
        del ok
        if e_rot.size == 0:
            continue
        # Each rotation's compatible pairs, padded to a common width; padding
        # sits at x = inf, so it never falls within the position tolerance.
        per_rot = np.bincount(e_rot, minlength=n_group)
        width = int(per_rot.max())
        slot = np.arange(e_rot.size) - (np.cumsum(per_rot) - per_rot)[e_rot]
        edge_p = np.zeros((n_group, width), dtype=np.intp)
        edge_p[e_rot, slot] = e_p
        edge_g = np.zeros((n_group, width), dtype=np.intp)
        edge_g[e_rot, slot] = e_g
        rot_x = np.full((n_group, width), np.inf)
        rot_x[e_rot, slot] = rot[r0 + e_rot, e_p, 0]
        gal_x = np.zeros((n_group, width))
        gal_x[e_rot, slot] = g_xy[e_g, 0]
        del e_rot, e_p, e_g, slot

        rows = max(1, CHUNK_ELEMENTS // max(width, n_p, n_g))
        n_rows = n_group * n_anchor
        for q0 in range(0, n_rows, rows):
            q = np.arange(q0, min(q0 + rows, n_rows))
            r, a = np.divmod(q, n_anchor)
            # Same float operations, in the same order, as the pairing in
            # ``match``: shift = gallery anchor - rotated probe anchor and
            # dist = hypot(rotated probe + shift - gallery), so the admitted
            # set is exactly the one pairing sees.  x decides first (|dx| is
            # a lower bound on dist); y and hypot run on the survivors only.
            shift = g_xy[anchor_g[a]] - rot[r0 + r, anchor_p[a]]
            dx = rot_x[r]
            dx += shift[:, 0, None]
            dx -= gal_x[r]
            np.abs(dx, out=dx)
            near = np.flatnonzero(dx <= params.position_tolerance)
            i, j = np.divmod(near, width)
            ri = r[i]
            p, g = edge_p[ri, j], edge_g[ri, j]
            del j
            dy = (rot[r0 + ri, p, 1] + shift[i, 1]) - g_xy[g, 1]
            hit = np.hypot(dx.ravel()[near], dy) <= params.position_tolerance
            del dx, dy, near, ri
            i, p, g = i[hit], p[hit], g[hit]
            seen_p = np.zeros((q.size, n_p), dtype=bool)
            seen_p[i, p] = True
            seen_g = np.zeros((q.size, n_g), dtype=bool)
            seen_g[i, g] = True
            bounds[r0 * n_anchor + q] = np.minimum(seen_p.sum(axis=1), seen_g.sum(axis=1))
    return bounds


def match(probe: Template, gallery: Template, params: MatchParams | None = None) -> MatchResult:
    """Best alignment of two templates with its similarity score.

    Score is 2*pairs/(n_probe + n_gallery); both-empty scores 0 and rejects.

    The bound pass measures ``CHUNK_ELEMENTS`` = 2**16 (candidate
    translation, compatible pair) elements at a time, or one translation's
    pairs when those alone are more (past 256 x 256 minutiae).  Transient
    memory therefore stays under 10 MiB (6.5 MiB measured at 55 x 55 with
    every pair compatible and in tolerance; ~1.5 MiB on real prints), plus
    16 bytes per rotated probe minutia and up to 10 bytes per candidate
    translation (rotations x kind-compatible pairs: at most 75,600 for two
    60-minutia templates on the default 21-angle grid).
    """
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

    thetas = params.rotations()
    theta_arr = np.array(thetas)
    rot = np.stack([p_xy @ np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
                    for t in thetas])  # row-vector rotation by each theta
    bounds = _pair_bounds(rot, g_xy, p_ang, g_ang, kind_ok, theta_arr, params)

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
            theta = thetas[r]
            if r != ok_rot:  # visits run in rotation order within a level
                ok_rot, ok = r, _pair_ok(kind_ok, p_ang, g_ang, theta_arr[r:r + 1],
                                         params.angle_tolerance)[0]
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
    index = json.loads(index_path.read_text())
    if not isinstance(index, dict):
        raise ValueError("gallery index must map labels to filenames")
    gallery = {}
    for label, filename in sorted(index.items()):
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
