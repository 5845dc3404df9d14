"""Exhaustive dense alignment search, kept as the oracle for ``matcher.match``.

This is the matcher's original search, unchanged: at every rotation it scores
every kind-compatible anchor translation against every probe/gallery pair
through a dense ``translations x n_probe x n_gallery`` distance tensor.  It is
slow and memory-hungry on large templates, and it lives here only so that the
property tests can check that the sparse search returns the very same
``MatchResult``.
"""

from __future__ import annotations

import math

import numpy as np

from wearauth.fingerprint.minutiae import Template
from wearauth.matcher import MatchParams, MatchResult


def _angular_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b) % (2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


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


def reference_match(probe: Template, gallery: Template,
                    params: MatchParams | None = None) -> MatchResult:
    """Best alignment of two templates with its similarity score.

    Score is 2*pairs/(n_probe + n_gallery); both-empty scores 0 and rejects.
    """
    params = params or MatchParams()
    n_p, n_g = len(probe), len(gallery)
    if n_p == 0 or n_g == 0:
        return MatchResult(score=0.0, pairs=(), transform=(0.0, 0.0, 0.0), decision="reject")

    p_xy = np.array([[m.x, m.y] for m in probe.minutiae], dtype=np.float64)
    g_xy = np.array([[m.x, m.y] for m in gallery.minutiae], dtype=np.float64)
    p_ang = np.array([m.angle for m in probe.minutiae])
    g_ang = np.array([m.angle for m in gallery.minutiae])
    p_kind = np.array([m.kind.value for m in probe.minutiae])
    g_kind = np.array([m.kind.value for m in gallery.minutiae])
    kind_ok = p_kind[:, None] == g_kind[None, :]

    best_key: tuple | None = None
    best: tuple[list[tuple[int, int]], tuple[float, float, float]] | None = None
    # Bound transient tensors to ~batch*n_p*n_g floats regardless of template size.
    batch = max(1, 2_000_000 // max(1, n_p * n_g))

    for theta in params.rotations():
        c, s = math.cos(theta), math.sin(theta)
        rot = p_xy @ np.array([[c, s], [-s, c]])  # row-vector rotation by theta
        ang_ok = _angular_diff((p_ang + theta)[:, None] % (2.0 * np.pi),
                               g_ang[None, :]) <= params.angle_tolerance
        pair_ok = kind_ok & ang_ok
        anchor_p, anchor_g = np.nonzero(kind_ok)
        if anchor_p.size == 0:
            continue
        translations = g_xy[anchor_g] - rot[anchor_p]
        for start in range(0, translations.shape[0], batch):
            chunk = translations[start:start + batch]
            shifted = rot[None, :, :] + chunk[:, None, :]
            delta = shifted[:, :, None, :] - g_xy[None, None, :, :]
            dist = np.hypot(delta[..., 0], delta[..., 1])
            admissible = (dist <= params.position_tolerance) & pair_ok[None, :, :]
            bounds = np.minimum(admissible.any(axis=2).sum(axis=1),
                                admissible.any(axis=1).sum(axis=1))
            current_best = -best_key[0] if best_key is not None else 1
            for t_idx in np.nonzero(bounds >= current_best)[0].tolist():
                pairs = _greedy_pairs(dist[t_idx], admissible[t_idx])
                if not pairs:
                    continue
                dx, dy = chunk[t_idx]
                residual = float(sum(dist[t_idx][p, g] for p, g in pairs))
                key = (-len(pairs), residual, abs(theta), abs(dx) + abs(dy), tuple(pairs))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (pairs, (float(dx), float(dy), theta))
                    current_best = len(pairs)

    if best is None:
        return MatchResult(score=0.0, pairs=(), transform=(0.0, 0.0, 0.0), decision="reject")
    pairs, transform = best
    score = 2.0 * len(pairs) / (n_p + n_g)
    decision = "accept" if score >= params.score_threshold else "reject"
    return MatchResult(score=score, pairs=tuple(pairs), transform=transform, decision=decision)
