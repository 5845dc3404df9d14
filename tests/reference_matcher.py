"""Oracles for ``matcher.match`` and its bound pass.

``reference_match`` is the matcher's original search, unchanged but for
reading the one fixed rotation grid ``ROTATIONS``: at every rotation it
scores every kind-compatible anchor translation against every probe/gallery
pair through a dense ``translations x n_probe x n_gallery`` distance tensor.  It is slow and memory-hungry on large templates, and it
lives here only so that the property tests can check that the sparse search
returns the very same ``MatchResult``.

``reference_pair_bounds`` is the padded bound pass that preceded the
sweep-line one: it measures the x offset of every compatible pair under every
candidate translation, and the property tests check that the sweep line
returns the very same bounds.
"""

from __future__ import annotations

import math

import numpy as np

from wearauth.fingerprint.minutiae import Template
from wearauth.matcher import CHUNK_ELEMENTS, ROTATIONS, MatchParams, MatchResult


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


def _pair_ok(kind_ok: np.ndarray, p_ang: np.ndarray, g_ang: np.ndarray,
             thetas: np.ndarray, angle_tolerance: float) -> np.ndarray:
    """(rotation, probe, gallery) mask of the pairs passing kind and angle tests."""
    rotated = (p_ang[None, :] + thetas[:, None]) % (2.0 * np.pi)
    return kind_ok & (_angular_diff(rotated[:, :, None], g_ang) <= angle_tolerance)


def reference_pair_bounds(rot: np.ndarray, g_xy: np.ndarray, p_ang: np.ndarray,
                          g_ang: np.ndarray, kind_ok: np.ndarray, thetas: np.ndarray,
                          params: MatchParams) -> np.ndarray:
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

    for theta in ROTATIONS:
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
