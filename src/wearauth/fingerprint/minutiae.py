"""Crossing-number minutiae detection on thinned skeletons.

A skeleton pixel with exactly one ridge neighbour is an ending and one with
three is a bifurcation; the crossing number (half the sum of absolute
differences around the 8-neighbourhood ring) classifies both in one pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, TypeVar

import numpy as np

from ..energy import TemplateAlgorithm
from .enhance import enhance
from .image import MAX_PIXELS, MIN_PIPELINE_SIZE, BinaryImage, GrayImage
from .segmentation import BinarizeMethod, binarize
from .thinning import _RING, thin

__all__ = [
    "MinutiaKind",
    "TemplateAlgorithm",
    "Minutia",
    "Template",
    "extract_template",
    "DEFAULT_BORDER_MARGIN",
    "DEFAULT_MIN_DISTANCE",
    "MAX_MINUTIAE",
]

DEFAULT_BORDER_MARGIN = 10   # px; minutiae closer to an edge are discarded
DEFAULT_MIN_DISTANCE = 8.0   # px; both members of any closer pair are discarded
_TRACE_DEPTH = 5             # skeleton pixels followed per branch for the angle
# Most minutiae one template holds: the .fpt header stores the count in one
# byte.  It lives here, not in the codec, because the codec imports this module.
MAX_MINUTIAE = 255


class MinutiaKind(str, enum.Enum):
    ENDING = "ending"
    BIFURCATION = "bifurcation"


@dataclass(frozen=True)
class Minutia:
    x: int
    y: int
    angle: float          # ridge direction, radians in [0, 2*pi)
    kind: MinutiaKind

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0:
            raise ValueError("minutia coordinates must be non-negative")
        if not 0.0 <= self.angle < 2.0 * np.pi:
            raise ValueError(f"angle must lie in [0, 2*pi), got {self.angle}")


@dataclass(frozen=True)
class Template:
    """Extracted minutiae set; minutiae are kept sorted by (y, x) so that
    serialization is deterministic."""

    width: int
    height: int
    algorithm: TemplateAlgorithm
    minutiae: tuple[Minutia, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("template dimensions must be positive")
        for m in self.minutiae:
            if m.x >= self.width or m.y >= self.height:
                raise ValueError(f"minutia ({m.x},{m.y}) outside {self.width}x{self.height}")
        ordered = tuple(sorted(self.minutiae, key=lambda m: (m.y, m.x, m.kind.value)))
        object.__setattr__(self, "minutiae", ordered)

    def __len__(self) -> int:
        return len(self.minutiae)


def _crossing_number_map(bits: np.ndarray) -> np.ndarray:
    """Crossing numbers for all interior ridge pixels (0 elsewhere)."""
    padded = np.pad(bits.astype(np.int8), 1)
    h, w = bits.shape
    ring = [padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] for dy, dx in _RING]
    ring.append(ring[0])
    cn = np.zeros((h, w), dtype=np.int8)
    for a, b in zip(ring[:-1], ring[1:]):
        cn += np.abs(a - b)
    cn //= 2
    cn[~bits] = 0
    cn[0, :] = cn[-1, :] = 0
    cn[:, 0] = cn[:, -1] = 0
    return cn


def _trace_branch(bits: np.ndarray, start: tuple[int, int],
                  first: tuple[int, int]) -> tuple[int, int]:
    """Follow a skeleton branch from ``start`` through ``first``; return the
    endpoint reached within ``_TRACE_DEPTH`` steps."""
    visited = {start, first}
    cur = first
    for _ in range(_TRACE_DEPTH - 1):
        y, x = cur
        nxt = None
        for dy, dx in _RING:
            ny, nx_ = y + dy, x + dx
            if (0 <= ny < bits.shape[0] and 0 <= nx_ < bits.shape[1]
                    and bits[ny, nx_] and (ny, nx_) not in visited):
                if nxt is not None:
                    nxt = None  # branch splits again; stop at the junction
                    break
                nxt = (ny, nx_)
        if nxt is None:
            break
        visited.add(nxt)
        cur = nxt
    return cur


def _minutia_angle(bits: np.ndarray, x: int, y: int) -> float:
    """Ridge direction at a minutia from short branch traces.

    Endings point along their single branch; bifurcations point away from
    the mean of their three branch directions (i.e. along the merged ridge).
    """
    branches = []
    for dy, dx in _RING:
        ny, nx = y + dy, x + dx
        if 0 <= ny < bits.shape[0] and 0 <= nx < bits.shape[1] and bits[ny, nx]:
            branches.append((ny, nx))
    vecs = []
    for b in branches:
        ey, ex = _trace_branch(bits, (y, x), b)
        norm = float(np.hypot(ex - x, ey - y))
        if norm > 0:
            vecs.append(((ex - x) / norm, (ey - y) / norm))
    if not vecs:
        return 0.0
    if len(vecs) == 1:
        vx, vy = vecs[0]
    else:
        vx = -sum(v[0] for v in vecs)
        vy = -sum(v[1] for v in vecs)
        if vx == 0 and vy == 0:
            return 0.0
    angle = float(np.mod(np.arctan2(vy, vx), 2.0 * np.pi))
    # np.mod of a tiny negative arctan2 rounds up to 2*pi, the same direction as 0.
    return angle if angle < 2.0 * np.pi else 0.0


class _Candidate(NamedTuple):
    """A crossing-number minutia before its angle is traced."""

    x: int
    y: int
    kind: MinutiaKind


def _candidates(skeleton: BinaryImage, limit: int | None = None) -> list[_Candidate]:
    """Endings, then bifurcations, of a skeleton, each in row-major order.

    Raises :class:`ValueError` when there are more than ``limit`` of them.
    """
    cn = _crossing_number_map(skeleton.bits)
    if limit is not None:
        found = np.count_nonzero(cn == 1) + np.count_nonzero(cn == 3)
        if found > limit:
            raise ValueError(f"{found} minutiae exceed the {limit}-record limit of a template")
    candidates = []
    for kind, value in ((MinutiaKind.ENDING, 1), (MinutiaKind.BIFURCATION, 3)):
        ys, xs = np.nonzero(cn == value)
        candidates += [_Candidate(x, y, kind) for y, x in zip(ys.tolist(), xs.tolist())]
    return candidates


def _traced(bits: np.ndarray, candidates: list[_Candidate]) -> list[Minutia]:
    """The candidates with their angles; tracing is the costly part, in Python:
    0.4-0.8 ms for the ~23 minutiae kept from a 278x144 capture, 0.02-0.035 ms
    each on a 2-core x86 host."""
    return [Minutia(x=c.x, y=c.y, angle=_minutia_angle(bits, c.x, c.y), kind=c.kind)
            for c in candidates]


_Located = TypeVar("_Located", Minutia, _Candidate)


def _filter_false_minutiae(minutiae: list[_Located], width: int, height: int,
                           border_margin: int, min_distance: float) -> list[_Located]:
    """Drop those within ``border_margin`` of an edge and both members of any
    pair closer than ``min_distance``; reads positions only."""
    kept = [m for m in minutiae
            if border_margin <= m.x < width - border_margin
            and border_margin <= m.y < height - border_margin]
    if len(kept) < 2:
        return kept
    # Sort-and-sweep in O(n) memory: with points sorted by x, compare each
    # with its k-th successor for k = 1, 2, ... until no x gap at offset k is
    # under min_distance (gaps only grow with k).  A pair closer than
    # min_distance has its x gap under it too, since hypot(dx, dy) >= |dx|.
    x = np.array([m.x for m in kept], dtype=np.float64)
    y = np.array([m.y for m in kept], dtype=np.float64)
    order = np.argsort(x)
    x, y = x[order], y[order]
    close = np.zeros(len(kept), dtype=bool)
    for k in range(1, len(kept)):
        dx = x[k:] - x[:-k]
        near = np.flatnonzero(dx < min_distance)
        if near.size == 0:
            break
        hit = near[np.hypot(dx[near], y[near + k] - y[near]) < min_distance]
        close[order[hit]] = True
        close[order[hit + k]] = True
    return [m for m, c in zip(kept, close) if not c]


def extract_template(img: GrayImage, algorithm: TemplateAlgorithm) -> Template:
    """Extract a minutiae template from a gray image.

    The high-accuracy route enhances, binarizes adaptively, thins, scans and
    then removes border artifacts and close pairs; the lightweight route is
    a bare global-threshold / thin / scan chain with no cleanup.  Raises
    :class:`ValueError` for images under ``MIN_PIPELINE_SIZE`` on a side or
    over ``MAX_PIXELS`` in all, and for a lightweight skeleton with more
    than ``MAX_MINUTIAE`` minutiae, which no template could hold.
    """
    if img.width < MIN_PIPELINE_SIZE or img.height < MIN_PIPELINE_SIZE:
        raise ValueError(f"image must be at least {MIN_PIPELINE_SIZE}px on each side")
    if img.width * img.height > MAX_PIXELS:
        raise ValueError(f"image of {img.width}x{img.height} pixels exceeds {MAX_PIXELS}")
    if algorithm is TemplateAlgorithm.HIGH_ACCURACY:
        work = enhance(img)
        binary = binarize(work, BinarizeMethod.ADAPTIVE_MEAN)
        skeleton = thin(binary)
        # The filter reads positions only, so it runs before the angles are
        # traced: most candidates on a capture are border or close-pair ones.
        kept = _filter_false_minutiae(_candidates(skeleton), img.width, img.height,
                                      DEFAULT_BORDER_MARGIN, DEFAULT_MIN_DISTANCE)
        minutiae = _traced(skeleton.bits, kept)
    else:
        binary = binarize(img, BinarizeMethod.GLOBAL_OTSU)
        skeleton = thin(binary)
        # The limit is checked before any branch is traced.
        minutiae = _traced(skeleton.bits, _candidates(skeleton, limit=MAX_MINUTIAE))
    return Template(width=img.width, height=img.height, algorithm=algorithm,
                    minutiae=tuple(minutiae))
