"""Gray and binary image containers plus binary-PGM (P5) I/O."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["GrayImage", "BinaryImage", "read_pgm", "write_pgm"]

MIN_PIPELINE_SIZE = 16  # smallest width/height the extraction pipeline accepts
# Largest image the extraction pipeline accepts: 2**18 pixels (512x512, 6.5x a
# 278x144 capture).  At the ceiling tracemalloc measured a high-accuracy peak
# of ~22 MiB, nearly all of it enhancement, and ~2-3 s on uniform noise, the
# worst input tried; the false-minutia filter holds a few arrays of n values.
# The lightweight route peaks at ~10 MiB there.
MAX_PIXELS = 1 << 18


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image; pixels are a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError(f"expected a 2-D pixel array, got shape {px.shape}")
        if px.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {px.dtype}")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_raw(cls, data: bytes, width: int, height: int) -> "GrayImage":
        """Wrap a row-major byte blob with explicit dimensions.

        Raises :class:`ValueError` unless both sizes are positive and the blob
        holds exactly ``width * height`` bytes.
        """
        if width <= 0 or height <= 0:
            raise ValueError("width and height must be positive")
        if len(data) != width * height:
            raise ValueError(f"blob of {len(data)} bytes does not match {width}x{height}")
        px = np.frombuffer(data, dtype=np.uint8).reshape(height, width).copy()
        return cls(px)

    def to_pgm_bytes(self) -> bytes:
        header = f"P5\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.pixels.tobytes()

    @classmethod
    def from_pgm_bytes(cls, blob: bytes) -> "GrayImage":
        return _parse_pgm(blob)


@dataclass(frozen=True)
class BinaryImage:
    """Binary image; ridge pixels are True in a (height, width) bool array."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.bits)
        if b.ndim != 2:
            raise ValueError(f"expected a 2-D bit array, got shape {b.shape}")
        if b.dtype != np.bool_:
            raise ValueError(f"expected bool bits, got {b.dtype}")
        object.__setattr__(self, "bits", b)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]


def _parse_pgm(blob: bytes) -> GrayImage:
    if not blob.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) stream")
    # Header tokens: magic, width, height, maxval; '#' comments run to EOL.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        try:
            tokens.append(int(blob[start:pos]))
        except ValueError as exc:
            raise ValueError(f"bad PGM header token {blob[start:pos]!r}") from exc
    pos += 1  # single whitespace after maxval
    width, height, maxval = tokens
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval={maxval}")
    expected = width * height
    data = blob[pos:pos + expected]
    if len(data) != expected:
        raise ValueError(f"PGM pixel data truncated: {len(data)} of {expected} bytes")
    return GrayImage.from_raw(data, width, height)


def read_pgm(path: str | Path) -> GrayImage:
    return _parse_pgm(Path(path).read_bytes())


def write_pgm(img: GrayImage, path: str | Path) -> None:
    Path(path).write_bytes(img.to_pgm_bytes())
