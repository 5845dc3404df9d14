"""Binary wire format for minutiae templates (.fpt).

Layout, little-endian throughout the records:

    header (8 bytes): 'F' 'P' 'T' | version 0x01 | algorithm (0 high, 1 light)
                      | minutiae count | width/4 | height/4  (dims rounded up)
    record (6 bytes per minutia): x u16 | y u16 | angle u8 | kind u8

The angle byte quantizes [0, 2*pi) to 256 steps, so a round trip moves an
angle by at most pi/256.  A 28-minutiae template is exactly 176 bytes.
"""

from __future__ import annotations

import math
import struct

from .energy import TemplateAlgorithm
from .fingerprint.minutiae import MAX_MINUTIAE, Minutia, MinutiaKind, Template

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "RECORD_SIZE",
    "EncodeError",
    "DecodeError",
    "BadMagicError",
    "BadVersionError",
    "LengthMismatchError",
    "encode",
    "decode",
    "encoded_size",
    "compression_ratio",
]

MAGIC = b"FPT"
VERSION = 0x01
HEADER_SIZE = 8
RECORD_SIZE = 6
_RECORD = struct.Struct("<HHBB")

_ALGO_BYTE = {TemplateAlgorithm.HIGH_ACCURACY: 0, TemplateAlgorithm.LIGHTWEIGHT: 1}
_BYTE_ALGO = {v: k for k, v in _ALGO_BYTE.items()}
_KIND_BYTE = {MinutiaKind.ENDING: 0, MinutiaKind.BIFURCATION: 1}
_BYTE_KIND = {v: k for k, v in _KIND_BYTE.items()}


class EncodeError(ValueError):
    """Template cannot be represented in the wire format."""


class DecodeError(ValueError):
    """Byte stream is not a valid encoded template."""


class BadMagicError(DecodeError):
    pass


class BadVersionError(DecodeError):
    pass


class LengthMismatchError(DecodeError):
    pass


def encoded_size(minutiae_count: int) -> int:
    return HEADER_SIZE + RECORD_SIZE * minutiae_count


def _quantize_angle(angle: float) -> int:
    return int(round(angle * 256.0 / (2.0 * math.pi))) % 256


def encode(template: Template) -> bytes:
    """Serialize a template; minutiae order is fixed by the Template invariant."""
    n = len(template.minutiae)
    if n > MAX_MINUTIAE:
        raise EncodeError(f"{n} minutiae exceed the {MAX_MINUTIAE}-record limit")
    w4 = (template.width + 3) // 4
    h4 = (template.height + 3) // 4
    if w4 > 255 or h4 > 255:
        raise EncodeError(f"dimensions {template.width}x{template.height} exceed the header range")
    out = bytearray()
    out += MAGIC
    out += bytes((VERSION, _ALGO_BYTE[template.algorithm], n, w4, h4))
    for m in template.minutiae:
        if m.x > 0xFFFF or m.y > 0xFFFF:
            raise EncodeError(f"coordinate ({m.x},{m.y}) exceeds 16 bits")
        out += _RECORD.pack(m.x, m.y, _quantize_angle(m.angle), _KIND_BYTE[m.kind])
    return bytes(out)


def decode(blob: bytes) -> Template:
    """Inverse of :func:`encode` up to angle quantization."""
    if len(blob) < HEADER_SIZE:
        raise LengthMismatchError(f"{len(blob)} bytes is shorter than the {HEADER_SIZE}-byte header")
    if blob[:3] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:3]!r}")
    if blob[3] != VERSION:
        raise BadVersionError(f"unsupported version {blob[3]}")
    algo_byte, count, w4, h4 = blob[4], blob[5], blob[6], blob[7]
    if algo_byte not in _BYTE_ALGO:
        raise DecodeError(f"unknown algorithm byte {algo_byte}")
    expected = encoded_size(count)
    if len(blob) != expected:
        raise LengthMismatchError(f"expected {expected} bytes for {count} minutiae, got {len(blob)}")
    if w4 == 0 or h4 == 0:
        raise DecodeError("zero image dimensions in header")
    width, height = w4 * 4, h4 * 4
    minutiae = []
    for i in range(count):
        x, y, angle_b, kind_b = _RECORD.unpack_from(blob, HEADER_SIZE + i * RECORD_SIZE)
        if kind_b not in _BYTE_KIND:
            raise DecodeError(f"record {i}: unknown kind byte {kind_b}")
        if x >= width or y >= height:
            raise DecodeError(f"record {i}: ({x},{y}) outside {width}x{height}")
        minutiae.append(Minutia(x=x, y=y, angle=angle_b * 2.0 * math.pi / 256.0,
                                kind=_BYTE_KIND[kind_b]))
    return Template(width=width, height=height, algorithm=_BYTE_ALGO[algo_byte],
                    minutiae=tuple(minutiae))


def compression_ratio(image_bytes: int, template_bytes: int) -> float:
    """Raw capture size over encoded template size."""
    if template_bytes <= 0:
        raise ValueError("template_bytes must be positive")
    if image_bytes < 0:
        raise ValueError("image_bytes must be non-negative")
    return image_bytes / template_bytes
