import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth import codec
from wearauth.fingerprint.minutiae import Minutia, MinutiaKind, Template, TemplateAlgorithm

from patterns import hostile_blobs


def make_template(points, width=256, height=256, algorithm=TemplateAlgorithm.HIGH_ACCURACY):
    ms = tuple(Minutia(x=x, y=y, angle=a, kind=k) for x, y, a, k in points)
    return Template(width=width, height=height, algorithm=algorithm, minutiae=ms)


class TestEncode:
    def test_empty_template_is_header_only(self):
        blob = codec.encode(make_template([]))
        assert len(blob) == 8
        assert blob[:4] == b"FPT\x01"

    def test_28_minutiae_encode_to_176_bytes(self):
        pts = [(10 + 8 * i, 20 + 7 * i, 0.1 * i, MinutiaKind.ENDING) for i in range(28)]
        assert len(codec.encode(make_template(pts))) == 176

    def test_single_minutia_record_layout(self):
        blob = codec.encode(make_template([(3, 5, 0.0, MinutiaKind.ENDING)]))
        assert len(blob) == 14
        assert blob[-6:] == bytes([0x03, 0x00, 0x05, 0x00, 0x00, 0x00])

    def test_header_fields(self):
        t = make_template([(3, 5, 0.0, MinutiaKind.BIFURCATION)], width=258, height=64,
                          algorithm=TemplateAlgorithm.LIGHTWEIGHT)
        blob = codec.encode(t)
        assert blob[4] == 1           # lightweight
        assert blob[5] == 1           # count
        assert blob[6] == 65          # ceil(258 / 4)
        assert blob[7] == 16          # 64 / 4
        assert blob[-1] == 1          # bifurcation kind byte

    def test_count_limit(self):
        pts = [(i % 256, i // 256, 0.0, MinutiaKind.ENDING) for i in range(256)]
        t = make_template(pts, width=1020, height=1020)
        with pytest.raises(codec.EncodeError):
            codec.encode(t)

    def test_oversize_dimensions(self):
        t = make_template([], width=2000, height=64)
        with pytest.raises(codec.EncodeError):
            codec.encode(t)

    @given(st.integers(0, 255))
    @settings(max_examples=30)
    def test_length_is_affine_in_count(self, n):
        assert codec.encoded_size(n) == 8 + 6 * n


_minutiae = st.lists(
    st.tuples(st.integers(0, 255), st.integers(0, 255),
              st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
              st.sampled_from([MinutiaKind.ENDING, MinutiaKind.BIFURCATION])),
    max_size=40, unique_by=lambda t: (t[0], t[1]))


class TestDecode:
    @given(_minutiae)
    @settings(max_examples=100)
    def test_roundtrip_up_to_angle_quantization(self, pts):
        t = make_template(pts)
        out = codec.decode(codec.encode(t))
        assert len(out) == len(t)
        assert out.algorithm == t.algorithm
        for a, b in zip(t.minutiae, out.minutiae):
            assert (a.x, a.y, a.kind) == (b.x, b.y, b.kind)
            diff = abs(a.angle - b.angle) % (2 * math.pi)
            assert min(diff, 2 * math.pi - diff) <= math.pi / 256 + 1e-12

    def test_truncated_buffer(self):
        blob = codec.encode(make_template([(3, 5, 0.0, MinutiaKind.ENDING)]))
        with pytest.raises(codec.LengthMismatchError):
            codec.decode(blob[:-1])

    def test_bad_magic(self):
        with pytest.raises(codec.BadMagicError):
            codec.decode(b"XXX\x01" + bytes(4))

    def test_bad_version(self):
        with pytest.raises(codec.BadVersionError):
            codec.decode(b"FPT\x02" + bytes(4))

    def test_short_header(self):
        with pytest.raises(codec.LengthMismatchError):
            codec.decode(b"FPT")

    def test_count_length_mismatch(self):
        blob = bytearray(codec.encode(make_template([(3, 5, 0.0, MinutiaKind.ENDING)])))
        blob[5] = 2  # claims two records, carries one
        with pytest.raises(codec.LengthMismatchError):
            codec.decode(bytes(blob))

    @given(st.binary(min_size=168, max_size=168))
    @settings(max_examples=150)
    def test_fuzzed_records_never_crash(self, tail):
        blob = b"FPT\x01" + bytes([0, 28, 64, 64]) + tail
        try:
            out = codec.decode(blob)
        except codec.DecodeError:
            return
        assert len(out) == 28
        for m in out.minutiae:
            assert 0 <= m.x < out.width and 0 <= m.y < out.height


_VALID_FPT = codec.encode(make_template(
    [(3, 5, 0.0, MinutiaKind.ENDING), (40, 17, 2.0, MinutiaKind.BIFURCATION),
     (200, 99, 6.2, MinutiaKind.ENDING)], width=250, height=120))


class TestDecodeHostileBytes:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(hostile_blobs(_VALID_FPT))
    def test_only_decode_errors_escape(self, blob):
        try:
            out = codec.decode(blob)
        except codec.DecodeError:
            return
        assert len(codec.encode(out)) == len(blob)
