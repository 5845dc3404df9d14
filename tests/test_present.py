"""Cipher tests, including a deliberately naive straight-line reference
implementation (bit lists, explicit permutation loops) written directly from
the cipher's published description, used to cross-check the table-driven
counter mode and the scalar oracle in ``reference_present``."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth.present import ctr_crypt

from reference_present import Present80, encrypt_block

# Published PRESENT-80 test vectors: (key, plaintext, ciphertext).
VECTORS = [
    (0x00000000000000000000, 0x0000000000000000, 0x5579C1387B228445),
    (0xFFFFFFFFFFFFFFFFFFFF, 0x0000000000000000, 0xE72C46C0F5945049),
    (0x00000000000000000000, 0xFFFFFFFFFFFFFFFF, 0xA112FFC72F68417B),
    (0xFFFFFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x3333DCD3213210D2),
]

_S = [0xC, 5, 6, 0xB, 9, 0, 0xA, 0xD, 3, 0xE, 0xF, 8, 4, 7, 1, 2]


def _ref_encrypt(plain: int, key: int) -> int:
    """Straight-line reference: 31 rounds of addRoundKey, S-box, permutation."""
    state = plain
    reg = key
    round_keys = []
    for rnd in range(1, 32):
        round_keys.append(reg >> 16)
        reg = ((reg & (1 << 19) - 1) << 61) | (reg >> 19)      # rotate left by 61
        reg = (_S[(reg >> 76) & 0xF] << 76) | (reg & (1 << 76) - 1)
        reg ^= rnd << 15
    round_keys.append(reg >> 16)

    for rnd in range(31):
        state ^= round_keys[rnd]
        nibbles = [(state >> (4 * i)) & 0xF for i in range(16)]
        state = 0
        for i, nib in enumerate(nibbles):
            state |= _S[nib] << (4 * i)
        permuted = 0
        for i in range(64):
            if (state >> i) & 1:
                permuted |= 1 << (16 * i % 63 if i != 63 else 63)
        state = permuted
    return state ^ round_keys[31]


def _block(key: int, block: int) -> int:
    """E_key(block) through counter mode: the keystream of one counter block."""
    return int.from_bytes(ctr_crypt(bytes(8), key, block), "big")


def _ref_ctr(payload: bytes, key: int, nonce: int) -> bytes:
    """Scalar counter mode: one block encryption per 64-bit counter."""
    cipher = Present80(key)
    stream = bytearray()
    for i in range((len(payload) + 7) // 8):
        stream += struct.pack(">Q", cipher.encrypt_block((nonce + i) % 2**64))
    return bytes(a ^ b for a, b in zip(payload, stream))


class TestBlockCipher:
    @pytest.mark.parametrize("key,pt,ct", VECTORS)
    def test_published_vectors(self, key, pt, ct):
        assert ctr_crypt(bytes(8), key, pt) == ct.to_bytes(8, "big")

    @pytest.mark.parametrize("key,pt,ct", VECTORS)
    def test_published_vectors_reversed(self, key, pt, ct):
        """The receiver's direction: the published ciphertext, under counter
        block ``pt``, decrypts to the all-zero message."""
        assert ctr_crypt(ct.to_bytes(8, "big"), key, pt) == bytes(8)

    @pytest.mark.parametrize("key,pt,ct", VECTORS)
    def test_reference_agrees_on_vectors(self, key, pt, ct):
        assert _ref_encrypt(pt, key) == ct

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**80 - 1))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_reference_cross_check_random(self, pt, key):
        """The oracle and counter mode's first block against the spec-level rounds."""
        ct = _ref_encrypt(pt, key)
        assert encrypt_block(pt, key) == ct
        assert _block(key, pt) == ct

    def test_wrong_key_does_not_decrypt(self):
        rnd = random.Random(7)
        for _ in range(200):
            key = rnd.getrandbits(80)
            other = key ^ (1 << rnd.randrange(80))
            pt = rnd.randbytes(8)
            nonce = rnd.getrandbits(64)
            assert ctr_crypt(ctr_crypt(pt, key, nonce), other, nonce) != pt

    def test_avalanche_on_key_flip(self):
        rnd = random.Random(11)
        total = 0
        n = 1000
        for _ in range(n):
            key = rnd.getrandbits(80)
            pt = rnd.getrandbits(64)
            flipped = key ^ (1 << rnd.randrange(80))
            total += bin(_block(key, pt) ^ _block(flipped, pt)).count("1")
        assert total / n == pytest.approx(32.0, abs=3.0)

    @pytest.mark.parametrize("bad", [-1, 2**80])
    def test_key_range_checked(self, bad):
        with pytest.raises(ValueError, match="key must be an 80-bit integer"):
            ctr_crypt(bytes(8), bad, 0)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_block_range_checked(self, bad):
        """A counter block outside 64 bits is refused at either end."""
        with pytest.raises(ValueError, match="nonce must be a 64-bit integer"):
            ctr_crypt(bytes(8), 0, bad)


class TestCtrMode:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.binary(max_size=300), st.integers(0, 2**80 - 1),
           st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 40, 2**64 - 1)))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_scalar_reference(self, payload, key, nonce):
        assert ctr_crypt(payload, key, nonce) == _ref_ctr(payload, key, nonce)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_scalar_reference_on_capture_sized_payload(self):
        rnd = random.Random(40047)
        payload = rnd.randbytes(40047)
        key = rnd.getrandbits(80)
        nonce = 2**64 - 2500    # the counter wraps halfway through
        assert ctr_crypt(payload, key, nonce) == _ref_ctr(payload, key, nonce)

    @given(st.binary(max_size=512), st.integers(0, 2**80 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=60)
    def test_involution(self, payload, key, nonce):
        assert ctr_crypt(ctr_crypt(payload, key, nonce), key, nonce) == payload

    def test_empty_payload(self):
        assert ctr_crypt(b"", 0x1234, 0) == b""

    def test_length_preserving_for_template_payload(self):
        payload = bytes(176)
        ct = ctr_crypt(payload, 0xA5A5A5A5A5A5A5A5A5A5, 42)
        assert len(ct) == 176
        # the modelled encryption charge for this payload
        assert 176 * 8 * 100e-12 == pytest.approx(1408 * 100e-12)

    def test_deterministic(self):
        p = bytes(range(100))
        assert ctr_crypt(p, 5, 6) == ctr_crypt(p, 5, 6)

    def test_counter_wraps_modulo_64_bits(self):
        key = 0xDEAD
        a = ctr_crypt(bytes(16), key, 2**64 - 1)
        first = ctr_crypt(bytes(8), key, 2**64 - 1)
        second = ctr_crypt(bytes(8), key, 0)
        assert a == first + second

    def test_nonce_range_checked(self):
        with pytest.raises(ValueError):
            ctr_crypt(b"x", 0, 2**64)

    def test_keystream_blocks_distinct(self):
        stream = ctr_crypt(bytes(80_000), 0x0123456789ABCDEF0123, 0)
        outs = {stream[i:i + 8] for i in range(0, len(stream), 8)}
        assert len(outs) == 10_000
