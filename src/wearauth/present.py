"""PRESENT-80 block cipher (64-bit block, 80-bit key, 31 rounds) plus a
counter mode for arbitrary-length payloads.

The substitution and permutation layers are fused into per-nibble lookup
tables so a round is 16 table reads; decryption undoes the permutation and
substitution in two table passes.  Counter mode encrypts all of a payload's
counter blocks at once as one ``uint64`` array, through the same fused layer
widened to eight per-byte tables.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_BITS",
    "KEY_BITS",
    "ROUNDS",
    "Present80",
    "encrypt_block",
    "decrypt_block",
    "ctr_crypt",
]

BLOCK_BITS = 64
KEY_BITS = 80
ROUNDS = 31

_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)
_SBOX_INV = tuple(_SBOX.index(i) for i in range(16))
# Bit i of the state moves to position 16*i mod 63 (bit 63 is fixed).
_PBOX = tuple(16 * i % 63 if i != 63 else 63 for i in range(64))
_PBOX_INV = tuple(_PBOX.index(i) for i in range(64))

_MASK64 = (1 << 64) - 1
_MASK80 = (1 << 80) - 1


def _build_tables() -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    sp, p_inv, s_inv = [], [], []
    for pos in range(16):
        sp_row, pinv_row, sinv_row = [], [], []
        for val in range(16):
            sboxed = _SBOX[val]
            word = 0
            for bit in range(4):
                if sboxed >> bit & 1:
                    word |= 1 << _PBOX[4 * pos + bit]
            sp_row.append(word)
            word = 0
            for bit in range(4):
                if val >> bit & 1:
                    word |= 1 << _PBOX_INV[4 * pos + bit]
            pinv_row.append(word)
            sinv_row.append(_SBOX_INV[val] << (4 * pos))
        sp.append(sp_row)
        p_inv.append(pinv_row)
        s_inv.append(sinv_row)
    return sp, p_inv, s_inv


_SP_TABLE, _PINV_TABLE, _SINV_TABLE = _build_tables()
# Row j maps byte j of the state (bits 8j..8j+7) to its substituted, permuted bits.
_SP_BYTE_TABLE = np.array(
    [[_SP_TABLE[2 * j][b & 0xF] | _SP_TABLE[2 * j + 1][b >> 4] for b in range(256)]
     for j in range(8)],
    dtype="<u8",
)


class Present80:
    """Round-key schedule for one 80-bit key, with block encrypt/decrypt."""

    def __init__(self, key: int):
        if not 0 <= key <= _MASK80:
            raise ValueError("key must be an 80-bit integer")
        self._round_keys = self._schedule(key)

    @staticmethod
    def _schedule(key: int) -> tuple[int, ...]:
        rks = []
        reg = key
        for rnd in range(1, ROUNDS + 1):
            rks.append(reg >> 16)
            reg = ((reg << 61) | (reg >> 19)) & _MASK80   # rotate left 61
            reg = (_SBOX[reg >> 76] << 76) | (reg & ((1 << 76) - 1))
            reg ^= rnd << 15
        rks.append(reg >> 16)
        return tuple(rks)

    def encrypt_block(self, block: int) -> int:
        if not 0 <= block <= _MASK64:
            raise ValueError("block must be a 64-bit integer")
        state = block
        rks = self._round_keys
        sp = _SP_TABLE
        for r in range(ROUNDS):
            state ^= rks[r]
            state = (sp[0][state & 0xF] | sp[1][state >> 4 & 0xF]
                     | sp[2][state >> 8 & 0xF] | sp[3][state >> 12 & 0xF]
                     | sp[4][state >> 16 & 0xF] | sp[5][state >> 20 & 0xF]
                     | sp[6][state >> 24 & 0xF] | sp[7][state >> 28 & 0xF]
                     | sp[8][state >> 32 & 0xF] | sp[9][state >> 36 & 0xF]
                     | sp[10][state >> 40 & 0xF] | sp[11][state >> 44 & 0xF]
                     | sp[12][state >> 48 & 0xF] | sp[13][state >> 52 & 0xF]
                     | sp[14][state >> 56 & 0xF] | sp[15][state >> 60 & 0xF])
        return state ^ rks[ROUNDS]

    def decrypt_block(self, block: int) -> int:
        if not 0 <= block <= _MASK64:
            raise ValueError("block must be a 64-bit integer")
        state = block ^ self._round_keys[ROUNDS]
        pinv, sinv = _PINV_TABLE, _SINV_TABLE
        for r in range(ROUNDS - 1, -1, -1):
            state = (pinv[0][state & 0xF] | pinv[1][state >> 4 & 0xF]
                     | pinv[2][state >> 8 & 0xF] | pinv[3][state >> 12 & 0xF]
                     | pinv[4][state >> 16 & 0xF] | pinv[5][state >> 20 & 0xF]
                     | pinv[6][state >> 24 & 0xF] | pinv[7][state >> 28 & 0xF]
                     | pinv[8][state >> 32 & 0xF] | pinv[9][state >> 36 & 0xF]
                     | pinv[10][state >> 40 & 0xF] | pinv[11][state >> 44 & 0xF]
                     | pinv[12][state >> 48 & 0xF] | pinv[13][state >> 52 & 0xF]
                     | pinv[14][state >> 56 & 0xF] | pinv[15][state >> 60 & 0xF])
            state = (sinv[0][state & 0xF] | sinv[1][state >> 4 & 0xF]
                     | sinv[2][state >> 8 & 0xF] | sinv[3][state >> 12 & 0xF]
                     | sinv[4][state >> 16 & 0xF] | sinv[5][state >> 20 & 0xF]
                     | sinv[6][state >> 24 & 0xF] | sinv[7][state >> 28 & 0xF]
                     | sinv[8][state >> 32 & 0xF] | sinv[9][state >> 36 & 0xF]
                     | sinv[10][state >> 40 & 0xF] | sinv[11][state >> 44 & 0xF]
                     | sinv[12][state >> 48 & 0xF] | sinv[13][state >> 52 & 0xF]
                     | sinv[14][state >> 56 & 0xF] | sinv[15][state >> 60 & 0xF])
            state ^= self._round_keys[r]
        return state


def encrypt_block(plaintext: int, key: int) -> int:
    return Present80(key).encrypt_block(plaintext)


def decrypt_block(ciphertext: int, key: int) -> int:
    return Present80(key).decrypt_block(ciphertext)


def _keystream(cipher: Present80, nonce: int, n_blocks: int) -> np.ndarray:
    """Encryptions of the counter blocks (nonce + i) mod 2**64, i < n_blocks."""
    # Little-endian words, so byte j of a block's view holds bits 8j..8j+7.
    # Array arithmetic on them wraps modulo 2**64 without a warning.
    state = np.arange(n_blocks, dtype="<u8")
    state += np.uint64(nonce)
    rks = np.array(cipher._round_keys, dtype="<u8")
    for r in range(ROUNDS):
        state ^= rks[r]
        columns = state.view(np.uint8).reshape(n_blocks, 8).T.copy()
        state = _SP_BYTE_TABLE[0].take(columns[0])
        for j in range(1, 8):
            state |= _SP_BYTE_TABLE[j].take(columns[j])
    state ^= rks[ROUNDS]
    return state


def ctr_crypt(payload: bytes, key: int, nonce: int) -> bytes:
    """Counter-mode keystream XOR; applying it twice restores the payload.

    Counter block i is (nonce + i) mod 2**64, encrypted under ``key``; its
    ciphertext is the keystream for payload bytes 8i..8i+7, most significant
    byte first.  The output length always equals the input length.
    """
    if not 0 <= nonce <= _MASK64:
        raise ValueError("nonce must be a 64-bit integer")
    cipher = Present80(key)
    stream = _keystream(cipher, nonce, (len(payload) + 7) // 8).astype(">u8").view(np.uint8)
    return (np.frombuffer(payload, dtype=np.uint8) ^ stream[:len(payload)]).tobytes()
