"""PRESENT-80 block cipher (64-bit block, 80-bit key, 31 rounds) plus a
counter mode for arbitrary-length payloads.

The substitution and permutation layers are fused into eight byte-wide
lookup tables, so a round is eight table reads; decryption undoes the
permutation and then the substitution with two more sets of eight.  The block
API reads the fused tables as Python ints; counter mode encrypts all of a
payload's counter blocks at once as one ``uint64`` array through the same
tables as ``_SP_BYTE_TABLE``.
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


def _perm_rows(pbox: tuple[int, ...]) -> list[list[int]]:
    """Row j, entry b: byte b placed at bits 8j..8j+7, its bits moved by ``pbox``."""
    rows = []
    for j in range(8):
        row = [0] * 256
        for bit in range(8):
            # Entries whose top set bit is ``bit`` extend the ones below it.
            mask = 1 << pbox[8 * j + bit]
            for b in range(1 << bit):
                row[b | 1 << bit] = row[b] | mask
        rows.append(row)
    return rows


def _sbox_byte(sbox: tuple[int, ...]) -> list[int]:
    return [sbox[b & 0xF] | sbox[b >> 4] << 4 for b in range(256)]


# Eight byte-wide tables per layer; a layer is the OR of its rows' lookups,
# because P moves bits independently and S acts on each nibble alone.
_SP = [[row[s] for s in _sbox_byte(_SBOX)] for row in _perm_rows(_PBOX)]
_PINV = _perm_rows(_PBOX_INV)
_SINV = [[s << 8 * j for s in _sbox_byte(_SBOX_INV)] for j in range(8)]
# Row j maps byte j of the state (bits 8j..8j+7) to its substituted, permuted bits.
_SP_BYTE_TABLE = np.array(_SP, dtype="<u8")


def _layer(rows: list[list[int]], x: int) -> int:
    return (rows[0][x & 0xFF] | rows[1][x >> 8 & 0xFF] | rows[2][x >> 16 & 0xFF]
            | rows[3][x >> 24 & 0xFF] | rows[4][x >> 32 & 0xFF] | rows[5][x >> 40 & 0xFF]
            | rows[6][x >> 48 & 0xFF] | rows[7][x >> 56])


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
        for rk in self._round_keys[:ROUNDS]:
            block = _layer(_SP, block ^ rk)
        return block ^ self._round_keys[ROUNDS]

    def decrypt_block(self, block: int) -> int:
        if not 0 <= block <= _MASK64:
            raise ValueError("block must be a 64-bit integer")
        block ^= self._round_keys[ROUNDS]
        for rk in reversed(self._round_keys[:ROUNDS]):
            block = _layer(_SINV, _layer(_PINV, block)) ^ rk
        return block


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
    byte first.  The output length always equals the input length, so
    ``ctr_crypt(bytes(n), key, nonce)`` is the first n keystream bytes.
    """
    if not 0 <= nonce <= _MASK64:
        raise ValueError("nonce must be a 64-bit integer")
    cipher = Present80(key)
    stream = _keystream(cipher, nonce, (len(payload) + 7) // 8).astype(">u8").view(np.uint8)
    return (np.frombuffer(payload, dtype=np.uint8) ^ stream[:len(payload)]).tobytes()
