"""PRESENT-80 (64-bit block, 80-bit key, 31 rounds) in counter mode.

Counter mode runs the forward cipher in both directions, so ``ctr_crypt`` is
this module's one entry point and there is no inverse cipher.  The
substitution and permutation layers are fused into eight byte-wide lookup
tables, ``_SP_BYTE_TABLE``, so a round is eight table reads; all of a
payload's counter blocks are encrypted at once as one ``uint64`` array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ctr_crypt"]

_ROUNDS = 31

_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)
# Bit i of the state moves to position 16*i mod 63 (bit 63 is fixed).
_PBOX = tuple(16 * i % 63 if i != 63 else 63 for i in range(64))

_MASK64 = (1 << 64) - 1
_MASK80 = (1 << 80) - 1


def _sp_row(j: int) -> list[int]:
    """Entry b: byte b placed at bits 8j..8j+7, each nibble substituted, then
    its bits moved by the permutation."""
    moved = [0] * 256
    for bit in range(8):
        # Entries whose top set bit is ``bit`` extend the ones below it.
        mask = 1 << _PBOX[8 * j + bit]
        for b in range(1 << bit):
            moved[b | 1 << bit] = moved[b] | mask
    return [moved[_SBOX[b & 0xF] | _SBOX[b >> 4] << 4] for b in range(256)]


# A round's S and P layers are the OR of the eight rows' lookups, because P
# moves bits independently and S acts on each nibble alone.
_SP_BYTE_TABLE = np.array([_sp_row(j) for j in range(8)], dtype="<u8")


def _round_keys(key: int) -> np.ndarray:
    """The 32 round keys of the key schedule, as ``uint64``."""
    if not 0 <= key <= _MASK80:
        raise ValueError("key must be an 80-bit integer")
    rks = []
    reg = key
    for rnd in range(1, _ROUNDS + 1):
        rks.append(reg >> 16)
        reg = ((reg << 61) | (reg >> 19)) & _MASK80   # rotate left 61
        reg = (_SBOX[reg >> 76] << 76) | (reg & ((1 << 76) - 1))
        reg ^= rnd << 15
    rks.append(reg >> 16)
    return np.array(rks, dtype="<u8")


def _keystream(key: int, nonce: int, n_blocks: int) -> np.ndarray:
    """Encryptions of the counter blocks (nonce + i) mod 2**64, i < n_blocks."""
    rks = _round_keys(key)
    # Little-endian words, so byte j of a block's view holds bits 8j..8j+7.
    # Array arithmetic on them wraps modulo 2**64 without a warning.
    state = np.arange(n_blocks, dtype="<u8")
    state += np.uint64(nonce)
    for r in range(_ROUNDS):
        state ^= rks[r]
        columns = state.view(np.uint8).reshape(n_blocks, 8).T.copy()
        state = _SP_BYTE_TABLE[0].take(columns[0])
        for j in range(1, 8):
            state |= _SP_BYTE_TABLE[j].take(columns[j])
    state ^= rks[_ROUNDS]
    return state


def ctr_crypt(payload: bytes, key: int, nonce: int) -> bytes:
    """Counter-mode keystream XOR; applying it twice restores the payload.

    Counter block i is (nonce + i) mod 2**64, encrypted under ``key``; its
    ciphertext is the keystream for payload bytes 8i..8i+7, most significant
    byte first.  The output length always equals the input length, so
    ``ctr_crypt(bytes(n), key, nonce)`` is the first n keystream bytes, and
    ``ctr_crypt(bytes(8), key, block)`` is the block's encryption.
    """
    if not 0 <= nonce <= _MASK64:
        raise ValueError("nonce must be a 64-bit integer")
    stream = _keystream(key, nonce, (len(payload) + 7) // 8).astype(">u8").view(np.uint8)
    return (np.frombuffer(payload, dtype=np.uint8) ^ stream[:len(payload)]).tobytes()
