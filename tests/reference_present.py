"""Oracle for ``present.ctr_crypt``: PRESENT-80 block encryption on Python ints.

``encrypt_block`` reads eight byte-wide fused S-box/permutation tables as
Python ints, so a round is eight lookups.  It encrypts one block ~10x faster
than a one-block ``ctr_crypt`` call, so the tests that need thousands of
single-block encryptions (key avalanche, the counter-mode reference) read it.
It is checked against the spec-level rounds of ``test_present._ref_encrypt``
and the published vectors.
"""

from __future__ import annotations

ROUNDS = 31

_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)
# Bit i of the state moves to position 16*i mod 63 (bit 63 is fixed).
_PBOX = tuple(16 * i % 63 if i != 63 else 63 for i in range(64))

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


# Eight byte-wide tables; a layer is the OR of its rows' lookups, because P
# moves bits independently and S acts on each nibble alone.
_SP = [[row[s] for s in _sbox_byte(_SBOX)] for row in _perm_rows(_PBOX)]


def _layer(rows: list[list[int]], x: int) -> int:
    return (rows[0][x & 0xFF] | rows[1][x >> 8 & 0xFF] | rows[2][x >> 16 & 0xFF]
            | rows[3][x >> 24 & 0xFF] | rows[4][x >> 32 & 0xFF] | rows[5][x >> 40 & 0xFF]
            | rows[6][x >> 48 & 0xFF] | rows[7][x >> 56])


class Present80:
    """Round-key schedule for one 80-bit key, with block encryption."""

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


def encrypt_block(plaintext: int, key: int) -> int:
    return Present80(key).encrypt_block(plaintext)
