"""Functional byte-addressable backing store.

The event-level cube executes PIM semantics against real memory contents so
that protocol tests can check *values*, not just timing. A sparse page map
keeps an 8 GB cube cheap to instantiate.
"""

from __future__ import annotations

from typing import Dict

from repro.hmc.isa import (
    PimInstruction,
    decode_operand,
    encode_operand,
    execute_semantics,
)

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS


class BackingStore:
    """Sparse byte-addressable memory; unwritten bytes read as zero."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._pages: Dict[int, bytearray] = {}

    def _check(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.capacity_bytes:
            raise ValueError(
                f"access [{address}, {address + length}) outside capacity "
                f"{self.capacity_bytes}"
            )

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        self._check(address, length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            a = address + pos
            page, off = a >> _PAGE_BITS, a & (_PAGE_SIZE - 1)
            chunk = min(length - pos, _PAGE_SIZE - off)
            buf = self._pages.get(page)
            if buf is not None:
                out[pos : pos + chunk] = buf[off : off + chunk]
            pos += chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        self._check(address, len(data))
        pos = 0
        while pos < len(data):
            a = address + pos
            page, off = a >> _PAGE_BITS, a & (_PAGE_SIZE - 1)
            chunk = min(len(data) - pos, _PAGE_SIZE - off)
            buf = self._pages.get(page)
            if buf is None:
                # Unallocated pages already read as zero, so an all-zero
                # write is a no-op — streaming-write-heavy simulations
                # would otherwise densify the sparse store.
                if data.count(0, pos, pos + chunk) == chunk:
                    pos += chunk
                    continue
                buf = bytearray(_PAGE_SIZE)
                self._pages[page] = buf
            buf[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    def execute_pim(self, inst: PimInstruction) -> tuple[bytes, bool]:
        """Atomically apply ``inst``; returns (old raw operand, atomic_flag).

        This is the read-modify-write of Sec. II-B steps (1)-(3); the
        *timing* of the RMW (bank locking) is modelled by the bank/vault
        layers — here we apply only the functional effect.
        """
        nb = inst.operand_bytes
        raw_old = self.read(inst.address, nb)
        old = decode_operand(raw_old, inst.opcode, nb)
        new, flag = execute_semantics(old, inst)
        self.write(inst.address, encode_operand(new, inst.opcode, nb))
        return raw_old, flag

    @property
    def resident_bytes(self) -> int:
        """Bytes actually allocated (diagnostic)."""
        return len(self._pages) * _PAGE_SIZE
