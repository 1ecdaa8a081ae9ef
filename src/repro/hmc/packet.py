"""HMC packet protocol: FLIT accounting and thermal-warning error status.

Table I of the paper (FLIT size 128 bits = 16 bytes):

========================  ========  =========
Type                      Request   Response
========================  ========  =========
64-byte READ              1 FLIT    5 FLITs
64-byte WRITE             5 FLITs   1 FLIT
PIM inst. without return  2 FLITs   1 FLIT
PIM inst. with return     2 FLITs   2 FLITs
========================  ========  =========

Each response packet tail carries a 7-bit error status ERRSTAT[6:0]; the
device sets it to ``0x01`` when the operational temperature limit is
exceeded (Sec. II-A) — that bit is the input to CoolPIM's feedback loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.hmc.isa import PimInstruction

#: FLIT size in bytes (128 bits).
FLIT_BYTES = 16

#: ERRSTAT[6:0] values.
ERRSTAT_OK = 0x00
ERRSTAT_THERMAL_WARNING = 0x01


class PacketType(enum.Enum):
    READ64 = "read64"
    WRITE64 = "write64"
    PIM = "pim"
    PIM_RET = "pim-ret"


#: Table I — (request FLITs, response FLITs) per transaction type.
_FLIT_TABLE: Dict[PacketType, Tuple[int, int]] = {
    PacketType.READ64: (1, 5),
    PacketType.WRITE64: (5, 1),
    PacketType.PIM: (2, 1),
    PacketType.PIM_RET: (2, 2),
}


def flit_cost(ptype: PacketType) -> Tuple[int, int]:
    """(request FLITs, response FLITs) for a transaction type (Table I)."""
    return _FLIT_TABLE[ptype]


def round_trip_flits(ptype: PacketType) -> int:
    """Total FLITs on the link for one transaction."""
    req, rsp = _FLIT_TABLE[ptype]
    return req + rsp


def bandwidth_saving_fraction() -> float:
    """Upper bound on link-bandwidth saving of PIM vs READ+WRITE.

    A 64-byte read-modify-write done by the host costs a READ (6 FLITs
    round trip) plus a WRITE (6 FLITs) = 12 FLITs; offloaded as a PIM
    instruction without return it costs 3 FLITs — but the paper quotes the
    per-request comparison: 6 FLITs for one host request vs 3 for a PIM op,
    i.e. "up to 50 %" (Sec. II-B).
    """
    read_rt = round_trip_flits(PacketType.READ64)
    pim_rt = round_trip_flits(PacketType.PIM)
    return 1.0 - pim_rt / read_rt


@dataclass
class Request:
    """A request packet entering the cube through a link.

    ``pim`` is set for PIM transactions; ``address`` addresses the target
    for reads/writes. ``tag`` correlates responses with requests.
    """

    ptype: PacketType
    address: int
    tag: int = 0
    pim: Optional[PimInstruction] = None
    issue_time_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"negative address: {self.address}")
        if self.ptype in (PacketType.PIM, PacketType.PIM_RET) and self.pim is None:
            raise ValueError(f"{self.ptype} request requires a PimInstruction payload")
        if self.ptype in (PacketType.READ64, PacketType.WRITE64) and self.pim is not None:
            raise ValueError(f"{self.ptype} request must not carry a PimInstruction")

    @property
    def request_flits(self) -> int:
        return _FLIT_TABLE[self.ptype][0]

    @property
    def response_flits(self) -> int:
        return _FLIT_TABLE[self.ptype][1]


@dataclass
class Response:
    """A response packet leaving the cube.

    Attributes
    ----------
    errstat:
        7-bit error status; ``0x01`` signals a thermal warning.
    atomic_flag:
        For conditional PIM ops — whether the atomic succeeded.
    data:
        Returned payload bytes (reads and PIM-with-return).
    """

    tag: int
    ptype: PacketType
    errstat: int = ERRSTAT_OK
    atomic_flag: bool = True
    data: bytes = b""
    complete_time_ns: float = 0.0
    latency_ns: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.errstat <= 0x7F:
            raise ValueError(f"ERRSTAT must fit in 7 bits, got {self.errstat:#x}")

    @property
    def thermal_warning(self) -> bool:
        """True when ERRSTAT[6:0] == 0x01 (temperature limit exceeded)."""
        return self.errstat == ERRSTAT_THERMAL_WARNING


@dataclass
class FlitLedger:
    """Accumulates FLIT traffic; converts to bytes/bandwidth.

    Used by both the event-level link model and the flow model so that
    Table I economics are enforced by exactly one piece of code.
    """

    request_flits: int = 0
    response_flits: int = 0
    transactions: Dict[PacketType, int] = field(
        default_factory=lambda: {t: 0 for t in PacketType}
    )

    def record(self, ptype: PacketType, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"negative transaction count: {count}")
        req, rsp = _FLIT_TABLE[ptype]
        self.request_flits += req * count
        self.response_flits += rsp * count
        self.transactions[ptype] += count

    @property
    def total_flits(self) -> int:
        return self.request_flits + self.response_flits

    @property
    def total_bytes(self) -> int:
        return self.total_flits * FLIT_BYTES
