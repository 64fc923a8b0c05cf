"""Packet, flow-key and flow-record primitives shared by every other module."""

import enum
import ipaddress
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class Protocol(enum.IntEnum):
    """Transport protocol, valued by IP protocol number."""

    TCP = 6
    UDP = 17


class ExpiryReason(enum.Enum):
    """Why a flow record was closed."""

    IDLE_TIMEOUT = "idle"
    HARD_TIMEOUT = "hard"
    END_OF_TRACE = "eot"


class FlowKey(NamedTuple):
    """Unidirectional flow identity: the exact 5-tuple.

    The two directions of a connection are distinct flows on purpose; tuple
    ordering gives the lexicographic sort used for stable exports.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: Protocol


class PacketRecord(NamedTuple):
    """One trace packet: nanosecond timestamp, its flow and its IP length."""

    timestamp_ns: int
    key: FlowKey
    length_bytes: int


def flow_key_of(packet: PacketRecord) -> FlowKey:
    """The flow a packet belongs to."""
    return packet.key


def flow_sizes(packets: Iterable[PacketRecord]) -> Counter[FlowKey]:
    """Packet count per flow of a trace: the table every trial reads."""
    return Counter(map(flow_key_of, packets))


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """Accumulated statistics for one monitored flow, NetFlow-record style.

    packet_count/byte_count are merged totals: the switch entry's counters
    plus the packets the controller saw before the entry existed (the entry
    counters alone miss those).  controller_packet_count is that
    controller-seen share, so the entry-only part is the difference.
    """

    key: FlowKey
    first_seen_ns: int
    last_seen_ns: int
    packet_count: int
    byte_count: int
    controller_packet_count: int
    expiry_reason: ExpiryReason


def format_ip(addr: int) -> str:
    """32-bit integer address to dotted quad."""
    return str(ipaddress.IPv4Address(addr))


def parse_ip(text: str) -> int:
    """Dotted quad to 32-bit integer; raises ValueError on anything else."""
    return int(ipaddress.IPv4Address(text))


def ascii_number(text: str, symbols: str = "-") -> bool:
    """Whether `text` holds nothing but ASCII digits and `symbols`.

    int(), float() and Fraction() also read other scripts' digits, '_' and
    surrounding spaces, so a number from outside the program passes this
    check first; the parser then rejects a symbol out of place.
    """
    return not text.strip("0123456789" + symbols)
