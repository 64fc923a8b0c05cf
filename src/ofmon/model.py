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


class PacketRecord(NamedTuple):
    """One trace packet: nanosecond timestamp, IPv4 5-tuple and IP length."""

    timestamp_ns: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: Protocol
    length_bytes: int


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


def flow_key_of(packet: PacketRecord) -> FlowKey:
    """Project a packet onto the flow it belongs to."""
    return FlowKey(
        packet.src_ip, packet.dst_ip, packet.src_port, packet.dst_port, packet.protocol
    )


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
