"""Packet, flow-key and flow-record primitives shared by every other module."""

import enum
from collections import Counter
from typing import Iterable, NamedTuple

SEED_LIMIT = 1 << 64  # derive_seed and the hash key read a seed's low 64 bits


class Protocol(enum.IntEnum):
    """Transport protocol, valued by IP protocol number."""

    TCP = 6
    UDP = 17


class FlowRemovedReason(enum.Enum):
    """Why a record entry left the switch, and so why its flow record closed."""

    IDLE = "idle"
    HARD = "hard"
    DELETE = "delete"  # explicit removal, e.g. the end-of-trace drain


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


class FlowRecord(NamedTuple):
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
    expiry_reason: FlowRemovedReason


def check_seed(seed: int) -> int:
    """`seed` if it lies in [0, 2**64): the seeds a user can give.

    random.Random keys on |seed| and derive_seed on the low 64 bits, so any
    other seed would run as some seed in range.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


# Octet spellings: "0".."255" and nothing else.  ipaddress accepts exactly
# these (ASCII digits, no leading zero, at most 255), so a dict lookup both
# parses an octet and rejects every other spelling.
_OCTET_VALUE = {str(i): i for i in range(256)}
_OCTET_TEXT = tuple(_OCTET_VALUE)


def format_ip(addr: int) -> str:
    """32-bit integer address to dotted quad."""
    if not 0 <= addr <= 0xFFFFFFFF:
        raise ValueError(f"{addr} is not a 32-bit address")
    t = _OCTET_TEXT
    return f"{t[addr >> 24]}.{t[addr >> 16 & 255]}.{t[addr >> 8 & 255]}.{t[addr & 255]}"


def parse_ip(text: str) -> int:
    """Dotted quad to 32-bit integer; raises ValueError on anything else."""
    value = _OCTET_VALUE
    try:
        a, b, c, d = text.split(".")
        return value[a] << 24 | value[b] << 16 | value[c] << 8 | value[d]
    except (ValueError, KeyError):
        raise ValueError(f"{text!r} is not a dotted-quad IPv4 address") from None


def ascii_number(text: str, symbols: str = "-") -> bool:
    """Whether `text` holds nothing but ASCII digits and `symbols`.

    int(), float() and Fraction() also read other scripts' digits, '_' and
    surrounding spaces, so a number from outside the program passes this
    check first; the parser then rejects a symbol out of place.
    """
    return not text.strip("0123456789" + symbols)


def ascii_int(text: str) -> int:
    """int(text) for ASCII digits and '-' only."""
    if not ascii_number(text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)
