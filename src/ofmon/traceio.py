"""Trace ingestion, synthetic trace generation and flow-key randomization.

The on-disk trace format is a CSV with header
``ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len`` holding nanosecond
timestamps, dotted-quad IPv4 addresses and TCP/UDP only.  Files ending in
``.gz`` are transparently (de)compressed.
"""

import bisect
import csv
import gzip
import math
import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import FlowKey, PacketRecord, Protocol, ascii_number, format_ip, parse_ip

CSV_HEADER = ["ts_ns", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "len"]

_IP_UNIVERSE = 1 << 16  # distinct addresses available to the skewed drawer
_KNUTH_MIX = 2654435761  # odd, so multiplication is a bijection mod 2^32


class TraceFormatError(ValueError):
    """Malformed trace input; message carries the offending line number."""


def _open_text(path: str, mode: str):
    # a byte that is not UTF-8 reads as U+FFFD, which no field parser accepts,
    # so it fails the line that holds it; the writer emits ASCII only
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", newline="", errors="replace")
    return open(path, mode, newline="", errors="replace")


def read_csv_trace(path: str) -> Iterator[PacketRecord]:
    """Stream packets from a trace file, validating as it goes.

    Raises TraceFormatError on a bad header, malformed fields, protocols
    other than TCP/UDP, timestamps that go backwards, or a file that cannot
    be read to its end (missing, a directory, corrupt gzip, oversized field).
    """
    lineno = 0  # the last line read in full
    try:
        with _open_text(path, "r") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise TraceFormatError(
                    f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
                )
            lineno = 1
            prev_ts = None
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise TraceFormatError(f"line {lineno}: expected 7 fields, got {len(row)}")
                if not ascii_number(row[0] + row[3] + row[4] + row[6]):
                    raise TraceFormatError(
                        f"line {lineno}: ts_ns, src_port, dst_port and len must be ASCII"
                        f" integers, got {row[0]!r}, {row[3]!r}, {row[4]!r}, {row[6]!r}"
                    )
                try:
                    ts = int(row[0])
                    src_ip = parse_ip(row[1])
                    dst_ip = parse_ip(row[2])
                    src_port = int(row[3])
                    dst_port = int(row[4])
                    length = int(row[6])
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: {exc}") from exc
                proto_token = row[5].strip().upper()
                if proto_token not in ("TCP", "UDP"):
                    raise TraceFormatError(f"line {lineno}: unsupported protocol {row[5]!r}")
                if ts < 0:
                    raise TraceFormatError(f"line {lineno}: negative timestamp {ts}")
                if prev_ts is not None and ts < prev_ts:
                    raise TraceFormatError(
                        f"line {lineno}: timestamp {ts} goes backwards (previous {prev_ts})"
                    )
                if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
                    raise TraceFormatError(f"line {lineno}: port out of range")
                if length < 1:
                    raise TraceFormatError(f"line {lineno}: packet length must be >= 1")
                prev_ts = ts
                key = FlowKey(src_ip, dst_ip, src_port, dst_port, Protocol[proto_token])
                yield PacketRecord(ts, key, length)
    except (OSError, EOFError, zlib.error, csv.Error) as exc:
        raise TraceFormatError(f"line {lineno + 1}: {exc}") from exc


def write_csv_trace(packets: Iterable[PacketRecord], path: str) -> int:
    """Write packets out in the trace format; returns the packet count."""
    count = 0
    with _open_text(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for ts, key, length in packets:
            writer.writerow(
                [
                    ts,
                    format_ip(key.src_ip),
                    format_ip(key.dst_ip),
                    key.src_port,
                    key.dst_port,
                    key.protocol.name,
                    length,
                ]
            )
            count += 1
    return count


# -- synthetic traces ----------------------------------------------------


@dataclass(frozen=True)
class Geometric:
    """Flow sizes >= 1 with mean 1/p."""

    p: float

    def __post_init__(self):
        if not 0 < self.p <= 1 or 1.0 - self.p == 1.0:  # the draw divides by log(1 - p)
            raise ValueError(f"geometric p must lie in (0, 1] with 1 - p < 1, got {self.p}")


@dataclass(frozen=True)
class ParetoDiscrete:
    """Heavy-tailed flow sizes >= min_size."""

    alpha: float
    min_size: int = 1

    def __post_init__(self):
        if self.alpha <= 0 or self.min_size < 1:
            raise ValueError("pareto needs alpha > 0 and min_size >= 1")
        try:  # the largest draw, at 1 - random() = 2**-53, as _size_drawer computes it
            finite = math.isfinite(self.min_size / (2.0 ** -53) ** (1.0 / self.alpha))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(f"pareto alpha {self.alpha} and min_size draw sizes beyond a float")


@dataclass(frozen=True)
class Fixed:
    """Every flow has exactly `packets` packets."""

    packets: int

    def __post_init__(self):
        if self.packets < 1:
            raise ValueError("fixed flow size must be >= 1")


SizeDistribution = Geometric | ParetoDiscrete | Fixed


@dataclass(frozen=True)
class UniformRandom:
    """Keys drawn uniformly over the whole field space."""


@dataclass(frozen=True)
class ZipfSkewed:
    """Keys drawn by Zipf-distributed rank: few values dominate."""

    skew: float

    def __post_init__(self):
        if self.skew <= 0:
            raise ValueError("zipf skew must be positive")


KeyMode = UniformRandom | ZipfSkewed


@dataclass(frozen=True)
class ExponentialGap:
    mean_ns: int

    def __post_init__(self):
        if self.mean_ns <= 0:
            raise ValueError("mean gap must be positive")


@dataclass(frozen=True)
class FixedGap:
    gap_ns: int

    def __post_init__(self):
        if self.gap_ns < 0:
            raise ValueError("gap cannot be negative")


GapDistribution = ExponentialGap | FixedGap


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic trace.

    Flow start times spread uniformly over [0, duration_ns); packet counts,
    keys and gaps come from the configured distributions.  Same spec, same
    trace, bit for bit.
    """

    flow_count: int
    size_distribution: SizeDistribution = Geometric(0.5)
    ip_mode: KeyMode = UniformRandom()
    port_mode: KeyMode = UniformRandom()
    tcp_fraction: float = 0.8
    gap: GapDistribution = ExponentialGap(50_000_000)
    duration_ns: int = 1_000_000_000
    seed: int = 0

    def __post_init__(self):
        if self.flow_count < 1:
            raise ValueError("flow_count must be >= 1")
        if not 0 <= self.tcp_fraction <= 1:
            raise ValueError("tcp_fraction must lie in [0, 1]")
        if self.duration_ns < 1:
            raise ValueError("duration must be >= 1ns")


class _ZipfDrawer:
    """Inverse-CDF sampler over ranks 1..universe with weight rank^-skew."""

    def __init__(self, skew: float, universe: int):
        acc = 0.0
        cumulative = []
        for rank in range(1, universe + 1):
            acc += rank ** -skew
            cumulative.append(acc)
        self._cumulative = cumulative
        self._total = acc

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point) + 1


def _ip_drawer(mode: KeyMode):
    if isinstance(mode, UniformRandom):
        return lambda rng: rng.getrandbits(32)
    zipf = _ZipfDrawer(mode.skew, _IP_UNIVERSE)
    # spread popular ranks across the address space while keeping the draw
    # concentrated on few distinct addresses
    return lambda rng: (zipf.draw(rng) * _KNUTH_MIX) & 0xFFFFFFFF


def _port_drawer(mode: KeyMode):
    if isinstance(mode, UniformRandom):
        return lambda rng: rng.randint(1, 65535)
    zipf = _ZipfDrawer(mode.skew, 65535)
    return lambda rng: zipf.draw(rng)  # low ports end up most popular


def _size_drawer(dist: SizeDistribution):
    if isinstance(dist, Fixed):
        return lambda rng: dist.packets
    if isinstance(dist, Geometric):
        if dist.p == 1.0:
            return lambda rng: 1
        log_q = math.log(1.0 - dist.p)
        return lambda rng: int(math.log(1.0 - rng.random()) / log_q) + 1
    alpha_inv = 1.0 / dist.alpha
    return lambda rng: int(dist.min_size / ((1.0 - rng.random()) ** alpha_inv))


def _gap_drawer(gap: GapDistribution):
    if isinstance(gap, FixedGap):
        return lambda rng: gap.gap_ns
    mean = float(gap.mean_ns)
    return lambda rng: max(1, round(rng.expovariate(1.0 / mean)))


def generate_trace(spec: SyntheticSpec) -> list[PacketRecord]:
    """Materialize the synthetic trace: distinct flow keys, >= 1 packet each,
    packets merged into non-decreasing timestamp order."""
    rng = random.Random(spec.seed)
    draw_ip = _ip_drawer(spec.ip_mode)
    draw_port = _port_drawer(spec.port_mode)
    draw_size = _size_drawer(spec.size_distribution)
    draw_gap = _gap_drawer(spec.gap)

    used_keys: set[FlowKey] = set()
    packets: list[PacketRecord] = []
    for _ in range(spec.flow_count):
        for attempt in range(1000):
            protocol = Protocol.TCP if rng.random() < spec.tcp_fraction else Protocol.UDP
            if attempt < 10:
                key = FlowKey(draw_ip(rng), draw_ip(rng), draw_port(rng), draw_port(rng), protocol)
            else:  # skewed draws can collide a lot; fall back to uniform ports
                key = FlowKey(draw_ip(rng), draw_ip(rng), rng.randint(1, 65535), rng.randint(1, 65535), protocol)
            if key not in used_keys:
                break
        else:
            raise RuntimeError("could not draw a fresh flow key; key space exhausted")
        used_keys.add(key)
        size = draw_size(rng)
        ts = rng.randrange(spec.duration_ns)
        for _ in range(size):
            packets.append(PacketRecord(ts, key, _packet_length(rng, protocol)))
            ts += draw_gap(rng)
    packets.sort(key=lambda p: p.timestamp_ns)  # stable: flow order breaks ties
    return packets


def _packet_length(rng: random.Random, protocol: Protocol) -> int:
    # crude but serviceable size model: UDP datagrams small, TCP mixed
    if protocol is Protocol.UDP:
        return rng.randint(64, 512)
    return rng.choice((64, 576, 1500))


def randomize_trace(trace: Iterable[PacketRecord], seed: int) -> list[PacketRecord]:
    """Rewrite flow keys with uniformly random IPs/ports (protocol kept).

    The rewrite is a per-seed bijection on whole flow keys: distinct flows
    stay distinct, and every packet of a flow moves together, so sizes,
    timestamps and the flow size distribution are untouched.
    """
    rng = random.Random(seed)
    mapping: dict[FlowKey, FlowKey] = {}
    used: set[FlowKey] = set()
    out = []
    for pkt in trace:
        fresh = mapping.get(pkt.key)
        if fresh is None:
            while True:
                fresh = FlowKey(
                    rng.getrandbits(32),
                    rng.getrandbits(32),
                    rng.randint(1, 65535),
                    rng.randint(1, 65535),
                    pkt.key.protocol,
                )
                if fresh not in used:
                    break
            used.add(fresh)
            mapping[pkt.key] = fresh
        out.append(pkt._replace(key=fresh))
    return out
