"""Trace ingestion, synthetic trace generation and flow-key randomization.

The on-disk trace format is a CSV with header
``ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len`` holding nanosecond
timestamps, dotted-quad IPv4 addresses and TCP/UDP only.  Files ending in
``.gz`` are transparently (de)compressed.

The reader takes the file a block of lines at a time and checks each block
column by column, parsing each flow's key once; a protocol in any ASCII case
(``tcp``, ``Udp``) passes.  A block that fails a check (a quote, a NUL, a
lone CR, a blank or overlong line, a spelling such as port ``-0``, a fault)
or meets a read error goes through csv.reader row by row, so the packets and
the located error are those of a row-by-row read; the next block takes the
block check again.
"""

import csv
import gzip
import math
import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, islice, product, repeat
from operator import itemgetter, le
from typing import Callable, Iterable, Iterator

from .model import (
    FlowKey, PacketRecord, Protocol, ascii_number, check_seed, format_ip, parse_ip
)

CSV_HEADER = ["ts_ns", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "len"]
# every ASCII casing of each name: `tcp` and `Udp` read as TCP and UDP
_PROTOCOLS = {"".join(name): p for p in Protocol for name in product(*zip(p.name, p.name.lower()))}
_READ_ERRORS = (OSError, EOFError, zlib.error)
_BLOCK_LINES = 128  # lines checked at once: more save little time and raise peak memory
# a longer line takes the row check, so the block check never meets a field
# past csv's field limit (131072 by default) or int()'s digit limit
_LONGEST_LINE = 4096
_new_tuple = tuple.__new__  # what a NamedTuple's constructor calls, minus the Python frame

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
            header = next(csv.reader(fh), None)
            if header != CSV_HEADER:
                raise TraceFormatError(
                    f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
                )
            lineno = 1
            prev_ts = 0
            # key text of every accepted row -> its FlowKey.  Accepted fields
            # hold no comma, so the joined text names its fields.
            keys: dict[str, FlowKey] = {}
            while True:
                block: list[str] = []
                rest: Iterable[str] = fh
                try:
                    block.extend(islice(fh, _BLOCK_LINES))
                except _READ_ERRORS as exc:  # the lines read before it stay
                    rest = _raising(exc)
                else:
                    if not block:
                        return
                    columns = _block_columns(block, prev_ts, keys)
                    if columns is not None:
                        lineno += len(block)
                        prev_ts = columns[0][-1]
                        yield from map(_new_tuple, repeat(PacketRecord), zip(*columns))
                        continue
                # this block alone, row by row, up to a read error if one came.
                # A record past the block's end has a line end in a field, so
                # it fails its check.
                reader = csv.reader(chain(block, rest))
                for lineno, row in enumerate(reader, start=lineno + 1):
                    if row:
                        prev_ts, key, length = _checked_packet(row, lineno, prev_ts)
                        key = keys.setdefault(",".join(row[1:6]), key)  # one object per flow
                        yield PacketRecord(prev_ts, key, length)
                    if rest is fh and reader.line_num >= len(block):
                        break
    except (*_READ_ERRORS, csv.Error) as exc:
        raise TraceFormatError(f"line {lineno + 1}: {exc}") from exc


def _raising(exc: BaseException) -> Iterator[str]:
    """An iterator whose first step raises `exc`."""
    raise exc
    yield


def _block_columns(
    lines: list[str], prev_ts: int, keys: dict[str, FlowKey]
) -> tuple[list[int], list[FlowKey], list[int]] | None:
    """The timestamps, keys and lengths of a block of lines, each column
    checked at once, or None if any line fails a check.

    No field check accepts a quote, a NUL or a CR, so in an accepted line
    csv.reader would split on the commas alone, and a line that csv would
    read otherwise always fails.  CRLF line ends read as LF ones, as csv
    reads them.  New key texts are parsed and added to `keys` last, once
    nothing else in the block can fail.
    """
    if max(map(len, lines)) > _LONGEST_LINE:
        return None
    text = "".join(lines)
    if "\r" in text:  # a lone CR stays, in the last field of its line
        text = text.replace("\r\n", "\n")
    rows = text.split("\n")
    if not rows[-1]:  # what follows the last line end
        rows.pop()
    ts_texts, _, rests = zip(*map(str.partition, rows, repeat(",")))
    key_texts, _, length_texts = zip(*map(str.rpartition, rests, repeat(",")))
    digits = "".join(ts_texts) + "".join(length_texts)
    if not (digits.isdigit() and digits.isascii()):
        return None
    try:  # an empty field fails here
        times = list(map(int, ts_texts))
        lengths = list(map(int, length_texts))
    except ValueError:
        return None
    if 0 in lengths or not all(map(le, chain((prev_ts,), times), times)):
        return None
    new = set(key_texts).difference(keys)
    if new:
        parsed = _parsed_keys(list(new))
        if parsed is None:
            return None
        keys.update(parsed)
    return times, list(map(keys.__getitem__, key_texts)), lengths


def _parsed_keys(texts: list[str]) -> dict[str, FlowKey] | None:
    """Key text -> FlowKey for `src_ip,dst_ip,src_port,dst_port,proto` texts,
    checked column by column; None if any text fails a check, for the row
    check to report or read."""
    if set(map(str.count, texts, repeat(","))) != {4}:
        return None
    fields = ",".join(texts).split(",")  # five a text, so column i is fields[i::5]
    src_ports, dst_ports = fields[2::5], fields[3::5]
    digits = "".join(src_ports + dst_ports)
    if not (digits.isdigit() and digits.isascii()):
        return None
    try:
        src_addrs = list(map(parse_ip, fields[0::5]))
        dst_addrs = list(map(parse_ip, fields[1::5]))
        ports = list(map(int, src_ports + dst_ports))  # an empty port fails here
        protocols = list(map(_PROTOCOLS.__getitem__, fields[4::5]))
    except (KeyError, ValueError):
        return None
    if max(ports) > 65535:
        return None
    n = len(texts)
    return dict(zip(texts, map(_new_tuple, repeat(FlowKey), zip(
        src_addrs, dst_addrs, ports[:n], ports[n:], protocols))))


def _checked_packet(row: list[str], lineno: int, prev_ts: int) -> PacketRecord:
    """The packet a data row holds, every field checked; the message names the line."""
    if len(row) != len(CSV_HEADER):
        raise TraceFormatError(f"line {lineno}: expected 7 fields, got {len(row)}")
    if not ascii_number(row[0] + row[3] + row[4] + row[6]):
        raise TraceFormatError(
            f"line {lineno}: ts_ns, src_port, dst_port and len must be ASCII"
            f" integers, got {row[0]!r}, {row[3]!r}, {row[4]!r}, {row[6]!r}"
        )
    try:
        ts = int(row[0])
        src_port = int(row[3])
        dst_port = int(row[4])
        length = int(row[6])
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc
    try:
        src_ip = parse_ip(row[1])
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: src_ip {exc}") from exc
    try:
        dst_ip = parse_ip(row[2])
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: dst_ip {exc}") from exc
    protocol = _PROTOCOLS.get(row[5])
    if protocol is None:
        raise TraceFormatError(f"line {lineno}: unsupported protocol {row[5]!r}")
    if ts < 0:
        raise TraceFormatError(f"line {lineno}: negative timestamp {ts}")
    if ts < prev_ts:
        raise TraceFormatError(
            f"line {lineno}: timestamp {ts} goes backwards (previous {prev_ts})"
        )
    if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
        raise TraceFormatError(f"line {lineno}: port out of range")
    if length < 1:
        raise TraceFormatError(f"line {lineno}: packet length must be >= 1")
    return PacketRecord(ts, FlowKey(src_ip, dst_ip, src_port, dst_port, protocol), length)


def write_csv_trace(packets: Iterable[PacketRecord], path: str) -> int:
    """Write packets out in the trace format; returns the packet count.

    No field needs CSV quoting (integers, dotted quads, TCP or UDP), so each
    line is joined directly, with each flow's key text formatted once.
    """
    count = 0
    texts: dict[FlowKey, str] = {}
    with _open_text(path, "w") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for ts, key, length in packets:
            text = texts.get(key)
            if text is None:
                text = texts[key] = (
                    f"{format_ip(key.src_ip)},{format_ip(key.dst_ip)},"
                    f"{key.src_port},{key.dst_port},{key.protocol.name}"
                )
            fh.write(f"{ts},{text},{length}\n")
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
        try:  # the largest draw, at 1 - random() = 2**-53, as _gap_drawer computes it
            finite = math.isfinite(-math.log(2.0 ** -53) / (1.0 / float(self.mean_ns)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("mean gap too large: its longest draw is beyond a float")


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
        check_seed(self.seed)


def _below(getrandbits, n: int) -> int:
    """What `random.Random.randrange(n)` draws for n >= 1, through the bound
    `getrandbits`: CPython's `_randbelow_with_getrandbits`, which `randint`,
    `choice` and `randrange` all come down to."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _zipf_drawer(skew: float, universe: int, rng: random.Random) -> Callable[[], int]:
    """Inverse-CDF sampler over ranks 1..universe with weight rank^-skew."""
    cumulative = list(accumulate(map(pow, range(1, universe + 1), repeat(-skew))))
    total, rand = cumulative[-1], rng.random
    return lambda: bisect_left(cumulative, rand() * total) + 1


def _ip_drawer(mode: KeyMode, rng: random.Random) -> Callable[[], int]:
    if isinstance(mode, UniformRandom):
        return partial(rng.getrandbits, 32)
    zipf = _zipf_drawer(mode.skew, _IP_UNIVERSE, rng)
    # spread popular ranks across the address space while keeping the draw
    # concentrated on few distinct addresses
    return lambda: (zipf() * _KNUTH_MIX) & 0xFFFFFFFF


def _uniform_port(getrandbits) -> int:
    return _below(getrandbits, 65535) + 1  # randint(1, 65535)


def _port_drawer(mode: KeyMode, rng: random.Random) -> Callable[[], int]:
    if isinstance(mode, UniformRandom):
        return partial(_uniform_port, rng.getrandbits)
    return _zipf_drawer(mode.skew, 65535, rng)  # low ports end up most popular


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
    lambd = 1.0 / float(gap.mean_ns)
    # max(1, round(rng.expovariate(lambd))): the draw is never negative
    return lambda rng: round(-math.log(1.0 - rng.random()) / lambd) or 1


_TCP_LENGTHS = (64, 576, 1500)  # crude but serviceable: UDP datagrams small, TCP mixed


def generate_trace(spec: SyntheticSpec) -> list[PacketRecord]:
    """Materialize the synthetic trace: distinct flow keys, >= 1 packet each,
    packets merged into non-decreasing timestamp order.

    Every draw is the one `random.Random`'s `randint`, `choice`, `randrange`
    and `expovariate` make, taken through `_below` and `random()` directly.
    """
    rng = random.Random(spec.seed)
    bits, rand = rng.getrandbits, rng.random
    draw_ip = _ip_drawer(spec.ip_mode, rng)
    draw_port = _port_drawer(spec.port_mode, rng)
    draw_size = _size_drawer(spec.size_distribution)
    draw_gap = _gap_drawer(spec.gap)
    tcp_fraction, duration = spec.tcp_fraction, spec.duration_ns

    used_keys: set[FlowKey] = set()
    packets: list[PacketRecord] = []
    append = packets.append
    for _ in range(spec.flow_count):
        for attempt in range(1000):
            protocol = Protocol.TCP if rand() < tcp_fraction else Protocol.UDP
            if attempt < 10:
                key = FlowKey(draw_ip(), draw_ip(), draw_port(), draw_port(), protocol)
            else:  # skewed draws can collide a lot; fall back to uniform ports
                key = FlowKey(draw_ip(), draw_ip(), _uniform_port(bits), _uniform_port(bits), protocol)
            if key not in used_keys:
                break
        else:
            raise RuntimeError("could not draw a fresh flow key; key space exhausted")
        used_keys.add(key)
        size = draw_size(rng)
        ts = _below(bits, duration)
        udp = protocol is Protocol.UDP
        for _ in range(size):
            if udp:  # randint(64, 512)
                length = _below(bits, 449) + 64
            else:  # choice(_TCP_LENGTHS)
                length = _TCP_LENGTHS[_below(bits, 3)]
            append(PacketRecord(ts, key, length))
            ts += draw_gap(rng)
    packets.sort(key=itemgetter(0))  # stable: flow order breaks ties
    return packets


def randomize_trace(trace: Iterable[PacketRecord], seed: int) -> list[PacketRecord]:
    """Rewrite flow keys with uniformly random IPs/ports (protocol kept).

    The rewrite is a per-seed bijection on whole flow keys: distinct flows
    stay distinct, and every packet of a flow moves together, so sizes,
    timestamps and the flow size distribution are untouched.
    """
    rng = random.Random(check_seed(seed))
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
