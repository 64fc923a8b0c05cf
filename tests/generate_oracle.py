"""The synthetic trace generator as it was before it inlined its draws: the
reference.

``generate_trace`` below draws through ``random.Random``'s own ``randint``,
``choice``, ``randrange`` and ``expovariate``.  The differential test in
test_traceio.py requires the package's generator to build the same trace
from every spec.  Keep it as it is.
"""

import bisect
import math
import random

from ofmon.model import FlowKey, PacketRecord, Protocol
from ofmon.traceio import (
    ExponentialGap,
    Fixed,
    FixedGap,
    Geometric,
    ParetoDiscrete,
    SyntheticSpec,
    UniformRandom,
)

_IP_UNIVERSE = 1 << 16
_KNUTH_MIX = 2654435761


class _ZipfDrawer:
    def __init__(self, skew, universe):
        acc = 0.0
        cumulative = []
        for rank in range(1, universe + 1):
            acc += rank ** -skew
            cumulative.append(acc)
        self._cumulative = cumulative
        self._total = acc

    def draw(self, rng):
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point) + 1


def _ip_drawer(mode):
    if isinstance(mode, UniformRandom):
        return lambda rng: rng.getrandbits(32)
    zipf = _ZipfDrawer(mode.skew, _IP_UNIVERSE)
    return lambda rng: (zipf.draw(rng) * _KNUTH_MIX) & 0xFFFFFFFF


def _port_drawer(mode):
    if isinstance(mode, UniformRandom):
        return lambda rng: rng.randint(1, 65535)
    zipf = _ZipfDrawer(mode.skew, 65535)
    return lambda rng: zipf.draw(rng)


def _size_drawer(dist):
    if isinstance(dist, Fixed):
        return lambda rng: dist.packets
    if isinstance(dist, Geometric):
        if dist.p == 1.0:
            return lambda rng: 1
        log_q = math.log(1.0 - dist.p)
        return lambda rng: int(math.log(1.0 - rng.random()) / log_q) + 1
    assert isinstance(dist, ParetoDiscrete)
    alpha_inv = 1.0 / dist.alpha
    return lambda rng: int(dist.min_size / ((1.0 - rng.random()) ** alpha_inv))


def _gap_drawer(gap):
    if isinstance(gap, FixedGap):
        return lambda rng: gap.gap_ns
    assert isinstance(gap, ExponentialGap)
    mean = float(gap.mean_ns)
    return lambda rng: max(1, round(rng.expovariate(1.0 / mean)))


def generate_trace(spec: SyntheticSpec) -> list[PacketRecord]:
    rng = random.Random(spec.seed)
    draw_ip = _ip_drawer(spec.ip_mode)
    draw_port = _port_drawer(spec.port_mode)
    draw_size = _size_drawer(spec.size_distribution)
    draw_gap = _gap_drawer(spec.gap)

    used_keys = set()
    packets = []
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
    packets.sort(key=lambda p: p.timestamp_ns)
    return packets


def _packet_length(rng, protocol):
    if protocol is Protocol.UDP:
        return rng.randint(64, 512)
    return rng.choice((64, 576, 1500))
