"""Small builders shared across test modules."""

import random

from ofmon.model import FlowKey, PacketRecord, Protocol, parse_ip


def pkt(ts=0, src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=80,
        proto=Protocol.TCP, length=100):
    """One packet with friendly defaults; IPs accepted as dotted quads."""
    return PacketRecord(
        timestamp_ns=ts,
        key=FlowKey(
            src_ip=parse_ip(src) if isinstance(src, str) else src,
            dst_ip=parse_ip(dst) if isinstance(dst, str) else dst,
            src_port=sport,
            dst_port=dport,
            protocol=Protocol(proto),
        ),
        length_bytes=length,
    )


def random_trace(n_flows, seed, packets_per_flow=1, gap_ns=1_000_000):
    """Distinct uniform 5-tuples, a fixed packet count each, time-ordered."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < n_flows:
        keys.add(FlowKey(
            rng.getrandbits(32),
            rng.getrandbits(32),
            rng.randint(1, 65535),
            rng.randint(1, 65535),
            Protocol.TCP if rng.random() < 0.7 else Protocol.UDP,
        ))
    out = []
    t = 0
    for key in sorted(keys):
        for _ in range(packets_per_flow):
            out.append(PacketRecord(t, key, rng.randint(64, 1500)))
            t += gap_ns
    return out
