"""End-to-end acceptance checks, one per numbered criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  These replays are sized for minutes, not hours; the heavier
statistical claims (medians, spreads, orderings) use fixed seeds so reruns
are bit-stable.
"""

import contextlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofmon import (
    ControllerConfig,
    FlowKey,
    PacketRecord,
    Protocol,
    SamplingConfig,
    SamplingMethod,
    SamplingMode,
    SyntheticSpec,
    config_for_rate,
    flow_key_of,
    flow_sizes,
    generate_rules,
    generate_trace,
    randomize_trace,
    replay,
    run_overhead_experiment,
    run_rate_experiment,
    run_wmrd_experiment,
    select_bucket,
)
from ofmon.campaign import load_campaign, run_campaign
from ofmon.sampling import PORT_SPACE, gen_port_rules
from ofmon.switch import (
    FLOW_RECORD_PRIORITY,
    FlowEntry,
    FlowRemoved,
    FlowRemovedReason,
    GotoTable,
    MatchFields,
    Switch,
    TableStateError,
)
from ofmon.traceio import ExponentialGap, Fixed, FixedGap, Geometric, UniformRandom, ZipfSkewed

MS = 1_000_000


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} [{label}]: FAIL")
        raise
    print(f"\ncriterion {num} [{label}]: PASS")


# -- shared traces ---------------------------------------------------------


@pytest.fixture(scope="session")
def uniform_trace_100k():
    spec = SyntheticSpec(flow_count=100_000, size_distribution=Fixed(1),
                         gap=FixedGap(0), duration_ns=1_000_000_000, seed=101)
    return generate_trace(spec)


@pytest.fixture(scope="session")
def skewed_trace():
    spec = SyntheticSpec(flow_count=20_000, size_distribution=Fixed(1),
                         ip_mode=ZipfSkewed(1.3), port_mode=ZipfSkewed(1.3),
                         gap=FixedGap(0), duration_ns=1_000_000_000, seed=11)
    return generate_trace(spec)


@pytest.fixture(scope="session")
def randomized_trace(skewed_trace):
    return randomize_trace(skewed_trace, seed=12)


@pytest.fixture(scope="session")
def service_mix_trace():
    """A few busy services with fixed-size flows over a mice background.

    Flow sizes correlate with the key fields here (as they do on real
    networks), which is exactly what separates key-biased samplers from the
    hash method.
    """
    servers = [(0x0A010105, 443), (0x0A020219, 8443), (0xC0A80307, 993)]
    rng = random.Random(41)
    heavy = []
    seen = set()
    for _ in range(5_000):
        sip, sport = servers[rng.randrange(len(servers))]
        while True:
            key = (sip, rng.getrandbits(32), sport, rng.randint(1024, 65535))
            if key not in seen:
                seen.add(key)
                break
        ts = rng.randrange(2_000_000_000)
        for _ in range(15):
            heavy.append(PacketRecord(ts, FlowKey(*key, Protocol.TCP), 1500))
            ts += 2 * MS
    light = generate_trace(SyntheticSpec(
        flow_count=25_000, size_distribution=Geometric(0.6),
        ip_mode=UniformRandom(), port_mode=UniformRandom(),
        gap=FixedGap(2 * MS), duration_ns=2_000_000_000, seed=32))
    return sorted(heavy + light, key=lambda p: p.timestamp_ns)


@pytest.fixture(scope="session")
def gappy_tcp_trace():
    spec = SyntheticSpec(flow_count=3_000, size_distribution=Geometric(0.3),
                         tcp_fraction=1.0, gap=ExponentialGap(50 * MS),
                         duration_ns=2_000_000_000, seed=61)
    return generate_trace(spec)


# -- criteria --------------------------------------------------------------


def test_criterion_1_port_entry_arithmetic():
    with criterion(1, "port entry arithmetic"):
        source = gen_port_rules(config_for_rate(
            SamplingMethod.PORT_BASED, SamplingMode.SOURCE_ONLY, Fraction(1, 200)))
        assert abs(source.entries_per_protocol - 328) <= 1
        pair = gen_port_rules(config_for_rate(
            SamplingMethod.PORT_BASED, SamplingMode.PAIR, Fraction(1, 200)))
        assert abs(pair.entries_per_protocol - 9268) <= 1


def test_criterion_2_rate_formulas():
    with criterion(2, "closed-form sampling rates"):
        rng = random.Random(102)
        for _ in range(1000):
            method = rng.choice(list(SamplingMethod))
            mode = rng.choice(list(SamplingMode))
            seed = rng.getrandbits(32)
            if method is SamplingMethod.IP_SUFFIX:
                src = rng.randint(0, 16)
                dst = rng.randint(0, 16) if mode is SamplingMode.PAIR else 0
                cfg = SamplingConfig(method, mode, src, dst, seed=seed)
                expect = Fraction(1, 2 ** (src + dst))
            elif method is SamplingMethod.PORT_BASED:
                src = rng.randint(1, 4000)
                dst = rng.randint(1, 4000) if mode is SamplingMode.PAIR else 0
                cfg = SamplingConfig(method, mode, src, dst, seed=seed)
                expect = (Fraction(src * dst, PORT_SPACE**2)
                          if mode is SamplingMode.PAIR else Fraction(src, PORT_SPACE))
            else:
                sample, drop = rng.randint(1, 64), rng.randint(0, 4096)
                cfg = SamplingConfig(method, mode, sample_weight=sample,
                                     drop_weight=drop, seed=seed)
                expect = Fraction(sample, sample + drop)
            assert generate_rules(cfg).theoretical_rate == expect


def test_criterion_3_hash_accuracy(uniform_trace_100k):
    with criterion(3, "hash-based sampling accuracy"):
        sizes = flow_sizes(uniform_trace_100k)
        n = len(sizes)
        assert n == 100_000
        for denom in (64, 128, 256, 512, 1024):
            rate = Fraction(1, denom)
            first = run_rate_experiment(sizes, "hash", "source",
                                        rate, trials=3, seed=103)
            again = run_rate_experiment(sizes, "hash", "source",
                                        rate, trials=3, seed=103)
            assert first.trials == 1  # deterministic: one trial, no variance
            assert first.counts == again.counts
            sigma = (n * float(rate) * (1 - float(rate))) ** 0.5
            assert abs(first.counts[0] - n * float(rate)) <= 3 * sigma, (
                denom, first.counts[0])


def test_criterion_4_biased_methods_on_randomized_traces(skewed_trace, randomized_trace):
    with criterion(4, "ip/port accuracy after key randomization"):
        rate = Fraction(1, 64)
        randomized, skewed = flow_sizes(randomized_trace), flow_sizes(skewed_trace)
        cells = [("ip-suffix", "source"), ("ip-suffix", "pair"),
                 ("port", "source"), ("port", "pair")]
        for method, mode in cells:
            rand = run_rate_experiment(randomized, method, mode, rate,
                                       trials=100, seed=104)
            assert abs(rand.median - rand.theoretical_count) <= 0.10 * rand.theoretical_count, (
                method, mode, rand.median, rand.theoretical_count)
            skew = run_rate_experiment(skewed, method, mode, rate,
                                       trials=100, seed=104)
            assert (skew.p95 - skew.p5) > (rand.p95 - rand.p5), (method, mode)


def test_criterion_5_wmrd_ordering(service_mix_trace):
    with criterion(5, "hash has the best size-distribution fidelity"):
        rate = Fraction(1, 256)
        sizes = flow_sizes(service_mix_trace)
        hash_summary = run_wmrd_experiment(sizes, "hash", "source",
                                           rate, trials=1, seed=105)
        ip = run_wmrd_experiment(sizes, "ip-suffix", "source",
                                 rate, trials=100, seed=105)
        port = run_wmrd_experiment(sizes, "port", "source",
                                   rate, trials=100, seed=105)
        assert hash_summary.median <= ip.median, (hash_summary.median, ip.median)
        assert hash_summary.median <= port.median, (hash_summary.median, port.median)

        # identity case: monitoring everything reproduces the FSD exactly
        full = run_wmrd_experiment(sizes, "ip-suffix", "source",
                                   Fraction(1), trials=1, seed=105)
        assert full.values == (0.0,)


def test_criterion_6_overhead_model(gappy_tcp_trace):
    with criterion(6, "controller overhead vs install delay"):
        delays = [0, 1 * MS, 5 * MS, 10 * MS, 20 * MS, 50 * MS, 100 * MS]
        points = run_overhead_experiment(gappy_tcp_trace, delays_ns=delays)
        tcp = {p.install_delay_ns: p for p in points if p.protocol is Protocol.TCP}

        assert tcp[0].redundant_packets == 0
        assert tcp[0].redundant_bytes == 0
        means = [tcp[d].mean_redundant_packets_per_flow for d in delays]
        assert means == sorted(means)
        byte_pcts = [tcp[d].redundant_byte_percent for d in delays]
        assert byte_pcts == sorted(byte_pcts)
        assert 0.1 <= tcp[100 * MS].mean_redundant_packets_per_flow <= 10.0


# -- criterion 7: pipeline-semantics property suite ------------------------


def _random_config(data):
    method = data.draw(st.sampled_from(list(SamplingMethod)))
    mode = data.draw(st.sampled_from(list(SamplingMode)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    if method is SamplingMethod.IP_SUFFIX:
        src = data.draw(st.integers(0, 8))
        dst = data.draw(st.integers(0, 8)) if mode is SamplingMode.PAIR else 0
        return SamplingConfig(method, mode, src, dst, seed=seed)
    if method is SamplingMethod.PORT_BASED:
        src = data.draw(st.integers(1, 30_000))
        dst = data.draw(st.integers(1, 30_000)) if mode is SamplingMode.PAIR else 0
        return SamplingConfig(method, mode, src, dst, seed=seed)
    return SamplingConfig(method, mode, sample_weight=data.draw(st.integers(1, 4)),
                          drop_weight=data.draw(st.integers(0, 12)), seed=seed)


def _small_trace(seed, n_flows, max_packets):
    rng = random.Random(seed)
    packets = []
    t = 0
    for i in range(n_flows):
        key = (rng.getrandbits(32), rng.getrandbits(32), rng.randint(1, 65535),
               rng.randint(1, 65535),
               Protocol.TCP if rng.random() < 0.5 else Protocol.UDP)
        for _ in range(rng.randint(1, max_packets)):
            packets.append(PacketRecord(t, FlowKey(*key), rng.randint(64, 1500)))
            t += rng.randint(0, 3 * MS)
    packets.sort(key=lambda p: p.timestamp_ns)
    return packets


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def _prop_transparency(data):
    # every packet reaches table 1 exactly once, whatever the rules are
    cfg = _random_config(data)
    rules = generate_rules(cfg)
    sw = Switch(bucket_selector=lambda g, k: select_bucket(g, k, cfg.seed))
    sw.install_flow_entry(FlowEntry(match=MatchFields(), priority=0,
                                    actions=(GotoTable(),)), install_time_ns=0)
    for group in rules.groups:
        sw.install_group(group)
    for e in rules.flow_entries:
        sw.install_flow_entry(e, install_time_ns=0)
    trace = _small_trace(data.draw(st.integers(0, 2**16)), n_flows=40, max_packets=4)
    for p in trace:
        sw.process_packet(p)
    assert sw.table1_packet_count == len(trace)
    assert sw.table1_byte_count == sum(p.length_bytes for p in trace)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), delay_ms=st.integers(0, 12))
def _prop_counter_conservation(seed, delay_ms):
    # rate 1: every packet lands in exactly one record; redundancy adds up
    trace = _small_trace(seed, n_flows=50, max_packets=6)
    cc = ControllerConfig(install_delay_ns=delay_ms * MS)
    result = replay(trace, SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=0), cc)
    per_key_packets = Counter()
    per_key_bytes = Counter()
    for p in trace:
        per_key_packets[flow_key_of(p)] += 1
        per_key_bytes[flow_key_of(p)] += p.length_bytes
    got_packets = Counter()
    got_bytes = Counter()
    for r in result.records:
        got_packets[r.key] += r.packet_count
        got_bytes[r.key] += r.byte_count
    assert got_packets == per_key_packets
    assert got_bytes == per_key_bytes
    # each record holds one escalated first packet plus its redundant tail
    total_redundant = sum(result.redundant_packets_by_protocol.values())
    assert sum(r.controller_packet_count for r in result.records) == (
        len(result.records) + total_redundant)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def _prop_priority_soundness(data):
    # the incremented entry is always the (priority, install, id) maximum
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    sw = Switch()
    ids = [sw.install_flow_entry(FlowEntry(match=MatchFields(), priority=0,
                                           actions=(GotoTable(),)), install_time_ns=0)]
    for i in range(25):
        fields = {}
        if rng.random() < 0.5:
            fields["protocol"] = rng.choice([Protocol.TCP, Protocol.UDP])
        if rng.random() < 0.5:
            fields["src_port"] = rng.randint(1, 4)
        if rng.random() < 0.3:
            fields["src_ip"] = rng.randint(0, 3)
            fields["src_ip_mask"] = 0x3
        e = FlowEntry(match=MatchFields(**fields), priority=rng.randint(0, 4),
                      actions=(GotoTable(),))
        ids.append(sw.install_flow_entry(e, install_time_ns=i % 2))
    ids = [i for i in ids if sw.get_entry(i) is not None]
    for ts in range(40):
        p = PacketRecord(ts, FlowKey(rng.randint(0, 7), rng.getrandbits(32),
                                     rng.randint(1, 4), rng.randint(1, 4),
                                     rng.choice([Protocol.TCP, Protocol.UDP])), 100)
        matching = [e for e in (sw.get_entry(i) for i in ids)
                    if e.install_time_ns <= ts and e.match.matches(p.key)]
        winner = max(matching, key=lambda e: (e.priority, -e.install_time_ns, -e.entry_id),
                     default=None)
        before = {i: sw.get_entry(i).packet_count for i in ids}
        if winner is None:
            # a reinstall dated t=1 replaced the catch-all, so at t=0 nothing
            # matches, which the switch reports as corrupt table state
            with pytest.raises(TableStateError):
                sw.process_packet(p)
        else:
            sw.process_packet(p)
        for i in ids:
            bump = 1 if winner is not None and i == winner.entry_id else 0
            assert sw.get_entry(i).packet_count == before[i] + bump


@settings(max_examples=50, deadline=None)
@given(idle=st.integers(0, 40), hard=st.integers(0, 40),
       hits=st.lists(st.integers(0, 50), min_size=1, max_size=8),
       horizon=st.integers(51, 120))
def _prop_eviction_timing(idle, hard, hits, horizon):
    def expiry(last):
        opts = []
        if idle:
            opts.append((last + idle, FlowRemovedReason.IDLE))
        if hard:
            opts.append((hard, FlowRemovedReason.HARD))
        return min(opts, key=lambda c: (c[0], c[1] is not FlowRemovedReason.HARD),
                   default=None)

    last = 0
    expected = None
    for ts in sorted(hits):
        due = expiry(last)
        if due is not None and ts > due[0]:
            expected = due
            break
        last = ts
    else:
        due = expiry(last)
        if due is not None and horizon > due[0]:
            expected = due

    p = PacketRecord(0, FlowKey(1, 2, 3, 4, Protocol.TCP), 64)
    sw = Switch()
    sw.install_flow_entry(FlowEntry(match=MatchFields(), priority=0,
                                    actions=(GotoTable(),)), install_time_ns=0)
    sw.install_flow_entry(
        FlowEntry(match=MatchFields.exact(flow_key_of(p)), priority=FLOW_RECORD_PRIORITY,
                  actions=(GotoTable(),), idle_timeout_ns=idle, hard_timeout_ns=hard,
                  send_flow_removed=True),
        install_time_ns=0,
    )
    seen = []
    for ts in sorted(hits):
        seen += [ev for ev in sw.process_packet(p._replace(timestamp_ns=ts))
                 if isinstance(ev, FlowRemoved)]
    seen += sw.advance_clock(horizon)
    if expected is None:
        assert seen == []
    else:
        assert [(ev.removal_time_ns, ev.reason) for ev in seen] == [expected]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), drop=st.integers(1, 12))
def _prop_hash_flow_coherence(seed, drop):
    # hash sampling is all-or-nothing per flow: no partially covered flows
    trace = _small_trace(seed, n_flows=60, max_packets=5)
    cfg = SamplingConfig(SamplingMethod.HASH_BASED, sample_weight=1,
                         drop_weight=drop, seed=seed)
    result = replay(trace, cfg)
    totals = Counter()
    for p in trace:
        totals[flow_key_of(p)] += 1
    sampled = Counter()
    for r in result.records:
        sampled[r.key] += r.packet_count
    for key, n in sampled.items():
        assert n == totals[key]


def test_criterion_7_pipeline_semantics():
    with criterion(7, "pipeline semantics properties"):
        _prop_transparency()
        _prop_counter_conservation()
        _prop_priority_soundness()
        _prop_eviction_timing()
        _prop_hash_flow_coherence()


def test_criterion_8_hash_oracle_equivalence():
    with criterion(8, "pipeline matches the direct bucket oracle"):
        spec = SyntheticSpec(flow_count=10_000, size_distribution=Geometric(0.5),
                             gap=FixedGap(1 * MS), seed=108)
        trace = generate_trace(spec)
        cfg = config_for_rate(SamplingMethod.HASH_BASED, SamplingMode.SOURCE_ONLY,
                              Fraction(1, 64), seed=88)
        group = generate_rules(cfg).groups[0]
        oracle = {
            key for key in {flow_key_of(p) for p in trace}
            if select_bucket(group, key, cfg.seed) == 0
        }
        result = replay(trace, cfg)
        assert {r.key for r in result.records} == oracle


def test_criterion_9_campaign_determinism(tmp_path):
    with criterion(9, "campaign reruns are byte-identical"):
        config = {
            "seed": 909,
            "trace": {"synthetic": {"flows": 2000, "sizes": {"kind": "geometric", "p": 0.5},
                                    "gaps": {"kind": "fixed", "gap_ms": 1}, "seed": 4}},
            "sampling": [{"method": "hash"}, {"method": "ip-suffix"}, {"method": "port"}],
            "rates": ["1/16", "1/64"],
            "trials": 5,
            "experiments": ["rate", "wmrd", "overhead", "export"],
            "overhead": {"delays_ms": [0, 5, 20]},
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(config))
        cfg = load_campaign(str(path))
        first = run_campaign(cfg, str(tmp_path / "run1"), progress=lambda *_: None)
        second = run_campaign(cfg, str(tmp_path / "run2"), progress=lambda *_: None)
        assert [Path(f).name for f in first] == [Path(f).name for f in second]
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes(), Path(a).name
