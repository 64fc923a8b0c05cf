"""FSD construction, WMRD math, and the three experiment drivers."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofmon.controller import ControllerConfig
from ofmon.evaluation import (
    compute_fsd,
    run_overhead_experiment,
    run_rate_experiment,
    run_wmrd_experiment,
    wmrd,
)
from ofmon.model import FlowKey, PacketRecord, Protocol, flow_key_of, flow_sizes
from ofmon.sampling import (
    SamplingConfig,
    SamplingMethod,
    SamplingMode,
    config_for_rate,
    derive_seed,
    generate_rules,
    sampled_keys,
)
from ofmon.simulate import Simulation, replay_flows
from ofmon.traceio import ExponentialGap, Geometric, SyntheticSpec, ZipfSkewed, generate_trace

from helpers import pkt, random_trace

RATE_ONE = SamplingConfig(SamplingMethod.IP_SUFFIX, src_size=0)
MS = 1_000_000

fsd_strategy = st.lists(st.integers(1, 30), min_size=1, max_size=60).map(Counter)


def merged_sizes(records):
    """Packets per flow over a replay's records, so idle-split flows count once."""
    per_flow = Counter()
    for record in records:
        per_flow[record.key] += record.packet_count
    return per_flow


class TestComputeFsd:
    def test_from_flow_sizes(self):
        assert compute_fsd([1, 1, 2, 5]) == Counter({1: 2, 2: 1, 5: 1})

    def test_from_packets(self):
        trace = [pkt(ts=0, sport=1), pkt(ts=1, sport=1), pkt(ts=2, sport=2)]
        assert compute_fsd(flow_sizes(trace).values()) == Counter({2: 1, 1: 1})

    def test_empty_input(self):
        assert compute_fsd([]) == Counter()


class TestWmrd:
    def test_identical_distributions(self):
        f = Counter({1: 10, 3: 5})
        assert wmrd(f, f) == 0.0

    def test_scale_invariance(self):
        f = Counter({1: 10, 3: 5})
        g = Counter({1: 30, 3: 15})
        assert wmrd(f, g) == pytest.approx(0.0)

    def test_disjoint_supports(self):
        assert wmrd(Counter({1: 4}), Counter({9: 4})) == pytest.approx(2.0)

    def test_empty_sampled_side_is_maximal(self):
        assert wmrd(Counter({1: 4}), Counter()) == 2.0

    def test_empty_original_is_an_error(self):
        with pytest.raises(ValueError):
            wmrd(Counter(), Counter({1: 1}))

    def test_known_value(self):
        # f = {1: .5, 2: .5}, g = {1: 1.0}: |.5-1| + |.5-0| = 1.0 over denom 1.0
        assert wmrd(Counter({1: 1, 2: 1}), Counter({1: 2})) == pytest.approx(1.0)

    @given(f=fsd_strategy, g=fsd_strategy)
    def test_bounded_and_symmetric(self, f, g):
        v = wmrd(f, g)
        assert 0.0 <= v <= 2.0
        assert v == pytest.approx(wmrd(g, f))

    def test_random_thinning_error_shrinks_with_population(self):
        # unbiased coin-flip flow sampling: WMRD noise falls as flows grow
        def mean_thinning_wmrd(n_flows, seeds=60):
            sizes = [1] * (3 * n_flows // 4) + [2] * (n_flows // 4)
            full = Counter(sizes)
            acc = 0.0
            for s in range(seeds):
                rng = random.Random(s)
                kept = Counter(v for v in sizes if rng.random() < 0.5)
                acc += wmrd(full, kept)
            return acc / seeds

        small, large = mean_thinning_wmrd(400), mean_thinning_wmrd(4000)
        assert large < small
        assert large < 0.02


class TestRateExperiment:
    def test_summary_shape_and_median_accuracy(self):
        trace = random_trace(2_000, seed=6)
        s = run_rate_experiment(flow_sizes(trace), "ip-suffix", "source", Fraction(1, 64),
                                trials=20, seed=3)
        assert s.trials == 20 and len(s.counts) == 20
        assert s.realized_rate == Fraction(1, 64)
        assert s.theoretical_count == pytest.approx(2000 / 64)
        assert s.p5 <= s.median <= s.p95
        assert abs(s.median - s.theoretical_count) < 10

    def test_hash_runs_one_deterministic_trial(self):
        trace = random_trace(2_000, seed=6)
        sizes = flow_sizes(trace)
        a = run_rate_experiment(sizes, "hash", "source", Fraction(1, 64), trials=50, seed=3)
        b = run_rate_experiment(sizes, "hash", "source", Fraction(1, 64), trials=50, seed=3)
        assert a.trials == 1
        assert a.counts == b.counts
        sigma = (2000 * (1 / 64) * (63 / 64)) ** 0.5
        assert abs(a.counts[0] - 2000 / 64) < 3 * sigma

    def test_unrepresentable_rate_is_reported(self):
        trace = random_trace(100, seed=1)
        s = run_rate_experiment(flow_sizes(trace), "ip-suffix", "source", Fraction(1, 200),
                                trials=2, seed=0)
        assert s.target_rate == Fraction(1, 200)
        assert s.realized_rate == Fraction(1, 256)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_rate_experiment(flow_sizes([pkt()]), "hash", "source", Fraction(1, 2),
                                trials=0, seed=0)


class TestWmrdExperiment:
    def test_rate_one_reproduces_the_fsd_exactly(self):
        trace = random_trace(300, seed=9, packets_per_flow=3)
        s = run_wmrd_experiment(flow_sizes(trace), "ip-suffix", "source", Fraction(1, 1),
                                trials=3, seed=2)
        assert s.values == (0.0, 0.0, 0.0)
        assert s.minimum == s.maximum == 0.0

    def test_quartiles_are_ordered(self):
        trace = random_trace(1_500, seed=10)
        s = run_wmrd_experiment(flow_sizes(trace), "port", "source", Fraction(1, 16),
                                trials=12, seed=4)
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        assert all(0.0 <= v <= 2.0 for v in s.values)


class TestOverheadExperiment:
    def two_packet_trace(self, n=50, gap=10 * MS):
        out = []
        for i in range(n):
            proto = Protocol.TCP if i % 5 else Protocol.UDP
            out.append(pkt(ts=i * MS, sport=100 + i, proto=proto, length=100))
            out.append(pkt(ts=i * MS + gap, sport=100 + i, proto=proto, length=100))
        return sorted(out, key=lambda p: p.timestamp_ns)

    def test_zero_delay_means_zero_overhead(self):
        points = run_overhead_experiment(self.two_packet_trace(), delays_ns=[0])
        assert points
        for point in points:
            assert point.redundant_packets == 0
            assert point.redundant_bytes == 0
            assert point.mean_redundant_packets_per_flow == 0.0
            assert point.redundant_byte_percent == 0.0

    def test_window_arithmetic_is_exact(self):
        # 2nd packet arrives 10 ms in: outside a 5 ms window, inside a 20 ms one
        trace = self.two_packet_trace(n=50, gap=10 * MS)
        points = run_overhead_experiment(trace, delays_ns=[5 * MS, 20 * MS])
        by = {(p.install_delay_ns, p.protocol): p for p in points}
        for proto in (Protocol.TCP, Protocol.UDP):
            assert by[(5 * MS, proto)].redundant_packets == 0
            late = by[(20 * MS, proto)]
            assert late.mean_redundant_packets_per_flow == 1.0
            assert late.redundant_byte_percent == pytest.approx(50.0)

    def test_monotone_in_delay(self):
        trace = random_trace(200, seed=12, packets_per_flow=4, gap_ns=3 * MS)
        delays = [0, 1 * MS, 2 * MS, 5 * MS, 9 * MS]
        points = run_overhead_experiment(trace, delays_ns=delays)
        for proto in (Protocol.TCP, Protocol.UDP):
            means = [p.mean_redundant_packets_per_flow for p in points
                     if p.protocol is proto]
            assert means == sorted(means)

    def test_flow_counts_match_the_trace(self):
        trace = self.two_packet_trace(n=50)
        (point,) = [p for p in run_overhead_experiment(trace, delays_ns=[0])
                    if p.protocol is Protocol.UDP]
        assert point.flows == 10
        assert point.total_flow_bytes == 10 * 200


def test_flow_sizes():
    sizes = flow_sizes(random_trace(77, seed=2, packets_per_flow=3))
    assert len(sizes) == 77
    assert set(sizes.values()) == {3}


# -- flow-level trials against full replay -----------------------------------

DIFF_RATES = [Fraction(1), Fraction(1, 2), Fraction(1, 16), Fraction(3, 7), Fraction(1, 256)]
CELLS = [(method, mode) for method in SamplingMethod for mode in SamplingMode]

keys_strategy = st.builds(
    FlowKey,
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 65535),
    st.integers(0, 65535),
    st.sampled_from([Protocol.TCP, Protocol.UDP]),
)


@st.composite
def bursty_trace(draw, idle_ns, tick_ns=1):
    """Bursts of 1-20 packets on a few keys; a key may burst again later, and
    gaps fall on both sides of the idle timeout.  Times are multiples of
    tick_ns: a coarse tick lands packets on expiry and install instants."""
    keys = draw(st.lists(keys_strategy, min_size=1, max_size=6, unique=True))
    packets = []
    for _ in range(draw(st.integers(1, 8))):
        key = draw(st.sampled_from(keys))
        t = draw(st.integers(0, 20 * idle_ns // tick_ns)) * tick_ns
        length = draw(st.integers(64, 1500))
        for _ in range(draw(st.integers(1, 20))):
            packets.append(PacketRecord(t, key, length))
            t += draw(st.integers(0, 2 * idle_ns // tick_ns)) * tick_ns
    packets.sort(key=lambda p: p.timestamp_ns)
    return packets


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sampled_flows_equal_those_of_a_full_replay(data):
    idle = data.draw(st.integers(1, 10), label="idle_ms") * MS
    controller = ControllerConfig(
        install_delay_ns=data.draw(st.integers(0, 20), label="delay_ms") * MS,
        idle_timeout_ns=idle,
        hard_timeout_ns=data.draw(st.one_of(st.just(0), st.integers(idle, 4 * idle)),
                                  label="hard_ns"),
    )
    trace = data.draw(bursty_trace(idle), label="trace")
    method, mode = data.draw(st.sampled_from(CELLS), label="cell")
    rate = data.draw(st.sampled_from(DIFF_RATES), label="rate")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    sizes = Counter(flow_key_of(p) for p in trace)
    base = config_for_rate(method, mode, rate)
    for trial in range(3):
        cfg = replace(base, seed=derive_seed(seed, trial))
        sampled = sampled_keys(generate_rules(cfg), sizes)
        result = Simulation(cfg, controller).run(trace)
        assert set(sampled) == {r.key for r in result.records}
        assert len(sampled) == result.flows_sampled
        assert Counter(sizes[k] for k in sampled) == compute_fsd(
            merged_sizes(result.records).values())


REPLAY_RATES = [Fraction(1), Fraction(1, 2), Fraction(3, 7)]


def _ordered(records):
    return sorted(records, key=lambda r: (r.first_seen_ns, r.key))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_per_flow_replay_equals_the_packet_replay(data):
    idle = data.draw(st.integers(1, 10), label="idle_ms") * MS
    tick = data.draw(st.sampled_from([1, MS]), label="tick_ns")
    controller = ControllerConfig(
        install_delay_ns=data.draw(st.integers(0, 20), label="delay_ms") * MS,
        idle_timeout_ns=idle,
        hard_timeout_ns=data.draw(st.one_of(st.just(0), st.integers(idle // tick, 4 * idle // tick)),
                                  label="hard_ticks") * tick,
    )
    trace = data.draw(bursty_trace(idle, tick), label="trace")
    method, mode = data.draw(st.sampled_from(CELLS), label="cell")
    rate = data.draw(st.sampled_from(REPLAY_RATES), label="rate")
    cfg = config_for_rate(method, mode, rate, data.draw(st.integers(0, 2**64 - 1), label="seed"))
    sim = Simulation(cfg, controller)
    removed = []

    def on_flow_removed(event, close=sim.controller.on_flow_removed):
        removed.append(event)
        return close(event)

    sim.controller.on_flow_removed = on_flow_removed
    expected = sim.run(trace)
    got = replay_flows(trace, generate_rules(cfg), controller)

    assert _ordered(got.records) == _ordered(expected.records)
    assert got.redundant_packets_by_protocol == expected.redundant_packets_by_protocol
    assert got.redundant_bytes_by_protocol == expected.redundant_bytes_by_protocol
    assert got.entries_installed == expected.entries_installed == len(removed)
    assert (got.flows_seen, got.flows_sampled) == (expected.flows_seen, expected.flows_sampled)
    # brute force: the most entries live (install <= t <= expiry) at any install instant
    lifetimes = [(e.entry.install_time_ns, e.removal_time_ns) for e in removed]
    peak = max((sum(s <= t <= end for s, end in lifetimes) for t, _ in lifetimes), default=0)
    assert got.peak_record_entries == expected.peak_record_entries == peak


def _replayed_trials(trace, method, mode, rate, trials, seed, controller, metric):
    """The reference: one full replay per trial, as the trials once ran."""
    method = SamplingMethod(method)
    if method is SamplingMethod.HASH_BASED:
        trials = 1
    base = config_for_rate(method, mode, rate, seed)
    realized = generate_rules(base).theoretical_rate
    values = []
    for trial in range(trials):
        cfg = replace(base, seed=derive_seed(seed, trial))
        values.append(metric(Simulation(cfg, controller).run(trace)))
    return realized, tuple(values)


@pytest.mark.parametrize("rate", [Fraction(1, 4), Fraction(1, 16)])
def test_experiments_equal_the_replayed_trials(rate):
    # gaps longer than the idle timeout split flows; installs land mid-flow
    trace = generate_trace(SyntheticSpec(
        flow_count=400, size_distribution=Geometric(0.3), ip_mode=ZipfSkewed(1.2),
        gap=ExponentialGap(3 * MS), duration_ns=200 * MS, seed=5))
    controller = ControllerConfig(install_delay_ns=4 * MS, idle_timeout_ns=2 * MS,
                                  hard_timeout_ns=6 * MS)
    sizes = flow_sizes(trace)
    original = compute_fsd(sizes.values())
    for method, mode in CELLS:
        args = (trace, method, mode, rate, 5, 11)
        realized, counts = _replayed_trials(*args, controller, lambda r: r.flows_sampled)
        s = run_rate_experiment(sizes, *args[1:])
        assert (s.realized_rate, s.counts) == (realized, counts)
        assert s.theoretical_count == float(len(flow_sizes(trace)) * realized)
        realized, values = _replayed_trials(
            *args, controller,
            lambda r: wmrd(original, compute_fsd(merged_sizes(r.records).values())))
        w = run_wmrd_experiment(sizes, *args[1:])
        assert (w.realized_rate, w.values) == (realized, values)
