"""Experiment harness: sampling-rate accuracy, FSD/WMRD fidelity, overhead.

Every trial draws its rules with a trial-specific seed, so results are
reproducible to the byte.  The rate and WMRD experiments take the trace's
per-flow packet counts, built once by the caller (`model.flow_sizes`, or read
off a grouping of every flow), and read each trial's sampled flows off its
rule set: sampling decides per 5-tuple, and counter conservation puts every
packet of a sampled flow in its merged records, so this equals a full
replay.  An ip-suffix or port cell groups the flow table once by the fields
its match reads, so a trial costs what it samples, not the flow count.  The
overhead experiment depends on install delay and timeouts.  It takes the
trace's sampled flows grouped by the caller (`simulate.sample_flows`, or
`simulate.restrict_flows` of a grouping of every flow) and walks them once
per delay (`simulate.replay_sampled`), which equals a packet-level replay
because a record entry only ever sees its own flow.  It reads only the
redundancy counters, so each walk runs with records off: no flow record and
no peak occupancy is built.  The flow and byte totals it reports per
protocol are the same at every delay, so they are read off the groups once.
Statistics stay in the standard library; rates stay exact fractions.
"""

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .controller import ControllerConfig
from .model import FlowKey, Protocol
from .sampling import (
    RuleSet,
    SamplingConfig,
    SamplingMethod,
    SamplingMode,
    config_for_rate,
    derive_seed,
    generate_rules,
    key_sampler,
)
from .simulate import SampledFlows, replay_sampled


def compute_fsd(sizes: Iterable[int]) -> Counter:
    """Flow size distribution: how many flows have each packet count."""
    return Counter(sizes)


def wmrd(original: Counter, sampled: Counter) -> float:
    """Weighted mean relative difference between two normalized FSDs.

    sum|f_i - g_i| / sum (f_i + g_i)/2 over the union of sizes, with f and g
    the per-size fractions of flows.  Ranges over [0, 2]: 0 for identical
    shapes, 2 for disjoint supports.  An empty sampled FSD reports 2.
    """
    if not original:
        raise ValueError("original FSD is empty")
    if not sampled:
        return 2.0
    total_f = sum(original.values())
    total_g = sum(sampled.values())
    numerator = 0.0
    denominator = 0.0
    for size in sorted(set(original) | set(sampled)):
        f = original.get(size, 0) / total_f
        g = sampled.get(size, 0) / total_g
        numerator += abs(f - g)
        denominator += (f + g) / 2.0
    return numerator / denominator


def _percentiles(values: Sequence[float | int]) -> tuple[float, float, float]:
    """(p5, median, p95) with interpolation; degenerate for single values."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    grid = statistics.quantiles(values, n=20, method="inclusive")
    return grid[0], float(statistics.median(values)), grid[-1]


def _quartiles(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    if len(values) == 1:
        v = float(values[0])
        return v, v, v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return min(values), q1, med, q3, max(values)


@dataclass(frozen=True)
class RateTrialSummary:
    """Sampled-flow counts across trials for one (method, mode, rate) cell."""

    method: SamplingMethod
    mode: SamplingMode
    target_rate: Fraction
    realized_rate: Fraction  # nearest rate the method can actually express
    trials: int
    counts: tuple[int, ...]
    theoretical_count: float
    median: float
    p5: float
    p95: float


def _cell_sampler(
    sizes: dict[FlowKey, int], base: SamplingConfig
) -> Callable[[RuleSet], list[int]]:
    """The packet counts of the flows a rule set of this cell samples, in any
    order, as a list the caller must not change.

    Every trial of a cell draws the same kind of match, so the flow table is
    grouped once by the fields it reads: the masked address pair for
    ip-suffix, the source port for port.  A trial then looks up its drawn
    suffixes, or the source ports it drew, and in pair mode keeps the flows
    whose destination port it drew too.  Both protocols have a port entry
    with the same sets, so protocol is not a key.  Hash filters with `key_sampler`.
    """
    if base.method is SamplingMethod.IP_SUFFIX:
        src_mask = (1 << base.src_size) - 1
        dst_mask = (1 << base.dst_size) - 1
        by_suffix: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
        for key, size in sizes.items():
            by_suffix[key.src_ip & src_mask, key.dst_ip & dst_mask].append(size)

        def sampled(rules: RuleSet) -> list[int]:
            match = rules.flow_entries[0].match  # an absent address matches any
            return by_suffix.get(
                ((match.src_ip or 0) & src_mask, (match.dst_ip or 0) & dst_mask), [])

        return sampled
    if base.method is SamplingMethod.PORT_BASED:
        by_src_port: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for key, size in sizes.items():
            by_src_port[key.src_port].append((key.dst_port, size))

        def sampled(rules: RuleSet) -> list[int]:
            match = rules.flow_entries[0].match
            hits = by_src_port.keys() & match.src_port_in
            dst = match.dst_port_in
            if dst is None:
                return [size for port in hits for _, size in by_src_port[port]]
            return [size for port in hits for d, size in by_src_port[port] if d in dst]

        return sampled
    return lambda rules: [sizes[k] for k in filter(key_sampler(rules), sizes)]


def _run_trials(
    sizes: dict[FlowKey, int],
    method: SamplingMethod,
    mode: SamplingMode,
    target_rate: Fraction,
    trials: int,
    seed: int,
    metric: Callable[[list[int]], float],
) -> tuple[SamplingMethod, SamplingMode, Fraction, list[float]]:
    """Draw one rule set per trial and apply `metric` to the packet counts of
    the flows it samples.

    No packet is replayed: `sizes` maps each flow of the trace to its packet
    count, and a trial's sampled sizes are those of the keys its rules mirror
    to the controller, which equal the merged records of a replay at any
    install delay and timeouts.  The hash method is deterministic given its
    seed, so it runs one trial.  Returns the parsed method and mode, the
    realized rate (the nearest representable one when the target is not) and
    the per-trial values.
    """
    method, mode = SamplingMethod(method), SamplingMode(mode)
    if trials < 1:
        raise ValueError("need at least one trial")
    if method is SamplingMethod.HASH_BASED:
        trials = 1
    base = config_for_rate(method, mode, target_rate)
    sampled = _cell_sampler(sizes, base)
    values = []
    for trial in range(trials):
        rules = generate_rules(replace(base, seed=derive_seed(seed, trial)))
        values.append(metric(sampled(rules)))
    # the realized rate is the same for every seed
    return method, mode, rules.theoretical_rate, values


def run_rate_experiment(
    sizes: dict[FlowKey, int],
    method: SamplingMethod,
    mode: SamplingMode,
    target_rate: Fraction,
    trials: int,
    seed: int,
) -> RateTrialSummary:
    """Count the sampled flows of `trials` rule draws; `sizes` is `flow_sizes(trace)`."""
    method, mode, realized, counts = _run_trials(
        sizes, method, mode, target_rate, trials, seed, len
    )
    p5, median, p95 = _percentiles(counts)
    return RateTrialSummary(
        method=method,
        mode=mode,
        target_rate=target_rate,
        realized_rate=realized,
        trials=len(counts),
        counts=tuple(counts),
        theoretical_count=float(len(sizes) * realized),
        median=median,
        p5=p5,
        p95=p95,
    )


@dataclass(frozen=True)
class WmrdSummary:
    """WMRD of sampled vs original FSD across trials, boxplot-style."""

    method: SamplingMethod
    mode: SamplingMode
    target_rate: Fraction
    realized_rate: Fraction
    trials: int
    values: tuple[float, ...]
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def run_wmrd_experiment(
    sizes: dict[FlowKey, int],
    method: SamplingMethod,
    mode: SamplingMode,
    target_rate: Fraction,
    trials: int,
    seed: int,
) -> WmrdSummary:
    """Per-trial WMRD of the sampled FSD against the trace's; `sizes` is `flow_sizes(trace)`."""
    original = compute_fsd(sizes.values())
    method, mode, realized, values = _run_trials(
        sizes, method, mode, target_rate, trials, seed,
        lambda sampled: wmrd(original, compute_fsd(sampled)),
    )
    vmin, q1, med, q3, vmax = _quartiles(values)
    return WmrdSummary(
        method=method,
        mode=mode,
        target_rate=target_rate,
        realized_rate=realized,
        trials=len(values),
        values=tuple(values),
        minimum=vmin,
        q1=q1,
        median=med,
        q3=q3,
        maximum=vmax,
    )


@dataclass(frozen=True)
class OverheadPoint:
    """Redundant controller load for one install delay and protocol."""

    install_delay_ns: int
    protocol: Protocol
    flows: int
    redundant_packets: int
    mean_redundant_packets_per_flow: float
    redundant_bytes: int
    total_flow_bytes: int
    redundant_byte_percent: float


def run_overhead_experiment(
    sampled: SampledFlows,
    delays_ns: Sequence[int],
    controller_config: ControllerConfig | None = None,
) -> list[OverheadPoint]:
    """Redundant packets/bytes as a function of the entry install delay.

    `sampled` groups the sampled flows; every flow of the trace (rate 1)
    shows how the install window hurts worst-case.  Each delay replaces the
    install delay of controller_config; its timeouts apply as given.
    Redundant bytes are reported relative to the total trace bytes of the
    sampled flows, per protocol.
    """
    cc = controller_config or ControllerConfig()
    # counter conservation: a sampled flow's records hold its every packet,
    # whatever the delay
    flows_by_proto: Counter = Counter()
    bytes_by_proto: Counter = Counter()
    for key, packets in sampled.flows.items():
        flows_by_proto[key.protocol] += 1
        bytes_by_proto[key.protocol] += sum(packets[1::2])
    points = []
    for delay in delays_ns:
        result = replay_sampled(sampled, replace(cc, install_delay_ns=delay), records=False)
        for protocol in (Protocol.TCP, Protocol.UDP):
            flows = flows_by_proto[protocol]
            red_packets = result.redundant_packets_by_protocol[protocol]
            red_bytes = result.redundant_bytes_by_protocol[protocol]
            total_bytes = bytes_by_proto[protocol]
            points.append(
                OverheadPoint(
                    install_delay_ns=delay,
                    protocol=protocol,
                    flows=flows,
                    redundant_packets=red_packets,
                    mean_redundant_packets_per_flow=(red_packets / flows) if flows else 0.0,
                    redundant_bytes=red_bytes,
                    total_flow_bytes=total_bytes,
                    redundant_byte_percent=(100.0 * red_bytes / total_bytes) if total_bytes else 0.0,
                )
            )
    return points
