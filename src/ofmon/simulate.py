"""Trace replay, two ways, with one result.

`Simulation` is the packet-level reference: one switch, one controller, one
virtual clock.  The switch hands each sampled flow's first packet to the
controller, and the record entry it answers with goes into the table at
once, dated its install instant; the switch ignores an entry until that
instant, so the packets in between reach the controller as redundant
PacketIns.  An entry still in flight when the trace ends is drained with the
rest, unmatched: an entry counts as installed iff it is dated by the last
packet's instant.

`replay_flows` gives the same result without the switch; `ofmon simulate`
runs it.  A record entry is an exact 5-tuple match above every sampling
entry, so it only ever sees its own flow's packets, and its expiry instant
is exact however lazily it is evicted.  Each flow's records and redundant
PacketIns therefore follow from its own packets, whether it is sampled, the
controller config and the trace's last timestamp.  So the replay runs in two
passes: `sample_flows` streams the trace once and groups the packets of each
sampled flow, and `replay_sampled` walks those groups one flow at a time.  A
campaign groups every flow once, and its overhead sweep and export narrow
that grouping (`restrict_flows`) before they walk it.  The walk closes
records with the packet-level path's own two rules: `switch.expiry_of` says
when an entry goes and why, and `controller.merge_record` what its record
holds.  A caller that reads only the counters, as the overhead sweep does,
walks with `records=False`: the same walk, minus the records and the peak.
Identical (trace, config, seed) input replays to identical output, always.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .controller import ControllerConfig, FlowView, MonitoringController, merge_record
from .model import FlowKey, FlowRecord, PacketRecord
from .sampling import RuleSet, SamplingConfig, generate_rules, key_sampler, select_bucket
from .switch import (
    DEFAULT_PRIORITY,
    FlowEntry,
    FlowRemoved,
    FlowRemovedReason,
    GotoTable,
    MatchFields,
    PacketIn,
    Switch,
    expiry_of,
)


@dataclass
class SimulationResult:
    """Replay outcome: the flow records plus bookkeeping for summaries."""

    records: list[FlowRecord]
    flows_seen: int
    flows_sampled: int
    entries_installed: int
    peak_record_entries: int | None  # None when the replay kept no records
    redundant_packets_by_protocol: Counter
    redundant_bytes_by_protocol: Counter


class Simulation:
    """Wires generated sampling rules and a controller onto a fresh switch."""

    def __init__(
        self,
        sampling: SamplingConfig,
        controller_config: ControllerConfig | None = None,
    ):
        rule_set = generate_rules(sampling)
        seed = sampling.seed
        self.switch = Switch(bucket_selector=lambda group, key: select_bucket(group, key, seed))
        self.controller = MonitoringController(controller_config or ControllerConfig())
        # block 3: the catch-all that keeps unmonitored traffic flowing
        self.switch.install_flow_entry(
            FlowEntry(match=MatchFields(), priority=DEFAULT_PRIORITY, actions=(GotoTable(),))
        )
        for group in rule_set.groups:
            self.switch.install_group(group)
        for entry in rule_set.flow_entries:
            self.switch.install_flow_entry(entry)

    def run(self, trace: Iterable[PacketRecord]) -> SimulationResult:
        switch = self.switch
        controller = self.controller
        seen: set[FlowKey] = set()
        removed: list[FlowRemoved] = []
        last_ts = 0
        for pkt in trace:
            seen.add(pkt.key)
            for event in switch.process_packet(pkt):
                if type(event) is PacketIn:
                    entry = controller.on_packet_in(event)
                    if entry is not None:
                        switch.install_flow_entry(entry)
                else:
                    removed.append(event)
                    controller.on_flow_removed(event)
            last_ts = pkt.timestamp_ns

        drained = switch.flush_all(last_ts)
        for event in drained:
            controller.on_flow_removed(event)
        installed = [e for e in removed + drained if e.entry.install_time_ns <= last_ts]
        records = controller.records
        return SimulationResult(
            records=records,
            flows_seen=len(seen),
            flows_sampled=len({r.key for r in records}),
            entries_installed=len(installed),
            peak_record_entries=_peak_live(
                [e.entry.install_time_ns for e in installed], [e.removal_time_ns for e in installed]
            ),
            redundant_packets_by_protocol=controller.redundant_packets_by_protocol,
            redundant_bytes_by_protocol=controller.redundant_bytes_by_protocol,
        )


def _peak_live(starts: list[int], ends: list[int]) -> int:
    """The most entries live (install <= t <= end) at any install instant t,
    given each entry's install and end instants; sorts both lists."""
    starts.sort()
    ends.sort()
    return max((n - bisect_left(ends, t) for n, t in enumerate(starts, 1)), default=0)


class SampledFlows(NamedTuple):
    """A trace grouped by sampled flow: what `replay_sampled` walks.

    `flows` maps each sampled key, in first-seen order, to its packets as
    one flat list: [timestamp_ns, length_bytes, timestamp_ns, ...].
    """

    flows: dict[FlowKey, list[int]]
    flows_seen: int
    last_ns: int  # the last packet's timestamp; 0 for an empty trace


def sample_flows(trace: Iterable[PacketRecord], rule_set: RuleSet) -> SampledFlows:
    """Stream the trace once, in timestamp order, deciding sampling at each
    key's first packet and keeping the packets of the sampled keys."""
    is_sampled = key_sampler(rule_set)
    groups: dict[FlowKey, list[int] | bool] = {}  # every key seen; False when not sampled
    ts = 0  # the switch clock starts at 0 too
    for now, key, length in trace:
        if now < ts:
            raise ValueError(f"packet timestamp {now} behind the previous one, {ts}")
        ts = now
        packets = groups.get(key)
        if packets:
            packets += now, length
        elif packets is None:
            groups[key] = is_sampled(key) and [now, length]
    flows = {k: packets for k, packets in groups.items() if packets}
    return SampledFlows(flows, len(groups), ts)


def restrict_flows(sampled: SampledFlows, rule_set: RuleSet) -> SampledFlows:
    """The flows of `sampled` that `rule_set` samples, in order: when `sampled`
    groups every flow of a trace, this equals `sample_flows(trace, rule_set)`."""
    is_sampled = key_sampler(rule_set)
    return sampled._replace(flows={k: p for k, p in sampled.flows.items() if is_sampled(k)})


def replay_sampled(
    sampled: SampledFlows,
    controller_config: ControllerConfig | None = None,
    *,
    records: bool = True,
) -> SimulationResult:
    """What `Simulation(rule_set.config, controller_config).run(trace)` returns,
    for `sampled = sample_flows(trace, rule_set)`, one flow at a time.

    A sampled flow's first packet is a PacketIn that requests its record
    entry.  The rules the switch applies:

    - a packet before the entry's install instant is a redundant PacketIn;
    - an entry is gone for a packet strictly after its `expiry_of` instant,
      and that packet requests a new one;
    - an entry still unexpired at the last packet's timestamp ends the trace
      as `eot`.

    Records come flow by flow, each flow's in time order.  With
    `records=False` the walk keeps only the counters: the result has no
    records and `peak_record_entries` is None.
    """
    cfg = controller_config or ControllerConfig()
    delay, idle, hard = cfg.install_delay_ns, cfg.idle_timeout_ns, cfg.hard_timeout_ns
    end = sampled.last_ns
    closed: list[FlowRecord] = []
    record = closed.append
    starts: list[int] = []  # install and expiry instants of every applied install
    ends: list[int] = []
    installs = 0
    redundant_packets: Counter = Counter()
    redundant_bytes: Counter = Counter()

    for key, packets in sampled.flows.items():
        redundant = redundant_length = 0
        install = None  # no record open yet
        walk = iter(packets)
        for ts, length in zip(walk, walk):
            if install is not None:
                if ts < install:  # entry still in flight: a redundant PacketIn
                    seen_last = ts
                    seen += 1
                    seen_bytes += length
                    redundant += 1
                    redundant_length += length
                    continue
                instant, reason = expiry_of(install, last_match, idle, hard)
                if ts <= instant:  # the entry matches
                    matched += 1
                    matched_bytes += length
                    last_match = ts
                    continue
                # evicted before this packet
                installs += 1
                if records:
                    record(merge_record(key, FlowView(first, seen_last, seen, seen_bytes),
                                        matched, matched_bytes, last_match, reason))
                    starts.append(install)
                    ends.append(instant)
            # a PacketIn that requests an entry, due at `install`: the open
            # record holds what the controller sees of the flow until then
            first = seen_last = ts
            seen, seen_bytes = 1, length
            install = last_match = ts + delay
            matched = matched_bytes = 0
        installed = install <= end
        installs += installed
        if records:
            reason = FlowRemovedReason.DELETE  # drained, or never installed
            if installed:
                instant, expired = expiry_of(install, last_match, idle, hard)
                if instant < end:
                    reason = expired
                starts.append(install)
                ends.append(instant)
            record(merge_record(key, FlowView(first, seen_last, seen, seen_bytes),
                                matched, matched_bytes, last_match, reason))
        if redundant:
            redundant_packets[key.protocol] += redundant
            redundant_bytes[key.protocol] += redundant_length

    return SimulationResult(
        records=closed,
        flows_seen=sampled.flows_seen,
        flows_sampled=len(sampled.flows),
        entries_installed=installs,
        peak_record_entries=_peak_live(starts, ends) if records else None,
        redundant_packets_by_protocol=redundant_packets,
        redundant_bytes_by_protocol=redundant_bytes,
    )


def replay_flows(
    trace: Iterable[PacketRecord],
    rule_set: RuleSet,
    controller_config: ControllerConfig | None = None,
) -> SimulationResult:
    """What `Simulation(rule_set.config, controller_config).run(trace)` returns:
    `replay_sampled(sample_flows(trace, rule_set), controller_config)`."""
    return replay_sampled(sample_flows(trace, rule_set), controller_config)
