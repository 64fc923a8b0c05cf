"""Trace replay, two ways, with one result.

`Simulation` is the packet-level reference: one switch, one controller, one
virtual clock.  Scheduled entry installs are interleaved with trace packets
in timestamp order; an install due at the same instant as a packet applies
first, so the packet already matches the new entry.  Every install waits the
same delay and packets never go back in time, so installs come due in the
order they were requested and wait in a FIFO.

`replay_flows` gives the same result without the switch, and is what
`ofmon simulate`, the overhead sweep and the record export run.  A record
entry is an exact 5-tuple match above every sampling entry, so it only ever
sees its own flow's packets, and its expiry instant is exact however lazily
it is evicted.  Each flow's records and redundant PacketIns therefore follow
from its own packets, whether it is sampled, the controller config and the
trace's last timestamp.  Identical (trace, config, seed) input replays to
identical output, always.
"""

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable

from .controller import ControllerConfig, MonitoringController, ScheduledFlowMod
from .model import ExpiryReason, FlowKey, FlowRecord, PacketRecord
from .sampling import RuleSet, SamplingConfig, generate_rules, key_sampler, select_bucket
from .switch import (
    DEFAULT_PRIORITY,
    FLOW_RECORD_PRIORITY,
    FlowEntry,
    GotoTable,
    MatchFields,
    PacketIn,
    Switch,
)


@dataclass
class SimulationResult:
    """Replay outcome: the flow records plus bookkeeping for summaries."""

    records: list[FlowRecord]
    flows_seen: int
    flows_sampled: int
    entries_installed: int
    peak_record_entries: int
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
            FlowEntry(match=MatchFields(), priority=DEFAULT_PRIORITY, actions=(GotoTable(),)),
            install_time_ns=0,
        )
        for group in rule_set.groups:
            self.switch.install_group(group)
        for entry in rule_set.flow_entries:
            self.switch.install_flow_entry(entry, install_time_ns=0)

    def run(self, trace: Iterable[PacketRecord]) -> SimulationResult:
        switch = self.switch
        controller = self.controller
        pending_mods: deque[ScheduledFlowMod] = deque()
        installs = 0
        peak = 0
        seen: set[FlowKey] = set()
        last_ts = 0

        for pkt in trace:
            ts = pkt.timestamp_ns
            while pending_mods and pending_mods[0].execute_at_ns <= ts:
                mod = pending_mods.popleft()
                # evict first, so the occupancy below counts live entries only
                for event in switch.advance_clock(mod.execute_at_ns):
                    controller.on_flow_removed(event)
                switch.install_flow_entry(mod.entry, mod.execute_at_ns)
                controller.on_flow_mod_installed(mod.key)
                installs += 1
                occupancy = switch.active_entry_count(FLOW_RECORD_PRIORITY)
                if occupancy > peak:
                    peak = occupancy
            seen.add(pkt.key)
            for event in switch.process_packet(pkt):
                if type(event) is PacketIn:
                    mod = controller.on_packet_in(event)
                    if mod is not None:
                        pending_mods.append(mod)
                else:
                    controller.on_flow_removed(event)
            last_ts = ts

        for event in switch.flush_all(last_ts):
            controller.on_flow_removed(event)
        controller.finalize_pending()

        records = controller.records
        return SimulationResult(
            records=records,
            flows_seen=len(seen),
            flows_sampled=len({r.key for r in records}),
            entries_installed=installs,
            peak_record_entries=peak,
            redundant_packets_by_protocol=controller.redundant_packets_by_protocol,
            redundant_bytes_by_protocol=controller.redundant_bytes_by_protocol,
        )


def replay(
    trace: Iterable[PacketRecord],
    sampling: SamplingConfig,
    controller_config: ControllerConfig | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around Simulation."""
    return Simulation(sampling, controller_config).run(trace)


@dataclass(slots=True)
class _Flow:
    """A sampled flow's open record: what the controller saw of it since
    first_seen_ns, and the record entry it asked for then, live from
    install_ns on."""

    key: FlowKey
    first_seen_ns: int
    last_seen_ns: int
    controller_packets: int
    controller_bytes: int
    install_ns: int
    last_match_ns: int
    packets: int
    bytes: int


def _record(flow: _Flow, reason: ExpiryReason) -> FlowRecord:
    """Merge the controller's view and the entry counters into one record."""
    return FlowRecord(
        key=flow.key,
        first_seen_ns=flow.first_seen_ns,
        last_seen_ns=flow.last_match_ns if flow.packets else flow.last_seen_ns,
        packet_count=flow.packets + flow.controller_packets,
        byte_count=flow.bytes + flow.controller_bytes,
        controller_packet_count=flow.controller_packets,
        expiry_reason=reason,
    )


def replay_flows(
    trace: Iterable[PacketRecord],
    rule_set: RuleSet,
    controller_config: ControllerConfig | None = None,
) -> SimulationResult:
    """What `Simulation(rule_set.config, controller_config).run(trace)` returns,
    one flow at a time.

    Streams the trace once, in timestamp order, deciding sampling at each
    key's first packet and keeping one open record per sampled key.  The
    rules the switch applies:

    - an entry expires at last match + idle, or at install + hard when that
      is not later (a tie reports hard), and is gone for a packet strictly
      after that instant;
    - an entry still unexpired at the last packet's timestamp ends the trace
      as `eot`;
    - an install is applied when a later packet reaches its instant, so the
      one the very last packet requests at delay 0 never is: that record
      comes from the controller alone.
    """
    cfg = controller_config or ControllerConfig()
    delay, idle, hard = cfg.install_delay_ns, cfg.idle_timeout_ns, cfg.hard_timeout_ns
    is_sampled = key_sampler(rule_set)
    flows: dict[FlowKey, _Flow | bool] = {}  # every key seen; False when not sampled
    records: list[FlowRecord] = []
    lifetimes: list[tuple[int, int]] = []  # (install, expiry) of every applied install
    redundant_packets: Counter = Counter()
    redundant_bytes: Counter = Counter()

    def requested(key: FlowKey, ts: int, length: int) -> _Flow:  # on a first PacketIn
        return _Flow(key, ts, ts, 1, length, ts + delay, ts + delay, 0, 0)

    def expiry(flow: _Flow) -> tuple[int, ExpiryReason]:
        idle_at = flow.last_match_ns + idle
        if hard and flow.install_ns + hard <= idle_at:
            return flow.install_ns + hard, ExpiryReason.HARD_TIMEOUT
        return idle_at, ExpiryReason.IDLE_TIMEOUT

    ts = 0  # the switch clock starts at 0 too
    for now, key, length in trace:
        if now < ts:
            raise ValueError(f"packet timestamp {now} behind the previous one, {ts}")
        ts = now
        flow = flows.get(key)
        if not flow:
            if flow is None:  # first packet of this key: first PacketIn if sampled
                flows[key] = is_sampled(key) and requested(key, ts, length)
            continue
        if ts < flow.install_ns:  # entry still in flight: a redundant PacketIn
            flow.last_seen_ns = ts
            flow.controller_packets += 1
            flow.controller_bytes += length
            redundant_packets[key.protocol] += 1
            redundant_bytes[key.protocol] += length
        elif ts > flow.last_match_ns + idle or (hard and ts > flow.install_ns + hard):
            instant, reason = expiry(flow)  # evicted before this packet: a new PacketIn
            records.append(_record(flow, reason))
            lifetimes.append((flow.install_ns, instant))
            flows[key] = requested(key, ts, length)
        else:
            flow.packets += 1
            flow.bytes += length
            flow.last_match_ns = ts

    if flows:
        last = flows[key]  # the state the very last packet left
        for flow in flows.values():
            if not flow:
                continue
            if flow.install_ns > ts or (flow is last and not flow.packets):
                records.append(_record(flow, ExpiryReason.END_OF_TRACE))  # never installed
                continue
            instant, reason = expiry(flow)
            records.append(_record(flow, reason if instant < ts else ExpiryReason.END_OF_TRACE))
            lifetimes.append((flow.install_ns, instant))

    # peak occupancy: the most entries live (install <= t <= expiry) at an install t
    ends = sorted(end for _, end in lifetimes)
    peak = max(
        (n - bisect_left(ends, t) for n, t in enumerate(sorted(s for s, _ in lifetimes), 1)),
        default=0,
    )
    return SimulationResult(
        records=records,
        flows_seen=len(flows),
        flows_sampled=sum(1 for flow in flows.values() if flow),
        entries_installed=len(lifetimes),
        peak_record_entries=peak,
        redundant_packets_by_protocol=redundant_packets,
        redundant_bytes_by_protocol=redundant_bytes,
    )
