"""Trace replay: one switch, one controller, one virtual clock.

Scheduled entry installs are interleaved with trace packets in timestamp
order; an install due at the same instant as a packet applies first, so the
packet already matches the new entry.  Every install waits the same delay and
packets never go back in time, so installs come due in the order they were
requested and wait in a FIFO.  Identical (trace, config, seed) input
replays to identical output, always.
"""

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable

from .controller import ControllerConfig, MonitoringController, ScheduledFlowMod
from .model import FlowKey, FlowRecord, PacketRecord, flow_key_of
from .sampling import SamplingConfig, generate_rules, select_bucket
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
    packets_processed: int
    flows_seen: int | None  # None when flow tracking was turned off
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
        *,
        track_flows: bool = True,
    ):
        self.rule_set = generate_rules(sampling)
        seed = sampling.seed
        self.switch = Switch(bucket_selector=lambda group, key: select_bucket(group, key, seed))
        self.controller = MonitoringController(controller_config or ControllerConfig())
        self._track_flows = track_flows
        # block 3: the catch-all that keeps unmonitored traffic flowing
        self.switch.install_flow_entry(
            FlowEntry(match=MatchFields(), priority=DEFAULT_PRIORITY, actions=(GotoTable(),)),
            install_time_ns=0,
        )
        for group in self.rule_set.groups:
            self.switch.install_group(group)
        for entry in self.rule_set.flow_entries:
            self.switch.install_flow_entry(entry, install_time_ns=0)

    def run(self, trace: Iterable[PacketRecord]) -> SimulationResult:
        switch = self.switch
        controller = self.controller
        pending_mods: deque[ScheduledFlowMod] = deque()
        installs = 0
        peak = 0
        seen: set[FlowKey] | None = set() if self._track_flows else None
        last_ts = 0

        for pkt in trace:
            ts = pkt.timestamp_ns
            while pending_mods and pending_mods[0].execute_at_ns <= ts:
                mod = pending_mods.popleft()
                switch.install_flow_entry(mod.entry, mod.execute_at_ns)
                controller.on_flow_mod_installed(mod.key)
                installs += 1
                occupancy = switch.active_entry_count(FLOW_RECORD_PRIORITY)
                if occupancy > peak:
                    peak = occupancy
            if seen is not None:
                seen.add(flow_key_of(pkt))
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
            packets_processed=switch.packets_processed,
            flows_seen=len(seen) if seen is not None else None,
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
