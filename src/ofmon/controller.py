"""Reactive monitoring controller.

First packet of a sampled flow arrives as a PacketIn; the controller asks for
an exact-match record entry that becomes active only after the configured
install delay.  Every further PacketIn inside that window is redundant load
and gets counted as such.  The controller keeps one view per flow, the
packets it saw directly, from the first PacketIn until the flow's record:
pending while the entry is in flight, active once it is installed.  When the
switch evicts the entry, or the trace ends before it was installed, that view
and the entry counters merge into one flow record.
"""

import csv
import json
from collections import Counter
from dataclasses import dataclass

from .model import (
    ExpiryReason,
    FlowKey,
    FlowRecord,
    Protocol,
    format_ip,
)
from .switch import (
    FLOW_RECORD_PRIORITY,
    FlowEntry,
    FlowRemoved,
    FlowRemovedReason,
    GotoTable,
    MatchFields,
    MONITORING_TABLE,
    PacketIn,
)

DEFAULT_IDLE_TIMEOUT_NS = 15_000_000_000
EXPORT_FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "first_seen_ns",
    "last_seen_ns",
    "packets",
    "bytes",
    "controller_packets",
    "expiry",
)

_REASON_MAP = {
    FlowRemovedReason.IDLE: ExpiryReason.IDLE_TIMEOUT,
    FlowRemovedReason.HARD: ExpiryReason.HARD_TIMEOUT,
    FlowRemovedReason.DELETE: ExpiryReason.END_OF_TRACE,
}


class ControllerStateError(Exception):
    """The switch and controller views of the flow table diverged."""


@dataclass(frozen=True)
class ControllerConfig:
    """Record-entry parameters.  Timeout 0 disables that timeout."""

    install_delay_ns: int = 0
    idle_timeout_ns: int = DEFAULT_IDLE_TIMEOUT_NS
    hard_timeout_ns: int = 0

    def __post_init__(self) -> None:
        if self.install_delay_ns < 0:
            raise ValueError("install delay cannot be negative")
        if self.idle_timeout_ns <= 0:
            raise ValueError("idle timeout must be positive")
        if self.hard_timeout_ns < 0:
            raise ValueError("hard timeout cannot be negative")
        if self.hard_timeout_ns and self.hard_timeout_ns < self.idle_timeout_ns:
            raise ValueError("hard timeout cannot undercut the idle timeout")


@dataclass(slots=True)
class _FlowView:
    """The packets of one flow that reached the controller, and when."""

    first_seen_ns: int
    last_seen_ns: int
    packets: int
    bytes: int


@dataclass(frozen=True, slots=True)
class ScheduledFlowMod:
    """Entry install request taking effect at execute_at_ns."""

    execute_at_ns: int
    key: FlowKey
    entry: FlowEntry


class MonitoringController:
    """Builds per-flow records out of PacketIn and FlowRemoved streams."""

    def __init__(self, config: ControllerConfig):
        self.config = config
        self.records: list[FlowRecord] = []
        self._pending: dict[FlowKey, _FlowView] = {}  # record entry still in flight
        self._active: dict[FlowKey, _FlowView] = {}  # record entry installed
        # aggregate redundant load per transport protocol, for overhead curves
        self.redundant_packets_by_protocol: Counter[Protocol] = Counter()
        self.redundant_bytes_by_protocol: Counter[Protocol] = Counter()

    def on_packet_in(self, event: PacketIn) -> ScheduledFlowMod | None:
        """Handle a controller copy of a packet.

        First sighting of a flow returns the install request for its record
        entry (to be applied install_delay later); repeats within the install
        window only bump the redundancy counters.  A PacketIn for a flow
        whose entry is already active means events were fed out of order.
        """
        if event.table_id != MONITORING_TABLE:
            return None
        pkt = event.packet
        key = pkt.key
        if key in self._active:
            raise ControllerStateError(
                f"packet-in for flow {key} which already has an active record entry"
            )
        view = self._pending.get(key)
        if view is not None:
            view.packets += 1
            view.bytes += pkt.length_bytes
            view.last_seen_ns = pkt.timestamp_ns
            self.redundant_packets_by_protocol[key.protocol] += 1
            self.redundant_bytes_by_protocol[key.protocol] += pkt.length_bytes
            return None
        self._pending[key] = _FlowView(pkt.timestamp_ns, pkt.timestamp_ns, 1, pkt.length_bytes)
        entry = FlowEntry(
            match=MatchFields.exact(key),
            priority=FLOW_RECORD_PRIORITY,
            actions=(GotoTable(),),
            idle_timeout_ns=self.config.idle_timeout_ns,
            hard_timeout_ns=self.config.hard_timeout_ns,
            send_flow_removed=True,
        )
        return ScheduledFlowMod(
            execute_at_ns=pkt.timestamp_ns + self.config.install_delay_ns,
            key=key,
            entry=entry,
        )

    def on_flow_mod_installed(self, key: FlowKey) -> None:
        """Acknowledge that the scheduled entry for `key` is now in the table."""
        view = self._pending.pop(key, None)
        if view is None:
            raise ControllerStateError(f"install acknowledged for unknown flow {key}")
        self._active[key] = view

    def on_flow_removed(self, event: FlowRemoved) -> FlowRecord:
        """Close the record for an evicted entry, merging both counter views."""
        key = event.entry.match.exact_key()
        if key is None:
            raise ControllerStateError(
                f"record entry match is not an exact 5-tuple: {event.entry.match}"
            )
        view = self._active.pop(key, None)
        if view is None:
            raise ControllerStateError(f"flow-removed for flow {key} this controller does not own")
        entry = event.entry
        last_seen = entry.last_match_time_ns if entry.packet_count > 0 else view.last_seen_ns
        return self._close(
            key, view, entry.packet_count, entry.byte_count, last_seen, _REASON_MAP[event.reason]
        )

    def finalize_pending(self) -> list[FlowRecord]:
        """Close flows whose entry never made it in before the trace ended.

        Every packet of such a flow went to the controller, so the record is
        complete from the controller's view alone.
        """
        out = [
            self._close(key, view, 0, 0, view.last_seen_ns, ExpiryReason.END_OF_TRACE)
            for key, view in sorted(self._pending.items())
        ]
        self._pending.clear()
        return out

    def _close(
        self,
        key: FlowKey,
        view: _FlowView,
        entry_packets: int,
        entry_bytes: int,
        last_seen_ns: int,
        reason: ExpiryReason,
    ) -> FlowRecord:
        """Record a flow: the controller's view plus its entry's counters."""
        record = FlowRecord(
            key=key,
            first_seen_ns=view.first_seen_ns,
            last_seen_ns=last_seen_ns,
            packet_count=entry_packets + view.packets,
            byte_count=entry_bytes + view.bytes,
            controller_packet_count=view.packets,
            expiry_reason=reason,
        )
        self.records.append(record)
        return record


def record_to_dict(record: FlowRecord) -> dict:
    return {
        "src_ip": format_ip(record.key.src_ip),
        "dst_ip": format_ip(record.key.dst_ip),
        "src_port": record.key.src_port,
        "dst_port": record.key.dst_port,
        "protocol": record.key.protocol.name,
        "first_seen_ns": record.first_seen_ns,
        "last_seen_ns": record.last_seen_ns,
        "packets": record.packet_count,
        "bytes": record.byte_count,
        "controller_packets": record.controller_packet_count,
        "expiry": record.expiry_reason.value,
    }


def export_records(records: list[FlowRecord], sink, fmt: str = "jsonl") -> int:
    """Write records ordered by (first_seen, key); returns how many."""
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown export format {fmt!r}")
    ordered = sorted(records, key=lambda r: (r.first_seen_ns, r.key))
    if fmt == "jsonl":
        for record in ordered:
            sink.write(json.dumps(record_to_dict(record), separators=(",", ":")))
            sink.write("\n")
    else:
        writer = csv.DictWriter(sink, fieldnames=EXPORT_FIELDS, lineterminator="\n")
        writer.writeheader()
        for record in ordered:
            writer.writerow(record_to_dict(record))
    return len(ordered)
