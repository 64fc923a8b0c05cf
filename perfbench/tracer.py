"""Times calls into ofmon's modules from outside the package.

``Tracer.install`` replaces each traced function with a wrapper, under the
name its caller looks it up by.  Calls into coarse layers (a replay, an
experiment, a file write) become spans with a name, start, end and parent.
Per-packet calls (table-0 lookup, bucket hashing, PacketIn handling) are
too many to keep one by one, so they fold into per-name totals instead.
Both kinds charge their duration to the enclosing call, so a name's self
time is its own time minus the time of the traced calls made inside it, and
the self times of all names add up to the outermost span.
"""

import json
import statistics
import time
from collections import Counter

_REMOVED_REASON = {"idle": "idle", "hard": "hard", "delete": "eot"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent id, self seconds)
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.peak_record_entries = 0
        self.first_job: tuple | None = None
        # one frame per open call: [seconds spent in traced callees, id of the
        # nearest enclosing span]; the bottom frame stands for the process
        self._stack: list[list] = [[0.0, None]]

    def wrap(self, name, fn, keep=True, observe=None):
        """Wrap fn; keep=False folds calls into totals without a span each."""
        stack, spans = self._stack, self.spans
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                parent[0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                if keep:
                    spans[span_id] = (name, start, end, parent[1], own)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_iter(self, name, fn):
        """Wrap a generator function: time each step, count the items."""
        step = self.wrap(name, next, keep=False)
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)

            def items():
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    counts[name + ".items"] += 1
                    yield item

            return items()

        return traced

    def install(self):
        """Patch every traced name in the imported ofmon modules."""
        from ofmon import campaign, cli, controller, evaluation, simulate, switch, traceio

        counts = self.counts

        def patch(owner, attr, name, **kw):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        def on_replay(args, result):
            self.peak_record_entries = max(self.peak_record_entries, result.peak_record_entries)
            counts["controller.installs"] += result.entries_installed
            counts["controller.redundant_packets"] += sum(result.redundant_packets_by_protocol.values())

        def on_removed(args, result):
            counts["switch.flow_removed." + _REMOVED_REASON[args[1].reason.value]] += 1

        def on_export(args, result):
            counts["controller.export_records.records"] += result

        def on_job(args, result):
            counts["campaign.jobs"] += 1
            if self.first_job is None:
                self.first_job = args  # the job tuple the campaign ships to a worker

        for owner in (cli, campaign, traceio):
            owner.read_csv_trace = self.wrap_iter("traceio.read_csv_trace", owner.read_csv_trace)
            patch(owner, "generate_trace", "traceio.generate_trace")
        for owner in (cli, traceio):
            patch(owner, "write_csv_trace", "traceio.write_csv_trace")
        # Simulation.__init__ binds select_bucket through this module's global
        patch(simulate, "select_bucket", "sampling.select_bucket", keep=False)
        for owner in (simulate, evaluation):
            patch(owner, "generate_rules", "sampling.generate_rules")
        patch(switch.Switch, "process_packet", "switch.process_packet", keep=False)
        patch(switch.Switch, "install_flow_entry", "switch.install_flow_entry", keep=False)
        mc = controller.MonitoringController
        patch(mc, "on_packet_in", "controller.packet_in", keep=False)
        patch(mc, "on_flow_removed", "controller.flow_removed", keep=False, observe=on_removed)
        for owner in (cli, campaign):
            patch(owner, "export_records", "controller.export_records", observe=on_export)
        patch(simulate.Simulation, "run", "simulate.run", observe=on_replay)
        # the campaign imports the experiments by name
        for exp in ("run_rate_experiment", "run_wmrd_experiment"):
            patch(campaign, exp, "evaluation." + exp, observe=on_job)
        patch(campaign, "run_overhead_experiment", "evaluation.run_overhead_experiment")
        for fn in ("compute_fsd", "wmrd"):
            patch(evaluation, fn, "evaluation." + fn)
        patch(campaign.CampaignConfig, "load_trace", "campaign.load_trace")
        for writer in ("_write_csv", "_write_json"):
            patch(campaign, writer, "campaign.write_outputs")
        patch(cli, "run_campaign", "campaign.run_campaign")

    def _total(self, name, index):
        return self.totals.get(name, (0, 0.0, 0.0))[index]

    def _replays_under_evaluation(self) -> int:
        spans = self.spans
        n = 0
        for span in spans:
            if span[0] != "simulate.run":
                continue
            parent = span[3]
            while parent is not None and not spans[parent][0].startswith("evaluation."):
                parent = spans[parent][3]
            n += parent is not None
        return n

    def metrics(self) -> dict[str, float]:
        """Per-layer figures; times in seconds, everything else a count."""
        def calls(name):
            return self._total(name, 0)

        def seconds(name):
            return self._total(name, 1)

        def self_s(name):
            return self._total(name, 2)

        replays = sorted(s[2] - s[1] for s in self.spans if s[0] == "simulate.run")
        if len(replays) >= 2:
            p90 = statistics.quantiles(replays, n=10)[-1]
        else:
            p90 = replays[0] if replays else 0.0
        packet_ins = calls("controller.packet_in")
        c = self.counts
        return {
            "traceio.read_csv_trace.s": seconds("traceio.read_csv_trace"),
            "traceio.read_csv_trace.pkts": c["traceio.read_csv_trace.items"],
            "traceio.generate_trace.s": seconds("traceio.generate_trace"),
            "traceio.write_csv_trace.s": seconds("traceio.write_csv_trace"),
            "sampling.select_bucket.calls": calls("sampling.select_bucket"),
            "sampling.select_bucket.s": seconds("sampling.select_bucket"),
            "sampling.generate_rules.calls": calls("sampling.generate_rules"),
            "sampling.generate_rules.s": seconds("sampling.generate_rules"),
            "switch.process_packet.calls": calls("switch.process_packet"),
            "switch.process_packet.self_s": self_s("switch.process_packet"),
            "switch.install_flow_entry.calls": calls("switch.install_flow_entry"),
            "switch.install_flow_entry.s": seconds("switch.install_flow_entry"),
            "switch.flow_removed.idle": c["switch.flow_removed.idle"],
            "switch.flow_removed.hard": c["switch.flow_removed.hard"],
            "switch.flow_removed.eot": c["switch.flow_removed.eot"],
            "switch.peak_record_entries": self.peak_record_entries,
            "controller.packet_in.calls": packet_ins,
            "controller.packet_in.s": seconds("controller.packet_in"),
            "controller.installs": c["controller.installs"],
            "controller.useful_ratio": c["controller.installs"] / packet_ins if packet_ins else 0.0,
            "controller.redundant_packets": c["controller.redundant_packets"],
            "controller.flow_removed.s": seconds("controller.flow_removed"),
            "controller.export_records.records": c["controller.export_records.records"],
            "controller.export_records.s": seconds("controller.export_records"),
            "simulate.run.calls": len(replays),
            "simulate.run.self_s": self_s("simulate.run"),
            "simulate.run.p50_s": statistics.median(replays) if replays else 0.0,
            "simulate.run.p90_s": p90,
            "evaluation.replays": self._replays_under_evaluation(),
            "evaluation.compute_fsd.s": seconds("evaluation.compute_fsd"),
            "evaluation.wmrd.s": seconds("evaluation.wmrd"),
            "campaign.load_trace.s": seconds("campaign.load_trace"),
            "campaign.jobs": c["campaign.jobs"],
            "campaign.write_outputs.s": seconds("campaign.write_outputs"),
            "cli.main.s": seconds("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
        }

    def self_seconds(self) -> dict[str, float]:
        """Self time by name; sums to the time of the outermost spans."""
        return {name: t[2] for name, t in sorted(self.totals.items()) if t[0]}

    def write(self, path) -> None:
        """Write the spans, then the per-name totals, one JSON object a line."""
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, own) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": own,
                }) + "\n")
            for name, (n, total, own) in sorted(self.totals.items()):
                fh.write(json.dumps({"totals": name, "calls": n, "s": total, "self_s": own}) + "\n")
