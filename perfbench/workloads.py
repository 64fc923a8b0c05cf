"""The benchmark's workloads.

Each workload builds its inputs from a seed into a work directory, names the
``ofmon`` command line that runs on them, and checks the outputs that command
leaves behind.  Paths in the command line are relative to the work
directory, so every repetition prints the same bytes wherever it runs.

The traces are a fifth to a fifteenth of the sizes first proposed for these
workloads (see README.md): one repetition takes a few seconds, so a
30-second run takes the median of several fresh-interpreter repetitions.
"""

import csv
import ipaddress
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ofmon import traceio
from ofmon.campaign import load_campaign
from ofmon.model import FlowKey, Protocol, flow_key_of
from ofmon.sampling import SamplingMethod, SamplingMode, config_for_rate, generate_rules, select_bucket

OUT = "out"  # output directory, relative to the work directory


@dataclass
class Inputs:
    """What set-up built: the command lines and the reference trace."""

    argv: list[str]  # the measured command
    traced_argv: list[str]  # same outputs in one process, so every span lands in it
    trace: list  # the packets the program replays, for checks and provenance
    expected_results: int  # full-trace results the outputs must report


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int], Inputs]
    # (inputs, output dir) -> (full-trace results reported, problems found)
    inspect: Callable[[Inputs, Path], tuple[int, list[str]]]


def _write_config(work: Path, config: dict) -> Path:
    path = work / "campaign.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def _campaign_trace(config_path: Path) -> list:
    """The trace the campaign generates for itself, built the same way."""
    return traceio.generate_trace(load_campaign(str(config_path)).synthetic)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _records(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _record_key(rec: dict) -> FlowKey:
    return FlowKey(
        int(ipaddress.IPv4Address(rec["src_ip"])),
        int(ipaddress.IPv4Address(rec["dst_ip"])),
        rec["src_port"],
        rec["dst_port"],
        Protocol[rec["protocol"]],
    )


# -- trials: the paper's seeded trial sweep ----------------------------------

TRIALS_SAMPLING = [
    {"method": "hash"},
    {"method": "ip-suffix", "mode": "source"},
    {"method": "ip-suffix", "mode": "pair"},
    {"method": "port", "mode": "source"},
    {"method": "port", "mode": "pair"},
]
TRIALS_RATES = ["1/16", "1/256"]
TRIALS_PER_CELL = 6


def _setup_trials(work: Path, seed: int) -> Inputs:
    config = _write_config(work, {
        "seed": seed,
        "trace": {"synthetic": {
            "flows": 2000,
            "sizes": {"kind": "geometric", "p": 0.3},
            "ips": {"kind": "zipf", "skew": 1.2},
            "seed": seed,
        }},
        "sampling": TRIALS_SAMPLING,
        "rates": TRIALS_RATES,
        "trials": TRIALS_PER_CELL,
        "experiments": ["rate", "wmrd"],
    })
    # hash sampling is a pure function of the key, so its cells run one trial
    per_rate = sum(1 if s["method"] == "hash" else TRIALS_PER_CELL for s in TRIALS_SAMPLING)
    argv = ["campaign", config.name, "--out", OUT, "--workers"]
    return Inputs(
        argv=argv + ["2"],
        traced_argv=argv + ["1"],
        trace=_campaign_trace(config),
        expected_results=2 * len(TRIALS_RATES) * per_rate,
    )


def _inspect_trials(inputs: Inputs, out: Path) -> tuple[int, list[str]]:
    flows = len({flow_key_of(p) for p in inputs.trace})
    rate_rows = _rows(out / "rate_results.csv")
    problems = [
        f"rate_results.csv: {r['method']} {r['mode']} {r['target_rate']} trial {r['trial']} "
        f"sampled {r['sampled_flows']} of {flows} flows"
        for r in rate_rows
        if int(r["sampled_flows"]) > flows
    ]
    return len(rate_rows) + len(_rows(out / "wmrd_results.csv")), problems


# -- simulate-hash: one CSV replay through a select group ---------------------

HASH_RATE = "1/64"


def _setup_simulate_hash(work: Path, seed: int) -> Inputs:
    trace = traceio.generate_trace(
        traceio.SyntheticSpec(flow_count=20_000, size_distribution=traceio.Geometric(0.3), seed=seed)
    )
    traceio.write_csv_trace(trace, str(work / "trace.csv"))
    argv = [
        "simulate", "--trace", "trace.csv", "--method", "hash", "--rate", HASH_RATE,
        "--seed", str(seed), "--out", f"{OUT}/records.jsonl",
    ]
    return Inputs(argv=argv, traced_argv=argv, trace=trace, expected_results=1)


def _inspect_simulate_hash(inputs: Inputs, out: Path) -> tuple[int, list[str]]:
    """Record keys must equal the per-flow oracle: bucket 0 samples."""
    seed = int(inputs.argv[inputs.argv.index("--seed") + 1])
    rules = generate_rules(
        config_for_rate(SamplingMethod("hash"), SamplingMode("source"), Fraction(HASH_RATE), seed)
    )
    group = rules.groups[0]
    oracle = {k for k in {flow_key_of(p) for p in inputs.trace} if select_bucket(group, k, seed) == 0}
    recorded = {_record_key(r) for r in _records(out / "records.jsonl")}
    problems = []
    if recorded != oracle:
        problems.append(
            f"records.jsonl: {len(recorded - oracle)} keys the oracle does not sample, "
            f"{len(oracle - recorded)} sampled keys missing"
        )
    return 1, problems


# -- overhead-export: the switch's write side at full sampling ---------------

OVERHEAD_DELAYS_MS = [0, 5, 20, 100]


def _setup_overhead_export(work: Path, seed: int) -> Inputs:
    config = _write_config(work, {
        "seed": seed,
        "trace": {"synthetic": {
            "flows": 6000,
            "sizes": {"kind": "geometric", "p": 0.3},
            "gaps": {"kind": "exponential", "mean_ms": 50},
            "duration_ms": 2000,
            "seed": seed,
        }},
        "sampling": [{"method": "ip-suffix"}],
        "rates": ["1"],
        "trials": 1,
        "experiments": ["overhead", "export"],
        "timeouts": {"idle_ms": 100},
        "overhead": {"delays_ms": OVERHEAD_DELAYS_MS},
        "export": {"format": "jsonl"},
    })
    argv = ["campaign", config.name, "--out", OUT, "--workers", "1"]
    return Inputs(
        argv=argv,
        traced_argv=argv,
        trace=_campaign_trace(config),
        expected_results=len(OVERHEAD_DELAYS_MS) + 1,
    )


def _inspect_overhead_export(inputs: Inputs, out: Path) -> tuple[int, list[str]]:
    """At rate 1 every packet and byte of the trace lands in some record."""
    exports = sorted(out.glob("records_*.jsonl"))
    delays = {r["install_delay_ns"] for r in _rows(out / "overhead_results.csv")}
    problems = []
    want = (len(inputs.trace), sum(p.length_bytes for p in inputs.trace))
    for path in exports:
        records = _records(path)
        got = (sum(r["packets"] for r in records), sum(r["bytes"] for r in records))
        if got != want:
            problems.append(f"{path.name}: records hold {got} packets/bytes, trace has {want}")
    return len(delays) + len(exports), problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trials", _setup_trials, _inspect_trials),
        Workload("simulate-hash", _setup_simulate_hash, _inspect_simulate_hash),
        Workload("overhead-export", _setup_overhead_export, _inspect_overhead_export),
    )
}
