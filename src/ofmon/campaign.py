"""Declarative experiment campaigns.

A campaign is one JSON document: a trace source, the sampling methods and
rates to sweep, trial counts and which experiments to run.  Running the same
campaign with the same seed writes byte-identical result files; rows are
ordered by (method, mode, rate, trial) no matter how the work was scheduled.
"""

import csv
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import jsonschema

from .controller import ControllerConfig, export_records
from .evaluation import (
    run_overhead_experiment,
    run_rate_experiment,
    run_wmrd_experiment,
)
from .model import ascii_number, flow_sizes
from .sampling import SamplingMethod, SamplingMode, config_for_rate, derive_seed, generate_rules
from .simulate import replay_flows
from .traceio import (
    ExponentialGap,
    Fixed,
    FixedGap,
    Geometric,
    ParetoDiscrete,
    SyntheticSpec,
    UniformRandom,
    ZipfSkewed,
    generate_trace,
    randomize_trace,
    read_csv_trace,
)

WORKERS_ENV = "OFMON_WORKERS"
DEFAULT_OVERHEAD_DELAYS_MS = [1, 5, 10, 20, 50, 100]


class ConfigError(Exception):
    """Campaign or CLI configuration is unusable."""


def parse_at(where: str, parse, text: str):
    """parse(text); a bad value is a ConfigError that names its flag or config path."""
    try:
        return parse(text)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_DIST_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "geometric"}, "p": {"type": "number"}},
            "required": ["kind", "p"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "pareto"},
                "alpha": {"type": "number"},
                "min_size": {"type": "integer"},
            },
            "required": ["kind", "alpha"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "fixed"}, "packets": {"type": "integer"}},
            "required": ["kind", "packets"],
            "additionalProperties": False,
        },
    ]
}

_KEYMODE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "uniform"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "zipf"}, "skew": {"type": "number"}},
            "required": ["kind", "skew"],
            "additionalProperties": False,
        },
    ]
}

_GAP_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "exponential"}, "mean_ms": {"type": "number"}},
            "required": ["kind", "mean_ms"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "fixed"}, "gap_ms": {"type": "number"}},
            "required": ["kind", "gap_ms"],
            "additionalProperties": False,
        },
    ]
}

_SYNTHETIC_SCHEMA = {
    "type": "object",
    "properties": {
        "flows": {"type": "integer", "minimum": 1},
        "sizes": _DIST_SCHEMA,
        "ips": _KEYMODE_SCHEMA,
        "ports": _KEYMODE_SCHEMA,
        "tcp_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        "gaps": _GAP_SCHEMA,
        "duration_ms": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer"},
    },
    "required": ["flows"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "trace": {
            "type": "object",
            "properties": {"csv": {"type": "string"}, "synthetic": _SYNTHETIC_SCHEMA},
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
        },
        "randomize_keys_seed": {"type": "integer"},
        "sampling": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "method": {"enum": ["ip-suffix", "port", "hash"]},
                    "mode": {"enum": ["source", "pair"]},
                },
                "required": ["method"],
                "additionalProperties": False,
            },
        },
        "rates": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        "trials": {"type": "integer", "minimum": 1},
        "experiments": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": ["rate", "wmrd", "overhead", "export"]},
            "uniqueItems": True,
        },
        "timeouts": {
            "type": "object",
            "properties": {
                "idle_ms": {"type": "number", "exclusiveMinimum": 0},
                "hard_ms": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "install_delay_ms": {"type": "number", "minimum": 0},
        "overhead": {
            "type": "object",
            "properties": {
                "delays_ms": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "minimum": 0},
                },
                "rate": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "export": {
            "type": "object",
            "properties": {
                "rate": {"type": "string"},
                "format": {"enum": ["jsonl", "csv"]},
            },
            "additionalProperties": False,
        },
        "output_dir": {"type": "string"},
        "workers": {"type": "integer", "minimum": 1},
    },
    "required": ["seed", "trace", "sampling", "rates", "trials", "experiments"],
    "additionalProperties": False,
}


def _is_integer(checker, instance) -> bool:
    return isinstance(instance, int) and not isinstance(instance, bool)


def _is_finite_number(checker, instance) -> bool:
    return _is_integer(checker, instance) or (
        isinstance(instance, float) and math.isfinite(instance)
    )


# JSON Schema's "integer" admits 2.0 and its "number" admits Infinity and NaN;
# every integer here is used as an int and every number must convert to one
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"integer": _is_integer, "number": _is_finite_number}
    ),
)(CONFIG_SCHEMA)


def _ms_to_ns(ms: float) -> int:
    try:
        return int(round(ms * 1_000_000))
    except OverflowError as exc:
        raise ConfigError(f"campaign config invalid: {ms} ms is out of range") from exc


# Fraction builds 10**n for n decimals or an exponent of n, so an unbounded n
# hangs.  This bounds both; a rate near it is already too long to print.
_RATE_MAX_DIGITS = 10_000


def parse_rate(text: str) -> Fraction:
    """An exact rate in (0, 1] from '1/64', '0.25' or '1e-400'."""
    if len(text) > _RATE_MAX_DIGITS:
        raise ConfigError(f"bad rate {text[:20]!r}...: over {_RATE_MAX_DIGITS} characters")
    if not ascii_number(text, "./eE+-"):
        raise ConfigError(f"bad rate {text!r}: only ASCII digits, '.', '/', 'e' and signs")
    _, e, exponent = text.lower().partition("e")
    try:
        huge = bool(e) and abs(int(exponent)) > _RATE_MAX_DIGITS
    except ValueError:
        huge = False  # not an integer exponent: Fraction says what is wrong
    if huge:
        raise ConfigError(f"bad rate {text!r}: exponent beyond ±{_RATE_MAX_DIGITS}")
    try:
        rate = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rate {text!r}: {exc}") from exc
    if not 0 < rate <= 1:
        raise ConfigError(f"rate {text!r} outside (0, 1]")
    try:
        str(rate)  # every rate is printed: in summaries, outputs and seeds
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        raise ConfigError(f"bad rate {text!r}: too many digits to print exactly") from exc
    return rate


def _parse_synthetic(spec: dict) -> SyntheticSpec:
    sizes = spec.get("sizes", {"kind": "geometric", "p": 0.5})
    if sizes["kind"] == "geometric":
        size_dist = Geometric(sizes["p"])
    elif sizes["kind"] == "pareto":
        size_dist = ParetoDiscrete(sizes["alpha"], sizes.get("min_size", 1))
    else:
        size_dist = Fixed(sizes["packets"])

    def key_mode(cfg: dict):
        return UniformRandom() if cfg["kind"] == "uniform" else ZipfSkewed(cfg["skew"])

    gaps = spec.get("gaps", {"kind": "exponential", "mean_ms": 50})
    if gaps["kind"] == "exponential":
        gap = ExponentialGap(_ms_to_ns(gaps["mean_ms"]))
    else:
        gap = FixedGap(_ms_to_ns(gaps["gap_ms"]))
    return SyntheticSpec(
        flow_count=spec["flows"],
        size_distribution=size_dist,
        ip_mode=key_mode(spec.get("ips", {"kind": "uniform"})),
        port_mode=key_mode(spec.get("ports", {"kind": "uniform"})),
        tcp_fraction=spec.get("tcp_fraction", 0.8),
        gap=gap,
        duration_ns=_ms_to_ns(spec.get("duration_ms", 1000)),
        seed=spec.get("seed", 0),
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Validated campaign: everything needed to run and nothing ambient."""

    seed: int
    trace_path: str | None
    synthetic: SyntheticSpec | None
    randomize_keys_seed: int | None
    sampling: tuple[tuple[SamplingMethod, SamplingMode], ...]
    rates: tuple[Fraction, ...]
    trials: int
    experiments: tuple[str, ...]
    controller: ControllerConfig
    overhead_delays_ns: tuple[int, ...]
    overhead_rate: Fraction
    export_rate: Fraction
    export_format: str
    output_dir: str | None
    workers: int

    def load_trace(self) -> list:
        if self.trace_path is not None:
            trace = list(read_csv_trace(self.trace_path))
        else:
            trace = generate_trace(self.synthetic)
        if self.randomize_keys_seed is not None:
            trace = randomize_trace(trace, self.randomize_keys_seed)
        return trace


def load_campaign(path: str) -> CampaignConfig:
    """Parse and validate a campaign file; raises ConfigError on any problem."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read campaign file: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise ConfigError(f"campaign file is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"campaign config invalid at {where}: {error.message}")

    trace_cfg = raw["trace"]
    trace_path = trace_cfg.get("csv")
    if trace_path is not None:
        resolved = Path(path).parent / trace_path
        if not os.path.isfile(resolved):
            raise ConfigError(f"trace not found: {resolved}")
        trace_path = str(resolved)
    synthetic = None
    if "synthetic" in trace_cfg:
        try:
            synthetic = _parse_synthetic(trace_cfg["synthetic"])
        except ValueError as exc:
            raise ConfigError(f"bad synthetic trace spec: {exc}") from exc

    sampling = tuple(
        (SamplingMethod(item["method"]), SamplingMode(item.get("mode", "source")))
        for item in raw["sampling"]
    )
    rates = tuple(parse_at(f"rates/{i}", parse_rate, r) for i, r in enumerate(raw["rates"]))
    timeouts = raw.get("timeouts", {})
    try:
        controller = ControllerConfig(
            install_delay_ns=_ms_to_ns(raw.get("install_delay_ms", 0)),
            idle_timeout_ns=_ms_to_ns(timeouts.get("idle_ms", 15_000)),
            hard_timeout_ns=_ms_to_ns(timeouts.get("hard_ms", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    overhead = raw.get("overhead", {})
    overhead_rate = parse_at("overhead/rate", parse_rate, overhead.get("rate", "1"))
    if "overhead" in raw["experiments"] and overhead_rate != 1 and len(sampling) > 1:
        raise ConfigError(
            "campaign config invalid at overhead/rate: a rate other than 1 runs one"
            f" sampling method, but {len(sampling)} sampling entries are given"
        )
    export = raw.get("export", {})
    workers = raw.get("workers")  # the schema already keeps it >= 1
    if workers is None:
        text = os.environ.get(WORKERS_ENV) or "1"
        try:
            workers = int(text) if ascii_number(text) else 0
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {text!r}")
    return CampaignConfig(
        seed=raw["seed"],
        trace_path=trace_path,
        synthetic=synthetic,
        randomize_keys_seed=raw.get("randomize_keys_seed"),
        sampling=sampling,
        rates=rates,
        trials=raw["trials"],
        experiments=tuple(raw["experiments"]),
        controller=controller,
        overhead_delays_ns=tuple(
            _ms_to_ns(d) for d in overhead.get("delays_ms", DEFAULT_OVERHEAD_DELAYS_MS)
        ),
        overhead_rate=overhead_rate,
        export_rate=parse_at("export/rate", parse_rate, export.get("rate", raw["rates"][0])),
        export_format=export.get("format", "jsonl"),
        output_dir=raw.get("output_dir"),
        workers=workers,
    )


def _run_cell(sizes: Counter, job: tuple):
    experiment, *args = job
    run = run_rate_experiment if experiment == "rate" else run_wmrd_experiment
    return run(sizes, *args)


_worker_sizes: Counter | None = None  # set once in each pool worker, never in the parent


def _init_worker(sizes: Counter) -> None:
    global _worker_sizes
    _worker_sizes = sizes


def _run_worker_cell(job: tuple):
    return _run_cell(_worker_sizes, job)


def _run_cells(sizes: Counter, jobs: list, workers: int):
    """Run every job; a pool receives the flow table once per worker, not per job."""
    workers = min(workers, len(jobs))  # a pool starts all its processes at once
    if workers <= 1:
        return [_run_cell(sizes, job) for job in jobs]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(sizes,)
    ) as pool:
        return list(pool.map(_run_worker_cell, jobs))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# experiment -> its per-trial columns, a cell's per-trial rows, a cell's statistics
_TRIAL_TABLES = {
    "rate": (
        ["sampled_flows", "theoretical_flows"],
        lambda s: [[count, s.theoretical_count] for count in s.counts],
        lambda s: {"theoretical_count": s.theoretical_count, "median": s.median,
                   "p5": s.p5, "p95": s.p95},
    ),
    "wmrd": (
        ["wmrd"],
        lambda s: [[value] for value in s.values],
        lambda s: {"min": s.minimum, "q1": s.q1, "median": s.median, "q3": s.q3,
                   "max": s.maximum},
    ),
}


def _write_trial_tables(out: Path, experiment: str, summaries: list) -> list[str]:
    """One CSV row per trial and one JSON summary per cell; returns the file names."""
    columns, rows_of, stats_of = _TRIAL_TABLES[experiment]
    cells = [
        (s, {"method": s.method.value, "mode": s.mode.value,
             "target_rate": str(s.target_rate), "realized_rate": str(s.realized_rate)})
        for s in summaries
    ]
    results, summary = f"{experiment}_results.csv", f"{experiment}_summary.json"
    _write_csv(
        out / results,
        ["method", "mode", "target_rate", "realized_rate", "trial", *columns],
        [[*cell.values(), trial, *row] for s, cell in cells for trial, row in enumerate(rows_of(s))],
    )
    _write_json(out / summary, [{**cell, "trials": s.trials, **stats_of(s)} for s, cell in cells])
    return [results, summary]


def run_campaign(config: CampaignConfig, out_dir: str, progress=print) -> list[str]:
    """Execute every selected experiment; returns the files written.

    Cells (method, mode, rate) may run in a worker pool, but output ordering
    is fixed by sorting on the cell coordinates, never by completion.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace = config.load_trace()
    progress(f"trace ready: {len(trace)} packets")
    written: list[str] = []

    cells = [
        (method, mode, rate)
        for method, mode in config.sampling
        for rate in config.rates
    ]

    def cell_seed(tag: str, method, mode, rate) -> int:
        return derive_seed(config.seed, tag, method.value, mode.value, str(rate))

    trial_experiments = [e for e in _TRIAL_TABLES if e in config.experiments]
    sizes = flow_sizes(trace) if trial_experiments else None
    for experiment in trial_experiments:
        jobs = [
            (experiment, m, mo, r, config.trials, cell_seed(experiment, m, mo, r))
            for m, mo, r in cells
        ]
        summaries = _run_cells(sizes, jobs, config.workers)
        summaries.sort(key=lambda s: (s.method.value, s.mode.value, s.target_rate))
        written += _write_trial_tables(out, experiment, summaries)
        progress(f"{experiment} experiment done: {len(summaries)} cells")

    if "overhead" in config.experiments:
        sampling_cfg = None
        if config.overhead_rate != 1:
            (method, mode), = config.sampling  # load_campaign allows only one here
            sampling_cfg = config_for_rate(
                method, mode, config.overhead_rate, derive_seed(config.seed, "overhead")
            )
        points = run_overhead_experiment(
            trace,
            config.overhead_delays_ns,
            sampling=sampling_cfg,
            controller_config=config.controller,
        )
        rows = [
            [p.install_delay_ns, p.protocol.name, p.flows, p.redundant_packets,
             p.mean_redundant_packets_per_flow, p.redundant_bytes, p.total_flow_bytes,
             p.redundant_byte_percent]
            for p in points
        ]
        _write_csv(
            out / "overhead_results.csv",
            ["install_delay_ns", "protocol", "flows", "redundant_packets",
             "mean_redundant_packets_per_flow", "redundant_bytes", "total_flow_bytes",
             "redundant_byte_percent"],
            rows,
        )
        written.append("overhead_results.csv")
        progress(f"overhead experiment done: {len(config.overhead_delays_ns)} delays")

    if "export" in config.experiments:
        for method, mode in config.sampling:
            cfg = config_for_rate(
                method, mode, config.export_rate,
                cell_seed("export", method, mode, config.export_rate),
            )
            result = replay_flows(trace, generate_rules(cfg), config.controller)
            name = f"records_{method.value}_{mode.value}.{config.export_format}"
            with open(out / name, "w", newline="") as fh:
                export_records(result.records, fh, config.export_format)
            written.append(name)
        progress(f"export experiment done: {len(config.sampling)} record files")

    _write_json(out / "manifest.json", {"files": sorted(written)})
    written.append("manifest.json")
    return [str(out / name) for name in written]
