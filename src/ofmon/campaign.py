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
from dataclasses import MISSING, astuple, dataclass, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

from .controller import ControllerConfig, export_records
from .evaluation import (
    OverheadPoint,
    run_overhead_experiment,
    run_rate_experiment,
    run_wmrd_experiment,
)
from .model import ascii_number
from .sampling import (
    SamplingConfig,
    SamplingMethod,
    SamplingMode,
    check_seed,
    config_for_rate,
    derive_seed,
    generate_rules,
)
from .simulate import replay_sampled, restrict_flows, sample_flows
from .traceio import (
    ExponentialGap,
    Fixed,
    FixedGap,
    Geometric,
    ParetoDiscrete,
    SyntheticSpec,
    TraceFormatError,
    UniformRandom,
    ZipfSkewed,
    generate_trace,
    randomize_trace,
    read_csv_trace,
)

DEFAULT_OVERHEAD_DELAYS_MS = [1, 5, 10, 20, 50, 100]


class ConfigError(Exception):
    """Campaign or CLI configuration is unusable."""


def parse_at(where: str, parse, text: str):
    """parse(text); a bad value is a ConfigError that names its flag or config path."""
    try:
        return parse(text)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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


# -- the campaign file's format: each value is checked as it is read ------------

_EXPERIMENTS = ("rate", "wmrd", "overhead", "export")


def _invalid(where: str, problem: str) -> ConfigError:
    return ConfigError(f"campaign config invalid at {where or '<root>'}: {problem}")


def _number(value, where: str, minimum=None, maximum=None, above=None):
    """A finite int or float within the bounds; `above` is an exclusive minimum."""
    # the type first: math.isfinite(10**400) overflows, and a bool is no number
    if not (type(value) is int or type(value) is float and math.isfinite(value)):
        raise _invalid(where, f"{value!r} is not a finite number")
    if minimum is not None and value < minimum:
        raise _invalid(where, f"{value} is less than {minimum}")
    if above is not None and value <= above:
        raise _invalid(where, f"{value} is not greater than {above}")
    if maximum is not None and value > maximum:
        raise _invalid(where, f"{value} is greater than {maximum}")
    return value


def _integer(value, where: str, minimum=None) -> int:
    if type(value) is not int:  # neither true nor 2.0
        raise _invalid(where, f"{value!r} is not an integer")
    return _number(value, where, minimum)


def _seed(value, where: str) -> int:
    try:
        return check_seed(_integer(value, where))
    except ValueError as exc:
        raise _invalid(where, str(exc)) from exc


_NS_LIMIT = 1 << 63  # the range of a signed 64-bit nanosecond clock


def _ms_to_ns(value, where: str, **bounds) -> int:
    ms = _number(value, where, **bounds)
    try:
        ns = int(round(ms * 1_000_000))
    except OverflowError:  # a float past the range of an int
        ns = _NS_LIMIT
    if not -_NS_LIMIT <= ns < _NS_LIMIT:
        raise _invalid(where, f"{ms} ms is out of range")
    if ms > 0 and not ns:
        raise _invalid(where, f"{ms} ms rounds to 0 ns")
    return ns


def _string(value, where: str) -> str:
    if type(value) is not str:
        raise _invalid(where, f"{value!r} is not a string")
    return value


def _choice(value, where: str, options) -> str:
    if type(value) is not str or value not in options:  # a str first: a list is unhashable
        raise _invalid(where, f"{value!r} is not one of {', '.join(map(repr, options))}")
    return value


def _array(value, where: str) -> list:
    if type(value) is not list or not value:
        raise _invalid(where, f"{value!r} is not a non-empty array")
    return value


def _object(value, where: str, allowed=None, required=()) -> dict:
    """A JSON object with only `allowed` keys (any, if None) and every `required` one."""
    if type(value) is not dict:
        raise _invalid(where, f"{value!r} is not an object")
    for key in value:
        if allowed is not None and key not in allowed:
            raise _invalid(f"{where}/{key}" if where else key, "unknown key")
    for key in required:
        if key not in value:
            raise _invalid(where, f"{key!r} is required")
    return value


def _fields(cls, value, where: str, params: dict, extra=()) -> dict:
    """The fields of `cls` that the object `value` gives, each read and checked.

    `params` maps a config key to its field and reader.  A key is required if
    its field has no class default, so the class holds the only defaults.
    """
    required = {f.name for f in fields(cls) if f.default is MISSING}
    _object(value, where, (*extra, *params),
            [key for key, (field, _) in params.items() if field in required])
    return {
        field: read(value[key], f"{where}/{key}")
        for key, (field, read) in params.items() if key in value
    }


def _build(cls, where: str, given: dict):
    try:
        return cls(**given)
    except ValueError as exc:
        raise _invalid(where, str(exc)) from exc


def _distribution(value, where: str, kinds: dict):
    """The object `value` as the class its "kind" names in `kinds`."""
    kind = _object(value, where, required=("kind",))["kind"]
    cls, params = kinds[_choice(kind, f"{where}/kind", kinds)]
    return _build(cls, where, _fields(cls, value, where, params, extra=("kind",)))


# kind -> (class, {config key: (class field, reader)})
_SIZES = {
    "geometric": (Geometric, {"p": ("p", _number)}),
    "pareto": (ParetoDiscrete, {"alpha": ("alpha", _number),
                                "min_size": ("min_size", _integer)}),
    "fixed": (Fixed, {"packets": ("packets", _integer)}),
}
_KEY_MODES = {
    "uniform": (UniformRandom, {}),
    "zipf": (ZipfSkewed, {"skew": ("skew", _number)}),
}
_GAPS = {
    "exponential": (ExponentialGap, {"mean_ms": ("mean_ns", _ms_to_ns)}),
    "fixed": (FixedGap, {"gap_ms": ("gap_ns", _ms_to_ns)}),
}

# config key -> (class field, reader)
_SYNTHETIC = {
    "flows": ("flow_count", partial(_integer, minimum=1)),
    "sizes": ("size_distribution", partial(_distribution, kinds=_SIZES)),
    "ips": ("ip_mode", partial(_distribution, kinds=_KEY_MODES)),
    "ports": ("port_mode", partial(_distribution, kinds=_KEY_MODES)),
    "tcp_fraction": ("tcp_fraction", partial(_number, minimum=0, maximum=1)),
    "gaps": ("gap", partial(_distribution, kinds=_GAPS)),
    "duration_ms": ("duration_ns", partial(_ms_to_ns, above=0)),
    "seed": ("seed", _seed),
}
_TIMEOUTS = {
    "idle_ms": ("idle_timeout_ns", partial(_ms_to_ns, above=0)),
    "hard_ms": ("hard_timeout_ns", partial(_ms_to_ns, minimum=0)),
}
_CONFIG_KEYS = (
    "seed", "trace", "randomize_keys_seed", "sampling", "rates", "trials", "experiments",
    "timeouts", "install_delay_ms", "overhead", "export",
)
_CONFIG_REQUIRED = ("seed", "trace", "sampling", "rates", "trials", "experiments")


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

    def load_trace(self) -> list:
        if self.trace_path is not None:
            try:
                trace = list(read_csv_trace(self.trace_path))
            except TraceFormatError as exc:
                raise _invalid("trace/csv", f"{self.trace_path}: {exc}") from exc
        else:
            trace = generate_trace(self.synthetic)
        if self.randomize_keys_seed is not None:
            trace = randomize_trace(trace, self.randomize_keys_seed)
        return trace


def load_campaign(path: str) -> CampaignConfig:
    """Read and check a campaign file; a ConfigError names the path of any fault."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read campaign file: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise ConfigError(f"campaign file is not valid JSON: {exc}") from exc
    raw = _object(raw, "", _CONFIG_KEYS, _CONFIG_REQUIRED)

    trace = _object(raw["trace"], "trace", ("csv", "synthetic"))
    if len(trace) != 1:
        raise _invalid("trace", "give exactly one of 'csv' and 'synthetic'")
    trace_path = synthetic = None
    if "csv" in trace:
        resolved = Path(path).parent / _string(trace["csv"], "trace/csv")
        if not os.path.isfile(resolved):
            raise _invalid("trace/csv", f"trace not found: {resolved}")
        trace_path = str(resolved)
    else:
        where = "trace/synthetic"
        synthetic = _build(SyntheticSpec, where,
                           _fields(SyntheticSpec, trace["synthetic"], where, _SYNTHETIC))

    sampling = []
    for i, item in enumerate(_array(raw["sampling"], "sampling")):
        item = _object(item, f"sampling/{i}", ("method", "mode"), ("method",))
        sampling.append((
            SamplingMethod(_choice(item["method"], f"sampling/{i}/method",
                                   [m.value for m in SamplingMethod])),
            SamplingMode(_choice(item.get("mode", "source"), f"sampling/{i}/mode",
                                 [m.value for m in SamplingMode])),
        ))
    rates = tuple(
        parse_at(f"rates/{i}", parse_rate, _string(r, f"rates/{i}"))
        for i, r in enumerate(_array(raw["rates"], "rates"))
    )
    experiments = tuple(
        _choice(e, f"experiments/{i}", _EXPERIMENTS)
        for i, e in enumerate(_array(raw["experiments"], "experiments"))
    )
    overhead = _object(raw.get("overhead", {}), "overhead", ("delays_ms", "rate"))
    delays = tuple(
        _ms_to_ns(d, f"overhead/delays_ms/{i}", minimum=0)
        for i, d in enumerate(_array(overhead.get("delays_ms", DEFAULT_OVERHEAD_DELAYS_MS),
                                     "overhead/delays_ms"))
    )
    for name, values in (
        ("sampling", sampling),
        ("rates", rates),
        ("experiments", experiments),
        ("overhead/delays_ms", delays),
    ):
        for i, value in enumerate(values):
            first = values.index(value)
            if first < i:
                raise _invalid(f"{name}/{i}", f"same as {name}/{first}")

    timing = _fields(ControllerConfig, raw.get("timeouts", {}), "timeouts", _TIMEOUTS)
    if "install_delay_ms" in raw:
        timing["install_delay_ns"] = _ms_to_ns(raw["install_delay_ms"], "install_delay_ms",
                                               minimum=0)
    controller = _build(ControllerConfig, "timeouts", timing)  # only timeouts can clash
    overhead_rate = parse_at("overhead/rate", parse_rate,
                             _string(overhead.get("rate", "1"), "overhead/rate"))
    if "overhead" in experiments and overhead_rate != 1 and len(sampling) > 1:
        raise _invalid("overhead/rate", "a rate other than 1 runs one sampling method,"
                       f" but {len(sampling)} sampling entries are given")
    export = _object(raw.get("export", {}), "export", ("rate", "format"))
    return CampaignConfig(
        seed=_seed(raw["seed"], "seed"),
        trace_path=trace_path,
        synthetic=synthetic,
        randomize_keys_seed=(_seed(raw["randomize_keys_seed"], "randomize_keys_seed")
                             if "randomize_keys_seed" in raw else None),
        sampling=tuple(sampling),
        rates=rates,
        trials=_integer(raw["trials"], "trials", minimum=1),
        experiments=experiments,
        controller=controller,
        overhead_delays_ns=delays,
        overhead_rate=overhead_rate,
        export_rate=parse_at("export/rate", parse_rate,
                             _string(export.get("rate", raw["rates"][0]), "export/rate")),
        export_format=_choice(export.get("format", "jsonl"), "export/format", ("jsonl", "csv")),
    )


def _run_cell(sizes: dict, job: tuple):
    experiment, *args = job
    run = run_rate_experiment if experiment == "rate" else run_wmrd_experiment
    return run(sizes, *args)


_worker_sizes: dict | None = None  # set once in each pool worker, never in the parent


def _init_worker(sizes: dict) -> None:
    global _worker_sizes
    _worker_sizes = sizes


def _run_worker_cell(job: tuple):
    return _run_cell(_worker_sizes, job)


def _ports_drawn(job: tuple) -> int:
    """The ports a cell's trials draw, which set its run time; 0 for a cell that draws none."""
    _, method, mode, rate, trials, _ = job
    if method is not SamplingMethod.PORT_BASED:
        return 0
    cfg = config_for_rate(method, mode, rate)
    return trials * (cfg.src_size + cfg.dst_size)


def _run_cells(sizes: dict, jobs: list, workers: int):
    """Run every job; returns their summaries in job order.

    A pool receives the flow table once per worker, not per job, and takes
    the cells heaviest first by ports drawn (ties in job order), so the long
    port cells start at once and the short ones fill in behind them; the
    order of the summaries does not depend on the order of dispatch.
    """
    workers = min(workers, len(jobs))  # a pool starts all its processes at once
    if workers <= 1:
        return [_run_cell(sizes, job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

    heaviest_first = sorted(range(len(jobs)), key=lambda i: _ports_drawn(jobs[i]), reverse=True)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(sizes,)
    ) as pool:
        done = dict(zip(heaviest_first,
                        pool.map(_run_worker_cell, [jobs[i] for i in heaviest_first])))
    return [done[i] for i in range(len(jobs))]


def _write_csv(path: Path, header: list[str], rows: list[list | tuple]) -> None:
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


def make_output_dir(path: str) -> Path:
    """The output directory, created with its parents if need be; a ConfigError if it cannot be."""
    if not path:
        raise ConfigError("empty path")
    try:
        out = Path(path)
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc.strerror or exc}") from exc
    return out


def run_campaign(config: CampaignConfig, out_dir: str, workers=1, progress=print) -> list[str]:
    """Execute every selected experiment; returns the files written.

    Cells (method, mode, rate) may run in a pool of `workers` processes, which
    takes them heaviest first by ports drawn, but output ordering is fixed by
    sorting on the cell coordinates, never by dispatch or completion.
    """
    out = make_output_dir(out_dir)
    trace = config.load_trace()
    if not trace and "wmrd" in config.experiments:  # only a csv trace can be empty
        raise _invalid("trace/csv", f"{config.trace_path} holds no packets, and wmrd needs some")
    progress(f"trace ready: {len(trace)} packets")
    # every flow, grouped once for the trials, the overhead sweep and the export
    flows = sample_flows(trace, generate_rules(SamplingConfig(SamplingMethod.IP_SUFFIX)))
    del trace
    written: list[str] = []

    cells = [
        (method, mode, rate)
        for method, mode in config.sampling
        for rate in config.rates
    ]

    def cell_seed(tag: str, method, mode, rate) -> int:
        return derive_seed(config.seed, tag, method.value, mode.value, str(rate))

    # every trial cell of every experiment in one pool, so no experiment waits
    # for the slowest cell of the one before it
    trial_experiments = [e for e in _TRIAL_TABLES if e in config.experiments]
    jobs = [
        (experiment, m, mo, r, config.trials, cell_seed(experiment, m, mo, r))
        for experiment in trial_experiments
        for m, mo, r in cells
    ]
    sizes = {key: len(packets) >> 1 for key, packets in flows.flows.items()}
    summaries = _run_cells(sizes, jobs, workers) if jobs else []
    for i, experiment in enumerate(trial_experiments):
        done = summaries[i * len(cells):(i + 1) * len(cells)]
        done.sort(key=lambda s: (s.method.value, s.mode.value, s.target_rate))
        written += _write_trial_tables(out, experiment, done)
        progress(f"{experiment} experiment done: {len(done)} cells")

    if "overhead" in config.experiments:
        sampled = flows
        if config.overhead_rate != 1:
            (method, mode), = config.sampling  # load_campaign allows only one here
            sampled = restrict_flows(flows, generate_rules(config_for_rate(
                method, mode, config.overhead_rate, derive_seed(config.seed, "overhead")
            )))
        points = run_overhead_experiment(sampled, config.overhead_delays_ns, config.controller)
        _write_csv(
            out / "overhead_results.csv",
            [f.name for f in fields(OverheadPoint)],
            [astuple(replace(p, protocol=p.protocol.name)) for p in points],
        )
        written.append("overhead_results.csv")
        progress(f"overhead experiment done: {len(config.overhead_delays_ns)} delays")

    if "export" in config.experiments:
        for method, mode in config.sampling:
            cfg = config_for_rate(
                method, mode, config.export_rate,
                cell_seed("export", method, mode, config.export_rate),
            )
            result = replay_sampled(restrict_flows(flows, generate_rules(cfg)), config.controller)
            name = f"records_{method.value}_{mode.value}.{config.export_format}"
            with open(out / name, "w", newline="") as fh:
                export_records(result.records, fh, config.export_format)
            written.append(name)
        progress(f"export experiment done: {len(config.sampling)} record files")

    _write_json(out / "manifest.json", {"files": sorted(written)})
    written.append("manifest.json")
    return [str(out / name) for name in written]
