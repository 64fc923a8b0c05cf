"""Command-line front end: `ofmon simulate|campaign|gen`.

Exit codes: 0 success, 2 usage/config problems, 1 runtime failure.
"""

import argparse
import dataclasses
import os
import re
import sys
from fractions import Fraction

from .campaign import (
    ConfigError,
    load_campaign,
    make_output_dir,
    parse_at,
    parse_rate,
    run_campaign,
)
from .controller import ControllerConfig, export_records
from .model import ascii_int, ascii_number, flow_sizes
from .sampling import SamplingMethod, SamplingMode, check_seed, config_for_rate, generate_rules
from .simulate import replay_flows
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
    write_csv_trace,
)

_DURATION_RE = re.compile(r"([0-9]+(?:\.[0-9]+)?)(ns|us|ms|s|m)?")
_DURATION_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000, "m": 60_000_000_000}
# `gen` flags that shape a synthetic trace, which --randomize does not build
_SYNTHETIC_FLAGS = ("--flows", "--sizes", "--ips", "--ports", "--tcp-fraction", "--gaps",
                    "--duration")


def ascii_float(text: str) -> float:
    """float(text) for ASCII digits, '.', an exponent and signs only."""
    if not ascii_number(text, ".eE+-"):
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)


def parse_duration_ns(text: str) -> int:
    """'15s', '30ms', '100us', '250000ns' (bare numbers mean ns) -> int ns, exactly.

    A duration above 0 that rounds to 0 ns is rejected.
    """
    m = _DURATION_RE.fullmatch(text)
    if not m:
        raise ConfigError(f"bad duration {text!r} (use e.g. 15s, 30ms, 100us)")
    value, unit = m.groups()
    exact = Fraction(value) * _DURATION_NS[unit or "ns"]
    ns = round(exact)
    if exact and not ns:
        raise ConfigError(f"duration {text!r} rounds to 0 ns")
    return ns


def _parse_sizes(token: str):
    kind, _, rest = token.partition(":")
    if kind == "geometric":
        return Geometric(ascii_float(rest))
    if kind == "pareto":
        alpha, _, min_size = rest.partition(":")
        return ParetoDiscrete(ascii_float(alpha), ascii_int(min_size) if min_size else 1)
    if kind == "fixed":
        return Fixed(ascii_int(rest))
    raise ConfigError(f"unknown size distribution {token!r} (geometric:P, pareto:A[:MIN], fixed:K)")


def _parse_keymode(token: str):
    if token == "uniform":
        return UniformRandom()
    kind, _, skew = token.partition(":")
    if kind == "zipf" and skew:
        return ZipfSkewed(ascii_float(skew))
    raise ConfigError(f"unknown key mode {token!r} (uniform or zipf:S)")


def _parse_gaps(token: str):
    kind, _, rest = token.partition(":")
    if kind == "exp" and rest:
        return ExponentialGap(parse_duration_ns(rest))
    if kind == "fixed" and rest:
        return FixedGap(parse_duration_ns(rest))
    raise ConfigError(f"unknown gap distribution {token!r} (exp:DUR or fixed:DUR)")


def _check_output_file(flag: str, path: str) -> None:
    """Fail before the work if `path` is a directory or has no directory to hold it.

    The file is not created here, so a run that fails later leaves no output.
    """
    if not path:
        raise ConfigError(f"{flag}: empty path")
    if os.path.isdir(path):
        raise ConfigError(f"{flag}: {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"{flag}: no directory {parent} to write {path} in")


def _set_flags(obj, *flags):
    """`obj` with each (flag, field, parse, text) applied in turn by dataclasses.replace.

    A flag not given (text None) keeps the class's default.  The class checks
    each step, so a value it rejects names the flag that set it.
    """
    for flag, field, parse, text in flags:
        if text is None:
            continue
        obj = parse_at(flag, lambda t: dataclasses.replace(obj, **{field: parse(t)}), text)
    return obj


def cmd_gen_trace(args: argparse.Namespace) -> int:
    """Generate a synthetic trace, or randomize the keys of an existing one."""
    _check_output_file("-o", args.out)
    seed = parse_at("--seed", check_seed, args.seed)
    if args.randomize:
        for flag in _SYNTHETIC_FLAGS:
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ConfigError(f"{flag}: not allowed with --randomize, which keeps"
                                  " the input trace's flows")
        if not os.path.isfile(args.randomize):
            raise ConfigError(f"trace not found: {args.randomize}")
        packets = randomize_trace(read_csv_trace(args.randomize), seed)
    else:
        if args.flows is None:
            raise ConfigError("either --flows or --randomize is required")
        spec = _set_flags(
            parse_at("--flows", lambda n: SyntheticSpec(flow_count=n, seed=seed), args.flows),
            ("--sizes", "size_distribution", _parse_sizes, args.sizes),
            ("--ips", "ip_mode", _parse_keymode, args.ips),
            ("--ports", "port_mode", _parse_keymode, args.ports),
            ("--tcp-fraction", "tcp_fraction", float, args.tcp_fraction),
            ("--gaps", "gap", _parse_gaps, args.gaps),
            ("--duration", "duration_ns", parse_duration_ns, args.duration),
        )
        packets = generate_trace(spec)
    count = write_csv_trace(packets, args.out)
    flows = len(flow_sizes(packets))
    total_bytes = sum(p.length_bytes for p in packets)
    print(f"wrote {args.out}: {flows} flows, {count} packets, {total_bytes} bytes")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Replay one trace through the monitoring pipeline and export records."""
    if not os.path.isfile(args.trace):
        raise ConfigError(f"trace not found: {args.trace}")
    _check_output_file("--out", args.out)
    if os.path.exists(args.out) and os.path.samefile(args.out, args.trace):
        raise ConfigError(f"--out: {args.out} is the --trace file")
    target = parse_at("--rate", parse_rate, args.rate)
    seed = parse_at("--seed", check_seed, args.seed)
    sampling = config_for_rate(args.method, args.mode, target, seed)
    # idle before hard: the default hard timeout 0 fits any idle timeout
    controller = _set_flags(
        ControllerConfig(),
        ("--delay", "install_delay_ns", parse_duration_ns, args.delay),
        ("--idle", "idle_timeout_ns", parse_duration_ns, args.idle),
        ("--hard", "hard_timeout_ns", parse_duration_ns, args.hard),
    )
    rules = generate_rules(sampling)
    result = replay_flows(read_csv_trace(args.trace), rules, controller)
    with open(args.out, "w", newline="") as fh:
        written = export_records(result.records, fh, args.format)
    realized = rules.theoretical_rate
    if realized != target:
        print(f"note: rate {target} not representable by {args.method}; using {realized}")
    print(f"sampling rate: {realized} ({args.method}, {args.mode})")
    print(f"flows seen: {result.flows_seen}")
    print(f"flows sampled: {result.flows_sampled}")
    print(f"record entries installed: {result.entries_installed}")
    print(f"peak record-entry occupancy: {result.peak_record_entries}")
    print(f"records written to {args.out}: {written}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a campaign config file end to end."""
    config = load_campaign(args.config)
    if args.workers < 1:
        raise ConfigError("--workers: worker count must be >= 1")
    parse_at("--out", make_output_dir, args.out)
    files = run_campaign(config, args.out, args.workers)
    print(f"campaign complete: {len(files)} files in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofmon",
        description="Deterministic switch-pipeline flow monitoring simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="replay a trace and export flow records")
    p_sim.add_argument("--trace", required=True, help="input trace CSV (.gz ok)")
    p_sim.add_argument("--method", choices=sorted(m.value for m in SamplingMethod), required=True)
    p_sim.add_argument("--mode", choices=sorted(m.value for m in SamplingMode), default="source")
    p_sim.add_argument("--rate", required=True, help="sampling rate as a fraction, e.g. 1/64")
    p_sim.add_argument("--idle", help="idle timeout (default 15s)")
    p_sim.add_argument("--hard", help="hard timeout, 0 disables (default)")
    p_sim.add_argument("--delay", help="entry install delay (default 0)")
    p_sim.add_argument("--seed", type=ascii_int, default=0)
    p_sim.add_argument("--out", required=True, help="flow record output file")
    p_sim.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p_sim.set_defaults(func=cmd_simulate)

    p_camp = sub.add_parser("campaign", help="run a declarative experiment campaign")
    p_camp.add_argument("config", help="campaign JSON file")
    p_camp.add_argument("--out", default="campaign_out",
                        help="output directory (default campaign_out)")
    p_camp.add_argument("--workers", type=ascii_int, default=1, help="worker processes (default 1)")
    p_camp.set_defaults(func=cmd_campaign)

    p_gen = sub.add_parser("gen", help="generate or randomize a trace")
    p_gen.add_argument("--flows", type=ascii_int, help="synthetic flow count")
    p_gen.add_argument("--sizes", help="geometric:P | pareto:A[:MIN] | fixed:K")
    p_gen.add_argument("--ips", help="uniform | zipf:S")
    p_gen.add_argument("--ports", help="uniform | zipf:S")
    p_gen.add_argument("--tcp-fraction", type=ascii_float, dest="tcp_fraction")
    p_gen.add_argument("--gaps", help="exp:DUR | fixed:DUR")
    p_gen.add_argument("--duration", help="flow start-time window")
    p_gen.add_argument("--randomize", metavar="TRACE", help="randomize keys of TRACE instead")
    p_gen.add_argument("--seed", type=ascii_int, default=0)
    p_gen.add_argument("-o", "--out", required=True, help="output trace CSV (.gz ok)")
    p_gen.set_defaults(func=cmd_gen_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
