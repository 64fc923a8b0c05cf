"""Deterministic OpenFlow-pipeline flow monitoring simulator."""

from .controller import ControllerConfig
from .evaluation import (
    run_overhead_experiment,
    run_rate_experiment,
    run_wmrd_experiment,
)
from .model import FlowKey, PacketRecord, Protocol, flow_key_of, flow_sizes
from .sampling import (
    SamplingConfig,
    SamplingMethod,
    SamplingMode,
    config_for_rate,
    generate_rules,
    select_bucket,
)
from .simulate import replay_flows
from .traceio import Geometric, SyntheticSpec, generate_trace, randomize_trace

__version__ = "0.1.0"

__all__ = [
    "ControllerConfig",
    "FlowKey",
    "Geometric",
    "PacketRecord",
    "Protocol",
    "SamplingConfig",
    "SamplingMethod",
    "SamplingMode",
    "SyntheticSpec",
    "config_for_rate",
    "flow_key_of",
    "flow_sizes",
    "generate_rules",
    "generate_trace",
    "randomize_trace",
    "replay_flows",
    "run_overhead_experiment",
    "run_rate_experiment",
    "run_wmrd_experiment",
    "select_bucket",
]
