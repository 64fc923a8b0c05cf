"""Campaign loading, validation, outputs, and rerun determinism."""

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofmon import campaign
from ofmon.campaign import (
    DEFAULT_OVERHEAD_DELAYS_MS,
    CampaignConfig,
    ConfigError,
    load_campaign,
    parse_rate,
    run_campaign,
)
from ofmon.evaluation import run_overhead_experiment
from ofmon.model import flow_key_of
from ofmon.sampling import SamplingMethod, SamplingMode
from ofmon.traceio import write_csv_trace

from helpers import random_trace

QUIET = dict(progress=lambda *_: None)

BASE = {
    "seed": 7,
    "trace": {"synthetic": {"flows": 400, "sizes": {"kind": "fixed", "packets": 2},
                            "gaps": {"kind": "fixed", "gap_ms": 1}, "seed": 1}},
    "sampling": [{"method": "hash"}, {"method": "ip-suffix", "mode": "source"}],
    "rates": ["1/8"],
    "trials": 3,
    "experiments": ["rate", "wmrd", "overhead", "export"],
    "overhead": {"delays_ms": [0, 5]},
    "export": {"format": "csv"},
}


# SHA-256 of every file a BASE campaign writes.  A refactor must keep them;
# a change that alters an output byte must say so and record new digests.
BASE_DIGESTS = {
    "manifest.json": "1b7a487d238d9d1b69226c373ec222fd176f67f754d3e9e6c3aa047fd4cf3f28",
    "overhead_results.csv": "c1f40ad48d55e45e03eff9e8cdf9954a4d48f8cee7d6a3686475c903957da9f8",
    "rate_results.csv": "adba87c3598c796ea3869d1b10e6fd732bd6a08e6409fe52a2f283c67b795473",
    "rate_summary.json": "59b0646aa5327c871452e3ca3190bf9c68c3a15ee0ed7b28408f3290a3774af0",
    "records_hash_source.csv": "7b3afe1df325c7a6bb8ea24cdda0faa70022345ef70ea431be172d47429c1598",
    "records_ip-suffix_source.csv":
        "afb73656681d9dc7f3b3ba75187861f064932be521b4a2271760843df3893959",
    "wmrd_results.csv": "25d1a19e79fe67ed10609b0d1be4fee7530686f531aad81f4bfe74f735077913",
    "wmrd_summary.json": "64bfa5ef8dc5dfe2c1acfd30e27d489e7bf989f10aa5fec3c1e97c138f66468b",
}


def write_config(tmp_path, overrides=None, drop=(), name="campaign.json"):
    cfg = {k: v for k, v in {**BASE, **(overrides or {})}.items() if k not in drop}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseRate:
    def test_accepted_forms(self):
        assert parse_rate("1/64") == Fraction(1, 64)
        assert parse_rate("0.25") == Fraction(1, 4)
        assert parse_rate("1") == Fraction(1)

    @pytest.mark.parametrize("bad", ["0", "-1/2", "3/2", "1/0", "abc", "1e-999999999",
                                     "1e-3000000", "0e999999999", "1E-999_999_999",
                                     "1e-\uff19\uff19\uff19\uff19\uff19\uff19", "1e-4300",
                                     "\u0661/\u0666\u0664", "1_0/640", " 1/8 ", "1/8\n"])
    def test_rejected_forms(self, bad):
        with pytest.raises(ConfigError, match="rate"):
            parse_rate(bad)

    def test_every_accepted_rate_prints_exactly(self):
        # Python prints ints of up to 4,300 digits by default
        assert parse_rate("1e-400") == Fraction(1, 10**400)
        assert parse_rate("1e-4299") == Fraction(1, 10**4299)
        assert parse_rate("1/" + "9" * 4300).denominator == 10**4300 - 1
        for bad in ("0." + "0" * 4300 + "1", "0." + "0" * 20_000 + "1", "1/" + "9" * 4301):
            with pytest.raises(ConfigError, match="bad rate"):
                parse_rate(bad)


class TestLoadCampaign:
    def test_happy_path_types(self, tmp_path):
        cfg = load_campaign(write_config(tmp_path, {"install_delay_ms": 2.5,
                                                    "timeouts": {"idle_ms": 500}}))
        assert cfg.sampling == (
            (SamplingMethod.HASH_BASED, SamplingMode.SOURCE_ONLY),
            (SamplingMethod.IP_SUFFIX, SamplingMode.SOURCE_ONLY),
        )
        assert cfg.rates == (Fraction(1, 8),)
        assert cfg.controller.install_delay_ns == 2_500_000
        assert cfg.controller.idle_timeout_ns == 500_000_000
        assert cfg.overhead_delays_ns == (0, 5_000_000)
        assert cfg.export_rate == Fraction(1, 8)
        assert cfg.export_format == "csv"
        assert cfg.workers == 1

    def test_default_overhead_delays(self, tmp_path):
        cfg = load_campaign(write_config(tmp_path, drop=("overhead",)))
        assert cfg.overhead_delays_ns == tuple(
            ms * 1_000_000 for ms in DEFAULT_OVERHEAD_DELAYS_MS
        )

    def test_csv_trace_resolved_relative_to_config(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        trace = random_trace(30, seed=3)
        write_csv_trace(trace, str(sub / "input.csv"))
        path = write_config(sub, {"trace": {"csv": "input.csv"}})
        cfg = load_campaign(path)
        assert cfg.load_trace() == trace

    def test_randomize_keys_applies_to_loaded_trace(self, tmp_path):
        trace = random_trace(30, seed=3, packets_per_flow=2)
        write_csv_trace(trace, str(tmp_path / "input.csv"))
        path = write_config(tmp_path, {"trace": {"csv": "input.csv"},
                                       "randomize_keys_seed": 11})
        loaded = load_campaign(path).load_trace()
        assert {flow_key_of(p) for p in loaded} != {flow_key_of(p) for p in trace}
        assert [p.timestamp_ns for p in loaded] == [p.timestamp_ns for p in trace]

    @pytest.mark.parametrize(
        "overrides,drop",
        [
            ({}, ("seed",)),
            ({}, ("trace",)),
            ({"rates": []}, ()),
            ({"rates": ["0"]}, ()),
            ({"rates": ["3/2"]}, ()),
            ({"sampling": [{"method": "random"}]}, ()),
            ({"experiments": ["rate", "rate"]}, ()),
            ({"experiments": ["plot"]}, ()),
            ({"trials": 0}, ()),
            ({"unknown_key": 1}, ()),
            ({"trace": {"synthetic": {"flows": 0}}}, ()),
            ({"trace": {"csv": "no-such-file.csv"}}, ()),
            ({"timeouts": {"idle_ms": 0}}, ()),
            ({"install_delay_ms": -1}, ()),
            ({"workers": 0}, ()),
            # numbers the schema's own types admit but the campaign cannot use
            ({"seed": 1.0}, ()),
            ({"trials": 2.0, "sampling": [{"method": "ip-suffix"}]}, ()),
            ({"workers": 2.0}, ()),
            ({"trace": {"synthetic": {"flows": 50.0}}}, ()),
            ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "fixed", "packets": 3.0}}}},
             ()),
            ({"timeouts": {"idle_ms": float("inf")}}, ()),
            ({"trace": {"synthetic": {"flows": 5, "gaps": {"kind": "exponential",
                                                          "mean_ms": float("inf")}}}}, ()),
            ({"install_delay_ms": 1e308}, ()),
            ({"trace": {"csv": ""}}, ()),  # the config's own directory
            # sizes whose draw would divide by zero
            ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "geometric", "p": 1e-17}}}},
             ()),
            ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "pareto", "alpha": 1e-300}}}},
             ()),
        ],
    )
    def test_invalid_configs(self, tmp_path, overrides, drop):
        with pytest.raises(ConfigError):
            load_campaign(write_config(tmp_path, overrides, drop))

    def test_overhead_rate_below_one_needs_a_single_sampling_entry(self, tmp_path):
        overrides = {"overhead": {"delays_ms": [0, 5], "rate": "1/2"}}
        with pytest.raises(ConfigError, match="overhead/rate"):
            load_campaign(write_config(tmp_path, overrides))
        # without the overhead experiment the rate is unused, so it stays valid
        overrides["experiments"] = ["rate"]
        assert load_campaign(write_config(tmp_path, overrides)).overhead_rate == Fraction(1, 2)

    @pytest.mark.parametrize("overrides,where", [
        ({"rates": ["1/8", "\u0661/\u0666\u0664"]}, "rates/1"),
        ({"rates": ["1_0/640"]}, "rates/0"),
        ({"overhead": {"rate": " 1 "}}, "overhead/rate"),
        ({"export": {"rate": "\uff11/8"}}, "export/rate"),
    ])
    def test_a_rate_takes_ascii_digits_only_and_its_error_names_its_path(
            self, tmp_path, overrides, where):
        with pytest.raises(ConfigError, match=where):
            load_campaign(write_config(tmp_path, overrides))

    def test_unreadable_and_unparsable_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_campaign(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_campaign(str(bad))


class TestRunCampaign:
    def run(self, tmp_path, name, overrides=None):
        cfg = load_campaign(write_config(tmp_path, overrides, name=f"{name}.json"))
        out = tmp_path / name
        return run_campaign(cfg, str(out), **QUIET), out

    def test_writes_every_expected_file(self, tmp_path):
        written, out = self.run(tmp_path, "a")
        names = {Path(w).name for w in written}
        assert names == {
            "rate_results.csv", "rate_summary.json",
            "wmrd_results.csv", "wmrd_summary.json",
            "overhead_results.csv",
            "records_hash_source.csv", "records_ip-suffix_source.csv",
            "manifest.json",
        }
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == sorted(names - {"manifest.json"})

    def test_result_rows_are_cell_ordered(self, tmp_path):
        _, out = self.run(tmp_path, "b")
        lines = (out / "rate_results.csv").read_text().splitlines()
        assert lines[0].startswith("method,mode,target_rate")
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == sorted(methods)
        # hash collapses to one deterministic trial, the rest keep all three
        assert methods.count("hash") == 1
        assert methods.count("ip-suffix") == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        first, out1 = self.run(tmp_path, "c1")
        second, out2 = self.run(tmp_path, "c2")
        for a, b in zip(sorted(first), sorted(second)):
            assert Path(a).name == Path(b).name
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_worker_pool_does_not_change_the_bytes(self, tmp_path):
        serial, _ = self.run(tmp_path, "w1")
        pooled, _ = self.run(tmp_path, "w2", {"workers": 2})
        for a, b in zip(sorted(serial), sorted(pooled)):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_overhead_at_a_rate_below_one_samples_part_of_the_flows(self, tmp_path):
        _, out = self.run(tmp_path, "o", {
            "sampling": [{"method": "ip-suffix"}],
            "experiments": ["overhead"],
            "overhead": {"delays_ms": [0, 5], "rate": "1/2"},
        })
        with open(out / "overhead_results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        flows = {}
        for row in rows:
            delay = row["install_delay_ns"]
            flows[delay] = flows.get(delay, 0) + int(row["flows"])
        assert set(flows) == {"0", "5000000"}
        # one drawn suffix bit: some flows but not all 400, the same at every delay
        assert 0 < flows["0"] < 400
        assert flows["0"] == flows["5000000"]

    def test_overhead_sweep_applies_the_hard_timeout(self, tmp_path):
        # 20-packet flows 1 ms apart, installs 2 ms late: a 5 ms hard timeout
        # evicts each record entry twice mid-flow, and each reinstall window
        # adds redundant PacketIns
        overrides = {
            "trace": {"synthetic": {"flows": 50, "sizes": {"kind": "fixed", "packets": 20},
                                    "gaps": {"kind": "fixed", "gap_ms": 1}, "seed": 1}},
            "experiments": ["overhead"],
            "overhead": {"delays_ms": [0, 2]},
        }
        _, soft = self.run(tmp_path, "soft", {**overrides, "timeouts": {"idle_ms": 5}})
        hard_config = load_campaign(write_config(
            tmp_path, {**overrides, "timeouts": {"idle_ms": 5, "hard_ms": 5}}, name="hard.json"))
        run_campaign(hard_config, str(tmp_path / "hard"), **QUIET)
        hard_csv = (tmp_path / "hard" / "overhead_results.csv").read_text()
        assert hard_csv != (soft / "overhead_results.csv").read_text()
        points = run_overhead_experiment(
            hard_config.load_trace(), hard_config.overhead_delays_ns,
            controller_config=hard_config.controller,
        )
        direct = [
            [str(v) for v in (p.install_delay_ns, p.protocol.name, p.flows, p.redundant_packets,
                              p.mean_redundant_packets_per_flow, p.redundant_bytes,
                              p.total_flow_bytes, p.redundant_byte_percent)]
            for p in points
        ]
        assert list(csv.reader(hard_csv.splitlines()))[1:] == direct
        assert sum(p.redundant_packets for p in points if p.install_delay_ns) == 150

    def test_pool_is_no_larger_than_the_job_list(self, tmp_path, monkeypatch):
        # a stand-in pool: a real one would start all max_workers processes
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(campaign, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(campaign, "_worker_sizes", None)
        serial, _ = self.run(tmp_path, "s", {"experiments": ["rate"]})
        pooled, _ = self.run(tmp_path, "p", {"experiments": ["rate"], "workers": 100_000})
        assert sizes == [2]  # two cells, so two rate jobs
        for a, b in zip(sorted(serial), sorted(pooled)):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_outputs_match_the_recorded_digests(self, tmp_path):
        written, _ = self.run(tmp_path, "g")
        digests = {
            Path(w).name: hashlib.sha256(Path(w).read_bytes()).hexdigest() for w in written
        }
        assert digests == BASE_DIGESTS


# -- fuzzing the loader ---------------------------------------------------------

FUZZ_BASE = {
    **BASE,
    "trace": {"synthetic": {
        "flows": 400, "sizes": {"kind": "pareto", "alpha": 1.5, "min_size": 2},
        "ips": {"kind": "zipf", "skew": 1.2}, "ports": {"kind": "uniform"},
        "tcp_fraction": 0.8, "gaps": {"kind": "exponential", "mean_ms": 5},
        "duration_ms": 100, "seed": 1}},
    "randomize_keys_seed": 3,
    "timeouts": {"idle_ms": 500, "hard_ms": 1000},
    "install_delay_ms": 1,
    "overhead": {"delays_ms": [0, 5], "rate": "1"},
    "export": {"rate": "1/8", "format": "csv"},
    "output_dir": "out",
    "workers": 2,
}

# numbers of every kind the schema's own types would let through
numbers = st.one_of(
    st.sampled_from([1.0, 2.0, 0.5, 1e308, float("nan"), float("inf"), float("-inf"),
                     2**64, 10**400, -(10**400)]),
    st.integers(),
    st.floats(),
)
json_value = st.recursive(
    numbers | st.none() | st.booleans() | st.text(max_size=8)
    | st.sampled_from(["", ".", "1/8", "1e-400", "fixed", "pair"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6,
)


def node_paths(node, prefix=()):
    """Paths to every node under `node`, itself included, as key tuples."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from node_paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_config(draw):
    """FUZZ_BASE with a few leaves replaced by any JSON value or keys dropped."""
    cfg = json.loads(json.dumps(FUZZ_BASE))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(node_paths(cfg))
        drop = draw(st.integers(0, 3)) == 0
        if drop:
            paths = [p for p in paths if p and isinstance(p[-1], str)]
        else:
            paths = [p for p in paths if p and not isinstance(_at(cfg, p), (dict, list))]
        if not paths:
            continue
        *parent_path, last = draw(st.sampled_from(paths))
        parent = _at(cfg, parent_path)
        if drop:
            del parent[last]
        else:
            parent[last] = draw(numbers | json_value)
    return cfg


@settings(max_examples=200, deadline=None)
@given(cfg=mutated_config())
def test_any_config_loads_or_raises_a_config_error(tmp_path_factory, cfg):
    # loaded only, never run: a valid geometric p of 1e-12 asks for huge flows
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(cfg))  # NaN and infinities as JSON literals
    try:
        loaded = load_campaign(str(path))
    except ConfigError:
        return
    assert isinstance(loaded, CampaignConfig)
    ints = [loaded.seed, loaded.trials, loaded.workers]
    if loaded.synthetic is not None:
        ints += [loaded.synthetic.flow_count, loaded.synthetic.seed]
    assert all(type(v) is int for v in ints)
