"""Campaign loading, validation, outputs, and rerun determinism."""

import concurrent.futures
import csv
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
from ofmon.controller import ControllerConfig
from ofmon.evaluation import run_overhead_experiment
from ofmon.model import flow_key_of
from ofmon.sampling import SamplingConfig, SamplingMethod, SamplingMode, generate_rules
from ofmon.simulate import sample_flows
from ofmon.traceio import ParetoDiscrete, SyntheticSpec, write_csv_trace

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

# SHA-256 of every file an export-only campaign writes at rate 1/4, one
# record file per sampling entry
EXPORT_DIGESTS = {
    "manifest.json": "7d477f76aa550d935929f22fa68c90f049d61149e6caf3636f7a08c3f80016fe",
    "records_hash_source.csv": "f48ae4244028dd38ada54158361a1c068c371512c14ad6fd952ff54ce6c23dd2",
    "records_ip-suffix_pair.csv":
        "910834999e5675cce1f876cf837b527d170b3f0ce60306de0813428f1fa03d78",
    "records_ip-suffix_source.csv":
        "558f9558690b61712c0658ea5bd49b5c6e3786b86d5fa2466989af8b126400fb",
    "records_port_pair.csv": "f734131b91e1b09928c7fed660edf8ae9c5849aed4085954d5710b8adfe47459",
    "records_port_source.csv": "471f5748ed7ca8c86033b7ece23880785e346393da73c9d07866f7e93eae445b",
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
                                     "\u0661/\u0666\u0664", "1_0/640", " 1/8 ", "1/8\n",
                                     "1e1.5", "1e"])
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
            # numbers JSON admits but the campaign cannot use
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
            # a mean gap whose largest draw overflows a float
            ({"trace": {"synthetic": {"flows": 5, "gaps": {"kind": "exponential",
                                                          "mean_ms": 1e302}}}}, ()),
            ({"trace": {"csv": ""}}, ()),  # the config's own directory
            # sizes whose draw would divide by zero
            ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "geometric", "p": 1e-17}}}},
             ()),
            ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "pareto", "alpha": 1e-300}}}},
             ()),
            ({"trace": {}}, ()),
            ({"trace": {"csv": "t.csv", "synthetic": {"flows": 5}}}, ()),
            ({"sampling": [{"method": "hash", "weight": 1}]}, ()),
            ({"sampling": [{"method": "hash", "mode": "both"}]}, ()),
            ({"experiments": "rate"}, ()),
            ({"trace": {"synthetic": {"flows": 5, "tcp_fraction": 1.5}}}, ()),
            ({"trace": {"synthetic": {"flows": 5, "duration_ms": 0}}}, ()),
            ({"timeouts": {"hard_ms": -1}}, ()),
            ({"export": {"format": "xml"}}, ()),
            ({"output_dir": 3}, ()),
            ({"randomize_keys_seed": "3"}, ()),
            ({"seed": True}, ()),
            # a kind that cannot be hashed, and an int too large for a float
            ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": ["geometric"]}}}}, ()),
            ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "pareto", "alpha": 10**400}}}},
             ()),
            # a nanosecond count past the int-to-str digit limit
            ({"overhead": {"delays_ms": [0, int("9" * 4299)]}}, ()),
        ],
    )
    def test_invalid_configs(self, tmp_path, overrides, drop):
        with pytest.raises(ConfigError):
            load_campaign(write_config(tmp_path, overrides, drop))

    def test_a_root_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="invalid at <root>: "):
            load_campaign(str(path))

    @pytest.mark.parametrize("overrides,drop,where", [
        ({}, ("seed",), "<root>: 'seed' is required"),
        ({"unknown_key": 1}, (), "unknown_key: unknown key"),
        ({"seed": True}, (), "seed: True is not an integer"),
        ({"trace": {}}, (), "trace: "),
        ({"trace": {"csv": "t.csv", "synthetic": {"flows": 5}}}, (), "trace: "),
        ({"trace": {"csv": "no-such-file.csv"}}, (), "trace/csv: trace not found"),
        ({"trace": {"synthetic": {"flows": 5, "tcp_fraction": 1.5}}}, (),
         "trace/synthetic/tcp_fraction: "),
        ({"trace": {"synthetic": {"flows": 5, "duration_ms": 0}}}, (),
         "trace/synthetic/duration_ms: "),
        ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": ["geometric"]}}}}, (),
         "trace/synthetic/sizes/kind: "),
        ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "pareto", "alpha": 10**400}}}},
         (), "trace/synthetic/sizes: "),
        ({"trace": {"synthetic": {"flows": 5, "ips": {"kind": "zipf"}}}}, (),
         "trace/synthetic/ips: 'skew' is required"),
        ({"trace": {"synthetic": {"flows": 5, "gaps": {"kind": "fixed", "mean_ms": 1}}}}, (),
         "trace/synthetic/gaps/mean_ms: unknown key"),
        ({"sampling": [{"method": "hash", "weight": 1}]}, (), "sampling/0/weight: unknown key"),
        ({"sampling": [{"method": "hash"}, {"method": "port", "mode": "both"}]}, (),
         "sampling/1/mode: "),
        ({"experiments": "rate"}, (), "experiments: "),
        ({"experiments": ["rate", "wmrd", "rate"]}, (), "experiments/2: same as experiments/0"),
        ({"timeouts": {"hard_ms": -1}}, (), "timeouts/hard_ms: "),
        ({"timeouts": {"idle_ms": 100, "hard_ms": 50}}, (), "timeouts: "),
        # a positive value that rounds to 0 ns
        ({"timeouts": {"hard_ms": 1e-7}}, (), "timeouts/hard_ms: 1e-07 ms rounds to 0 ns"),
        ({"timeouts": {"idle_ms": 1e-7}}, (), "timeouts/idle_ms: 1e-07 ms rounds to 0 ns"),
        ({"trace": {"synthetic": {"flows": 5, "duration_ms": 1e-7}}}, (),
         "trace/synthetic/duration_ms: 1e-07 ms rounds to 0 ns"),
        ({"trace": {"synthetic": {"flows": 5, "gaps": {"kind": "exponential",
                                                      "mean_ms": 1e-7}}}}, (),
         "trace/synthetic/gaps/mean_ms: 1e-07 ms rounds to 0 ns"),
        ({"trace": {"synthetic": {"flows": 5, "gaps": {"kind": "fixed", "gap_ms": 1e-7}}}},
         (), "trace/synthetic/gaps/gap_ms: 1e-07 ms rounds to 0 ns"),
        ({"install_delay_ms": 1e-7}, (), "install_delay_ms: 1e-07 ms rounds to 0 ns"),
        ({"overhead": {"delays_ms": [0, 1e-7]}}, (),
         "overhead/delays_ms/1: 1e-07 ms rounds to 0 ns"),
        ({"install_delay_ms": 1e308}, (), "install_delay_ms: 1e+308 ms is out of range"),
        ({"overhead": {"delays_ms": [0, 1e303]}}, (), "overhead/delays_ms/1: "),
        # one past the largest millisecond count a signed 64-bit ns clock holds
        ({"overhead": {"delays_ms": [0, 9_223_372_036_855]}}, (),
         "overhead/delays_ms/1: 9223372036855 ms is out of range"),
        ({"install_delay_ms": 9_223_372_036_855}, (),
         "install_delay_ms: 9223372036855 ms is out of range"),
        ({"timeouts": {"idle_ms": 9_223_372_036_855}}, (),
         "timeouts/idle_ms: 9223372036855 ms is out of range"),
        ({"timeouts": {"hard_ms": 9_223_372_036_855}}, (),
         "timeouts/hard_ms: 9223372036855 ms is out of range"),
        ({"trace": {"synthetic": {"flows": 5, "duration_ms": 9_223_372_036_855}}}, (),
         "trace/synthetic/duration_ms: 9223372036855 ms is out of range"),
        ({"trace": {"synthetic": {"flows": 5, "gaps": {"kind": "exponential",
                                                      "mean_ms": 9_223_372_036_855}}}}, (),
         "trace/synthetic/gaps/mean_ms: 9223372036855 ms is out of range"),
        ({"trace": {"synthetic": {"flows": 5, "gaps": {"kind": "fixed",
                                                      "gap_ms": 9_223_372_036_855}}}}, (),
         "trace/synthetic/gaps/gap_ms: 9223372036855 ms is out of range"),
        ({"export": {"format": "xml"}}, (), "export/format: "),
        ({"output_dir": 3}, (), "output_dir: "),
        ({"randomize_keys_seed": "3"}, (), "randomize_keys_seed: "),
        ({"workers": 2}, (), "workers: "),
        ({"output_dir": "out"}, (), "output_dir: "),
    ])
    def test_a_fault_names_its_path(self, tmp_path, overrides, drop, where):
        with pytest.raises(ConfigError, match=f"^campaign config invalid at {re.escape(where)}"):
            load_campaign(write_config(tmp_path, overrides, drop))

    @pytest.mark.parametrize("overrides,read,expected", [
        ({"trace": {"synthetic": {"flows": 5, "tcp_fraction": 0}}},
         lambda c: c.synthetic.tcp_fraction, 0),
        ({"trace": {"synthetic": {"flows": 5, "tcp_fraction": 1}}},
         lambda c: c.synthetic.tcp_fraction, 1),
        ({"timeouts": {"hard_ms": 0}}, lambda c: c.controller.hard_timeout_ns, 0),
        ({"install_delay_ms": 0}, lambda c: c.controller.install_delay_ns, 0),
        ({"trace": {"synthetic": {"flows": 5, "sizes": {"kind": "pareto", "alpha": 1.5}}}},
         lambda c: c.synthetic.size_distribution, ParetoDiscrete(1.5, min_size=1)),
        ({"sampling": [{"method": "port"}]}, lambda c: c.sampling,
         ((SamplingMethod.PORT_BASED, SamplingMode.SOURCE_ONLY),)),
        ({"trace": {"synthetic": {"flows": 5, "duration_ms": 1e-6}}},
         lambda c: c.synthetic.duration_ns, 1),
        ({"timeouts": {"idle_ms": 9_223_372_036_854}},
         lambda c: c.controller.idle_timeout_ns, 9_223_372_036_854_000_000),
    ])
    def test_edge_values_load(self, tmp_path, overrides, read, expected):
        assert read(load_campaign(write_config(tmp_path, overrides))) == expected

    def test_absent_keys_take_the_class_defaults(self, tmp_path):
        cfg = load_campaign(write_config(tmp_path, {"trace": {"synthetic": {"flows": 5}}}))
        assert cfg.synthetic == SyntheticSpec(flow_count=5)
        assert cfg.controller == ControllerConfig()

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

    @pytest.mark.parametrize("overrides,where", [
        ({"sampling": [{"method": "hash"}, {"method": "hash", "mode": "source"}]}, "sampling/1"),
        ({"sampling": [{"method": "port"}, {"method": "hash"}, {"method": "port"}]},
         "sampling/2"),
        ({"rates": ["1/4", "0.25"]}, "rates/1"),
        ({"rates": ["1/8", "1/4", "2.5e-1"]}, "rates/2"),
        # 5.0000000001 ms rounds to 5,000,000 ns
        ({"overhead": {"delays_ms": [5, 5.0, 5.0000000001]}},
         "at overhead/delays_ms/1: same as overhead/delays_ms/0$"),
        ({"overhead": {"delays_ms": [0, 5, 5.0000000001]}},
         "at overhead/delays_ms/2: same as overhead/delays_ms/1$"),
    ])
    def test_a_repeated_cell_coordinate_names_its_path(self, tmp_path, overrides, where):
        with pytest.raises(ConfigError, match=where):
            load_campaign(write_config(tmp_path, overrides))

    def test_unreadable_and_unparsable_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_campaign(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_campaign(str(bad))


@pytest.fixture()
def pool(monkeypatch):
    """Runs the campaign's process pool in this process; lists the size of
    each pool and the jobs each pool's map receives, in dispatch order."""
    seen = SimpleNamespace(sizes=[], jobs=[])

    class InProcessPool:  # a real pool would start all max_workers processes
        def __init__(self, max_workers, initializer, initargs):
            seen.sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            seen.jobs.append(list(jobs))
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(campaign, "_worker_sizes", None)
    return seen


# every kind of cell, the port cells listed last; at 1/4 a port pair cell
# draws 2 x 32,768 ports a trial, and port source at 1/4 and port pair at
# 1/64 draw 16,384 each
ALL_CELL_KINDS = {
    "sampling": [{"method": "hash"}, {"method": "ip-suffix", "mode": "source"},
                 {"method": "port", "mode": "source"}, {"method": "port", "mode": "pair"}],
    "rates": ["1/4", "1/64"],
    "experiments": ["rate", "wmrd"],
}


class TestRunCampaign:
    def run(self, tmp_path, name, overrides=None, workers=1):
        cfg = load_campaign(write_config(tmp_path, overrides, name=f"{name}.json"))
        out = tmp_path / name
        return run_campaign(cfg, str(out), workers, **QUIET), out

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

    def test_an_empty_csv_trace_under_wmrd_is_named_before_any_cell_runs(self, tmp_path):
        (tmp_path / "empty.csv").write_text("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len\n")
        overrides = {"trace": {"csv": "empty.csv"}, "experiments": ["rate", "wmrd"]}
        with pytest.raises(ConfigError, match="at trace/csv: .*empty.csv holds no packets"):
            self.run(tmp_path, "e", overrides)
        assert not any((tmp_path / "e").iterdir())

    def test_a_malformed_csv_trace_names_its_file_and_config_path(self, tmp_path):
        (tmp_path / "bad.csv").write_text("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len\n"
                                          "0,1.2.3.4,5.6.7.8,1,2,TCP,64\n"
                                          "1,1.2.3.4,5.6.7.8,1,2,XYZ,64\n")
        overrides = {"trace": {"csv": "bad.csv"}}
        with pytest.raises(ConfigError, match="at trace/csv: .*bad.csv: line 3: "):
            self.run(tmp_path, "m", overrides)

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
        # BASE has no port cell, so only ALL_CELL_KINDS reorders the dispatch
        for name, overrides in (("base", {}), ("kinds", ALL_CELL_KINDS)):
            serial, _ = self.run(tmp_path, f"{name}-w1", overrides)
            pooled, _ = self.run(tmp_path, f"{name}-w2", overrides, workers=2)
            assert [Path(a).name for a in sorted(serial)] == [Path(b).name for b in sorted(pooled)]
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
        digest = hashlib.sha256((out / "overhead_results.csv").read_bytes()).hexdigest()
        assert digest == "d39e5cc51ec0fcaca3e223eff4273188b380458fc3b518ae0f4319dbcd13f83d"

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
        every_flow = generate_rules(SamplingConfig(SamplingMethod.IP_SUFFIX))
        points = run_overhead_experiment(
            sample_flows(hard_config.load_trace(), every_flow), hard_config.overhead_delays_ns,
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

    def test_pool_is_no_larger_than_the_job_list(self, tmp_path, pool):
        serial, _ = self.run(tmp_path, "s", {"experiments": ["rate"]})
        pooled, _ = self.run(tmp_path, "p", {"experiments": ["rate"]}, workers=100_000)
        assert pool.sizes == [2]  # two cells, so two rate jobs
        for a, b in zip(sorted(serial), sorted(pooled)):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_one_pool_runs_the_cells_of_every_trial_experiment(self, tmp_path, pool):
        experiments = {"experiments": ["wmrd", "rate"]}
        serial, _ = self.run(tmp_path, "s", experiments)
        lines = []
        cfg = load_campaign(write_config(tmp_path, experiments))
        pooled = run_campaign(cfg, str(tmp_path / "p"), workers=100_000, progress=lines.append)
        assert pool.sizes == [4]  # two cells of each experiment
        assert lines == ["trace ready: 800 packets", "rate experiment done: 2 cells",
                         "wmrd experiment done: 2 cells"]
        for a, b in zip(sorted(serial), sorted(pooled)):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_pool_takes_the_cells_that_draw_the_most_ports_first(self, tmp_path, pool):
        serial, _ = self.run(tmp_path, "s", ALL_CELL_KINDS)
        pooled, _ = self.run(tmp_path, "p", ALL_CELL_KINDS, workers=2)
        dispatched, = pool.jobs
        # equal costs keep the config order: experiment, then sampling entry, then rate
        assert [(e, m.value, mo.value, str(r)) for e, m, mo, r, *_ in dispatched] == [
            ("rate", "port", "pair", "1/4"),
            ("wmrd", "port", "pair", "1/4"),
            ("rate", "port", "source", "1/4"),
            ("rate", "port", "pair", "1/64"),
            ("wmrd", "port", "source", "1/4"),
            ("wmrd", "port", "pair", "1/64"),
            ("rate", "port", "source", "1/64"),
            ("wmrd", "port", "source", "1/64"),
            *((experiment, method, "source", rate)
              for experiment in ("rate", "wmrd")
              for method in ("hash", "ip-suffix")
              for rate in ("1/4", "1/64")),
        ]
        for a, b in zip(sorted(serial), sorted(pooled)):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    @staticmethod
    def digests(written):
        return {Path(w).name: hashlib.sha256(Path(w).read_bytes()).hexdigest() for w in written}

    def test_outputs_match_the_recorded_digests(self, tmp_path):
        written, _ = self.run(tmp_path, "g")
        assert self.digests(written) == BASE_DIGESTS

    def test_exports_of_every_sampling_entry_match_the_recorded_digests(self, tmp_path):
        written, _ = self.run(tmp_path, "x", {
            "sampling": [{"method": "hash"}, {"method": "ip-suffix", "mode": "source"},
                         {"method": "ip-suffix", "mode": "pair"},
                         {"method": "port", "mode": "source"}, {"method": "port", "mode": "pair"}],
            "experiments": ["export"],
            "export": {"rate": "1/4", "format": "csv"},
        })
        assert self.digests(written) == EXPORT_DIGESTS

    def test_the_trace_is_grouped_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_flows(*args)

        monkeypatch.setattr(campaign, "sample_flows", counted)
        self.run(tmp_path, "once")
        assert len(calls) == 1


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
}

# numbers of every kind JSON can spell, the ones the campaign rejects included
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
    ints = [loaded.seed, loaded.trials]
    if loaded.synthetic is not None:
        ints += [loaded.synthetic.flow_count, loaded.synthetic.seed]
    assert all(type(v) is int for v in ints)
