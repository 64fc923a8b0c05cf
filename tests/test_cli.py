"""Command-line entry points: argument parsing, exit codes, outputs."""

import json

import pytest

from ofmon.cli import main, parse_duration_ns
from ofmon.campaign import ConfigError
from ofmon.model import flow_key_of
from ofmon.traceio import read_csv_trace, write_csv_trace

from helpers import random_trace


class TestDurations:
    @pytest.mark.parametrize(
        "text,ns",
        [
            ("15s", 15_000_000_000),
            ("100ms", 100_000_000),
            ("50us", 50_000),
            ("250000ns", 250_000),
            ("123", 123),
            ("2m", 120_000_000_000),
            ("1.5ms", 1_500_000),
        ],
    )
    def test_units(self, text, ns):
        assert parse_duration_ns(text) == ns

    @pytest.mark.parametrize("bad", ["", "10h", "ms", "ten ms"])
    def test_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_duration_ns(bad)


class TestGen:
    def test_synthetic_trace_is_deterministic(self, tmp_path, capsys):
        args = ["gen", "--flows", "200", "--sizes", "fixed:2", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(list(read_csv_trace(str(a)))) == 400
        out = capsys.readouterr().out
        assert "200 flows" in out

    def test_distribution_flags(self, tmp_path):
        args = ["gen", "--flows", "50", "--sizes", "pareto:1.5:2", "--ips", "zipf:1.2",
                "--ports", "uniform", "--gaps", "fixed:1ms", "--duration", "500ms",
                "--tcp-fraction", "1.0", "-o", str(tmp_path / "t.csv")]
        assert main(args) == 0
        trace = list(read_csv_trace(str(tmp_path / "t.csv")))
        assert len({flow_key_of(p) for p in trace}) == 50

    def test_randomize_mode(self, tmp_path):
        trace = random_trace(40, seed=2, packets_per_flow=2)
        src = tmp_path / "in.csv"
        write_csv_trace(trace, str(src))
        out = tmp_path / "rand.csv"
        assert main(["gen", "--randomize", str(src), "--seed", "9", "-o", str(out)]) == 0
        scrambled = list(read_csv_trace(str(out)))
        assert [p.timestamp_ns for p in scrambled] == [p.timestamp_ns for p in trace]
        assert {flow_key_of(p) for p in scrambled} != {flow_key_of(p) for p in trace}

    def test_needs_a_source(self, tmp_path, capsys):
        assert main(["gen", "-o", str(tmp_path / "x.csv")]) == 2
        assert "flows" in capsys.readouterr().err

    def test_bad_size_spec(self, tmp_path):
        assert main(["gen", "--flows", "5", "--sizes", "cauchy:1",
                     "-o", str(tmp_path / "x.csv")]) == 2


class TestSimulate:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv_trace(random_trace(300, seed=3, packets_per_flow=2), str(path))
        return str(path)

    def test_happy_path_jsonl(self, trace_path, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        code = main(["simulate", "--trace", trace_path, "--method", "hash",
                     "--rate", "1/8", "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        assert {"src_ip", "packets", "expiry"} <= set(rows[0])
        stdout = capsys.readouterr().out
        assert "300" in stdout  # flows seen
        assert "records" in stdout

    def test_csv_format(self, trace_path, tmp_path):
        out = tmp_path / "records.csv"
        assert main(["simulate", "--trace", trace_path, "--method", "ip-suffix",
                     "--rate", "1/4", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("src_ip,")

    def test_reports_realized_rate(self, trace_path, tmp_path, capsys):
        assert main(["simulate", "--trace", trace_path, "--method", "ip-suffix",
                     "--rate", "1/200", "--out", str(tmp_path / "r.jsonl")]) == 0
        assert "1/256" in capsys.readouterr().out

    def test_missing_trace_is_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--trace", str(tmp_path / "nope.csv"),
                     "--method", "hash", "--rate", "1/8",
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["0", "abc", "3/2", "1e-999999999"])
    def test_bad_rate_is_exit_2(self, trace_path, tmp_path, rate):
        assert main(["simulate", "--trace", trace_path, "--method", "hash",
                     "--rate", rate, "--out", str(tmp_path / "r.jsonl")]) == 2

    def test_tiny_rate_is_exit_0(self, trace_path, tmp_path, capsys):
        assert main(["simulate", "--trace", trace_path, "--method", "ip-suffix",
                     "--rate", "1e-400", "--out", str(tmp_path / "r.jsonl")]) == 0
        assert "1/4294967296" in capsys.readouterr().out

    def test_truncated_gzip_trace_is_exit_2_and_located(self, tmp_path, capsys):
        trace = tmp_path / "t.csv.gz"
        write_csv_trace(random_trace(3_000, seed=4), str(trace))
        data = trace.read_bytes()
        trace.write_bytes(data[: len(data) // 2])
        assert main(["simulate", "--trace", str(trace), "--method", "hash",
                     "--rate", "1/8", "--out", str(tmp_path / "r.jsonl")]) == 2
        assert "line " in capsys.readouterr().err

    def test_directory_as_trace_is_exit_2(self, tmp_path):
        assert main(["simulate", "--trace", str(tmp_path), "--method", "hash",
                     "--rate", "1/8", "--out", str(tmp_path / "r.jsonl")]) == 2
        assert main(["gen", "--randomize", str(tmp_path), "-o", str(tmp_path / "x.csv")]) == 2

    def test_malformed_trace_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len\n"
                       "0,1.2.3.4,5.6.7.8,1,2,ICMP,64\n")
        assert main(["simulate", "--trace", str(bad), "--method", "hash",
                     "--rate", "1/8", "--out", str(tmp_path / "r.jsonl")]) == 2


class TestCampaignCommand:
    def test_runs_and_writes(self, tmp_path, capsys):
        cfg = {
            "seed": 3,
            "trace": {"synthetic": {"flows": 150, "seed": 2}},
            "sampling": [{"method": "hash"}],
            "rates": ["1/4"],
            "trials": 2,
            "experiments": ["rate", "export"],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        assert main(["campaign", str(path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "rate_results.csv").exists()
        assert (out / "records_hash_source.jsonl").exists()

    def test_invalid_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1}))
        assert main(["campaign", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err

    def test_bad_worker_variable_is_exit_2_and_named(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 3,
            "trace": {"synthetic": {"flows": 10, "seed": 2}},
            "sampling": [{"method": "hash"}],
            "rates": ["1/4"],
            "trials": 1,
            "experiments": ["rate"],
        }))
        monkeypatch.setenv("OFMON_WORKERS", "abc")
        assert main(["campaign", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "OFMON_WORKERS" in err
        assert "abc" in err

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["campaign", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "r")]) == 2
