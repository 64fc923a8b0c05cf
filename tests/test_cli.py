"""Command-line entry points: argument parsing, exit codes, outputs."""

import concurrent.futures
import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ofmon import campaign
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
            ("9007199254740993", 9_007_199_254_740_993),  # 2**53 + 1: exact, not via float
            ("9007199254740.993us", 9_007_199_254_740_993),
        ],
    )
    def test_units(self, text, ns):
        assert parse_duration_ns(text) == ns

    @pytest.mark.parametrize("bad", ["", "10h", "ms", "ten ms", "\uff15ms", "\u0661s", "1_0ms",
                                     " 1s", "1s\n"])
    def test_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_duration_ns(bad)


def exit_code(argv):
    """main's exit code, argparse's own exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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

    @pytest.mark.parametrize("flag,value", [
        ("--flows", "5"), ("--sizes", "fixed:3"), ("--ips", "uniform"), ("--ports", "uniform"),
        ("--tcp-fraction", "0.5"), ("--gaps", "fixed:1ms"), ("--duration", "1s"),
    ])
    def test_randomize_rejects_the_synthetic_flags(self, tmp_path, capsys, flag, value):
        src, out = tmp_path / "in.csv", tmp_path / "rand.csv"
        write_csv_trace(random_trace(5, seed=2), str(src))
        assert main(["gen", "--randomize", str(src), flag, value, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()

    def test_needs_a_source(self, tmp_path, capsys):
        assert main(["gen", "-o", str(tmp_path / "x.csv")]) == 2
        assert "flows" in capsys.readouterr().err

    @pytest.mark.parametrize("out,problem", [
        ("nowhere/g.csv", "-o: no directory "), (".", "-o: "), ("", "-o: empty path"),
    ])
    def test_unwritable_output_is_exit_2_before_the_work(self, tmp_path, capsys, out, problem):
        # a bad size spec too: the output is checked first
        assert main(["gen", "--flows", "3", "--sizes", "cauchy:1",
                     "-o", str(tmp_path / out) if out else ""]) == 2
        assert capsys.readouterr().err.startswith(f"error: {problem}")

    def test_bad_size_spec(self, tmp_path):
        assert main(["gen", "--flows", "5", "--sizes", "cauchy:1",
                     "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("sizes", ["geometric:1e-17", "pareto:1e-300", "pareto:0.05"])
    def test_sizes_whose_draw_divides_by_zero_are_exit_2(self, tmp_path, capsys, sizes):
        assert main(["gen", "--flows", "3", "--sizes", sizes, "-o", str(tmp_path / "x.csv")]) == 2
        assert "--sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("mean", ["9" * 400, "1" + "0" * 309, "5" + "0" * 306],
                             ids=["400-nines", "1e309", "5e306"])
    def test_gaps_whose_draw_overflows_a_float_are_exit_2(self, tmp_path, capsys, mean):
        assert main(["gen", "--flows", "3", "--gaps", "exp:" + mean,
                     "-o", str(tmp_path / "x.csv")]) == 2
        assert "--gaps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--flows", "\uff13"), ("--flows", "1_0"), ("--seed", "\u0663"), ("--seed", "+3"),
        ("--tcp-fraction", "\u0660.5"), ("--tcp-fraction", " 0.5"), ("--tcp-fraction", "nan"),
        ("--sizes", "fixed:\u0663"), ("--sizes", "geometric:0_5"), ("--sizes", "pareto:1.5:\uff12"),
        ("--ips", "zipf:\u0661.2"), ("--ports", "zipf: 1.2"), ("--gaps", "exp:\uff15ms"),
        ("--gaps", "fixed:1_0ms"), ("--duration", "\uff15s"), ("--duration", " 1s"),
    ])
    def test_numbers_take_ascii_digits_only(self, tmp_path, capsys, flag, value):
        args = {"--flows": "3", flag: value, "-o": str(tmp_path / "x.csv")}
        assert exit_code(["gen", *(text for pair in args.items() for text in pair)]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--flows", "0"), ("--tcp-fraction", "2"), ("--duration", "0"),
        ("--gaps", "poisson:1ms"), ("--ips", "zipf"), ("--ports", "pareto:1"),
        ("--duration", "0.4ns"), ("--gaps", "exp:0.4ns"), ("--gaps", "fixed:0.4ns"),
    ])
    def test_value_the_spec_rejects_names_its_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        args = {"--flows": "3", flag: value, "-o": str(out)}
        assert main(["gen", *(text for pair in args.items() for text in pair)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()


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

    def test_runtime_failure_is_exit_1_without_a_traceback(self, trace_path, tmp_path, capsys):
        with mock.patch("ofmon.cli.replay_flows", side_effect=RuntimeError("boom")):
            assert main(["simulate", "--trace", trace_path, "--method", "hash",
                         "--rate", "1/8", "--out", str(tmp_path / "r.jsonl")]) == 1
        assert capsys.readouterr().err == "error: boom\n"

    def test_reports_realized_rate(self, trace_path, tmp_path, capsys):
        assert main(["simulate", "--trace", trace_path, "--method", "ip-suffix",
                     "--rate", "1/200", "--out", str(tmp_path / "r.jsonl")]) == 0
        assert "1/256" in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["trace.csv", "./trace.csv"])
    def test_out_naming_the_trace_is_exit_2_and_keeps_the_trace(
        self, trace_path, tmp_path, monkeypatch, capsys, out
    ):
        monkeypatch.chdir(tmp_path)
        before = Path(trace_path).read_bytes()
        assert main(["simulate", "--trace", "trace.csv", "--method", "hash",
                     "--rate", "1", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: --out: {out} is the --trace file\n"
        assert Path(trace_path).read_bytes() == before

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

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "\u0663"), ("--seed", "\u0661_0"), ("--delay", "\uff15ms"), ("--idle", "\u0661s"),
        ("--hard", "20_0s"), ("--rate", "\u0661/\u0666\u0664"), ("--rate", "1_0/640"),
        ("--rate", " 1/8 "),
    ])
    def test_numbers_take_ascii_digits_only(self, trace_path, tmp_path, capsys, flag, value):
        args = {"--method": "hash", "--rate": "1/8", flag: value}
        argv = ["simulate", "--trace", trace_path, "--out", str(tmp_path / "r.jsonl"),
                *(text for pair in args.items() for text in pair)]
        assert exit_code(argv) == 2
        assert flag in capsys.readouterr().err

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
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("out,problem", [
        ("nowhere/r.jsonl", "--out: no directory "), ("bad.csv/r.jsonl", "--out: no directory "),
        (".", "--out: "), ("", "--out: empty path"),
    ])
    def test_unwritable_out_is_exit_2_before_the_replay(self, tmp_path, capsys, out, problem):
        # a malformed trace too: the output is checked before the trace is read
        bad = tmp_path / "bad.csv"
        bad.write_text("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len\n"
                       "0,1.2.3.4,5.6.7.8,1,2,ICMP,64\n")
        assert main(["simulate", "--trace", str(bad), "--method", "hash",
                     "--rate", "1/8", "--out", str(tmp_path / out) if out else ""]) == 2
        assert capsys.readouterr().err.startswith(f"error: {problem}")

    @pytest.mark.parametrize("flags,named", [
        (["--idle", "0"], "--idle"), (["--hard", "5ms"], "--hard"),
        (["--idle", "20s", "--hard", "10s"], "--hard"),
        # a positive duration that rounds to 0 ns
        (["--hard", "0.4ns"], "--hard"), (["--idle", "0.4ns"], "--idle"),
        (["--delay", "0.5ns"], "--delay"),
    ])
    def test_timeout_the_controller_rejects_names_its_flag(self, tmp_path, capsys, flags, named):
        # a malformed trace too: the timeouts are checked before the trace is read
        bad = tmp_path / "bad.csv"
        bad.write_text("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len\n"
                       "0,1.2.3.4,5.6.7.8,1,2,ICMP,64\n")
        assert main(["simulate", "--trace", str(bad), "--method", "hash", "--rate", "1/8",
                     "--out", str(tmp_path / "r.jsonl"), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")

    def test_padded_protocol_is_exit_2_and_located(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len\n"
                        "0,1.2.3.4,5.6.7.8,1,2,\u00a0tcp\u3000,64\n".encode())
        assert main(["simulate", "--trace", str(bad), "--method", "hash",
                     "--rate", "1/8", "--out", str(tmp_path / "r.jsonl")]) == 2
        assert "line 2: unsupported protocol" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["src_ip", "dst_ip"])
    @pytest.mark.parametrize("bad", [
        "010.0.0.1", "\uff11.2.3.4", "1.2.3.4/32", " 1.2.3.4", "1.2.3.256",
    ])
    def test_bad_address_is_exit_2_and_names_its_field(self, tmp_path, capsys, field, bad):
        fields = ["0", "1.2.3.4", "5.6.7.8", "1", "2", "TCP", "64"]
        fields[1 if field == "src_ip" else 2] = bad
        trace = tmp_path / "bad.csv"
        trace.write_bytes(("ts_ns,src_ip,dst_ip,src_port,dst_port,proto,len\n"
                           + ",".join(fields) + "\n").encode())
        assert main(["simulate", "--trace", str(trace), "--method", "hash",
                     "--rate", "1/8", "--out", str(tmp_path / "r.jsonl")]) == 2
        assert f"line 2: {field} " in capsys.readouterr().err


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

    def test_output_directory_that_cannot_be_made_is_exit_2_and_named(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = {
            "seed": 3,
            "trace": {"synthetic": {"flows": 10, "seed": 2}},
            "sampling": [{"method": "hash"}],
            "rates": ["1/4"],
            "trials": 1,
            "experiments": ["rate"],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", str(path), "--out", str(blocker)]) == 2
        assert "--out: cannot create directory " in capsys.readouterr().err

    def test_empty_out_is_exit_2_and_no_out_writes_campaign_out(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({
            "seed": 3,
            "trace": {"synthetic": {"flows": 10, "seed": 2}},
            "sampling": [{"method": "hash"}],
            "rates": ["1/4"],
            "trials": 1,
            "experiments": ["rate"],
        }))
        assert main(["campaign", "c.json", "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out: empty path\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        assert main(["campaign", "c.json"]) == 0
        assert (tmp_path / "campaign_out" / "manifest.json").exists()

    def test_invalid_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1}))
        assert main(["campaign", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("overrides,where", [
        ({"colour": "red"}, "at colour: unknown key"),
        ({"trials": 2.0}, "at trials: 2.0 is not an integer"),
        ({"install_delay_ms": 1e303}, "at install_delay_ms: 1e+303 ms is out of range"),
    ])
    def test_invalid_config_is_exit_2_and_names_its_path(self, tmp_path, capsys, overrides,
                                                          where):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 3,
            "trace": {"synthetic": {"flows": 10, "seed": 2}},
            "sampling": [{"method": "hash"}],
            "rates": ["1/4"],
            "trials": 1,
            "experiments": ["rate"],
            **overrides,
        }))
        assert main(["campaign", str(path), "--out", str(tmp_path / "r")]) == 2
        assert f"campaign config invalid {where}" in capsys.readouterr().err

    def test_environment_does_not_set_the_worker_count(self, tmp_path, monkeypatch):
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
        assert main(["campaign", str(path), "--out", str(tmp_path / "r"), "--workers", "1"]) == 0
        assert main(["campaign", str(path), "--out", str(tmp_path / "s")]) == 0

    def test_worker_count_takes_ascii_digits_only(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 3,
            "trace": {"synthetic": {"flows": 10, "seed": 2}},
            "sampling": [{"method": "hash"}],
            "rates": ["1/4"],
            "trials": 1,
            "experiments": ["rate"],
        }))
        assert exit_code(["campaign", str(path), "--workers", "\u0661"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["campaign", str(path), "--workers", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: --workers: ")

    def test_repeated_overhead_delay_is_exit_2_and_named(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 3,
            "trace": {"synthetic": {"flows": 10, "seed": 2}},
            "sampling": [{"method": "hash"}],
            "rates": ["1"],
            "trials": 1,
            "experiments": ["overhead"],
            "overhead": {"delays_ms": [5, 5.0, 5.0000000001]},
        }))
        assert main(["campaign", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "overhead/delays_ms/1: same as overhead/delays_ms/0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["campaign", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "r")]) == 2


# -- fuzzing main() -------------------------------------------------------------

@st.composite
def spelled(draw, plain: str):
    """`plain` as is, or with other scripts' digits, '_', signs or spaces mixed in."""
    text = plain
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        if text[i:i + 1].isdigit() and draw(st.booleans()):  # Arabic-Indic, Persian, fullwidth
            digit = chr(draw(st.sampled_from([0x660, 0x6F0, 0xFF10])) + int(text[i]))
            text = text[:i] + digit + text[i + 1:]
        else:
            text = text[:i] + draw(st.sampled_from(["_", "+", "-", " "])) + text[i:]
    return text


def integers(lo, hi):
    return st.integers(lo, hi).flatmap(lambda n: spelled(str(n)))


def reals(*ranges):
    return st.one_of(*(st.floats(lo, hi) for lo, hi in ranges)).flatmap(lambda x: spelled(repr(x)))


@pytest.mark.parametrize("seed", [-1, 2**64])
class TestSeedsOutOfRange:
    """A seed outside [0, 2**64) would run as some seed inside it, so every
    entry point rejects it before the work, exits 2 and names where it was given."""

    def test_simulate(self, tmp_path, capsys, seed):
        trace, out = tmp_path / "t.csv", tmp_path / "r.jsonl"
        write_csv_trace(random_trace(5, seed=1), str(trace))
        assert main(["simulate", "--trace", str(trace), "--method", "port", "--rate", "1/4",
                     "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --seed: ")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flows", "randomize"])
    def test_gen(self, tmp_path, capsys, seed, source):
        trace, out = tmp_path / "t.csv", tmp_path / "g.csv"
        write_csv_trace(random_trace(5, seed=1), str(trace))
        given = ["--flows", "5"] if source == "flows" else ["--randomize", str(trace)]
        assert main(["gen", *given, "--seed", str(seed), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --seed: ")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["seed", "trace/synthetic/seed", "randomize_keys_seed"])
    def test_campaign(self, tmp_path, capsys, seed, where):
        cfg = {
            "seed": 3,
            "trace": {"synthetic": {"flows": 10, "seed": 2}},
            "sampling": [{"method": "port"}],
            "rates": ["1/4"],
            "trials": 1,
            "experiments": ["rate"],
        }
        *parents, leaf = where.split("/")
        node = cfg
        for key in parents:
            node = node[key]
        node[leaf] = seed
        path, out = tmp_path / "c.json", tmp_path / "results"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", str(path), "--out", str(out)]) == 2
        assert f"invalid at {where}: seed {seed} is outside" in capsys.readouterr().err
        assert not out.exists()


durations = st.tuples(
    st.integers(0, 10**4), st.sampled_from(["", ".5", ".25"]),
    st.sampled_from(["", "ns", "us", "ms", "s", "m", "h"]),
).flatmap(lambda t: spelled("".join(map(str, t))))
rates = st.sampled_from(["1", "1/8", "3/7", "0.25", "1/64", "1e-400", "0", "3/2", "1e-999999999"]
                        ).flatmap(spelled)
seeds = integers(-(2**70), 2**70)
# The generator builds what it is asked for, so a valid parameter with a huge
# mean is a huge trace, not malformed input.  Valid parameters are drawn with
# small means only (at most 4 flows), invalid ones from every side.
size_tokens = st.one_of(
    reals((0.3, 1.0), (0.0, 2.0**-54), (-1.0, 0.0), (1.0, 2.0)).map("geometric:".__add__),
    st.tuples(reals((1.5, 5.0), (0.0, 0.05), (-1.0, 0.0)), integers(1, 3)).map(
        lambda t: f"pareto:{t[0]}:{t[1]}"),
    integers(0, 3).map("fixed:".__add__),
    st.sampled_from(["cauchy:1", "geometric:", "pareto:", "fixed"]),
)
key_tokens = st.one_of(
    st.just("uniform"), reals((0.5, 3.0), (-1.0, 0.0)).map("zipf:".__add__), st.just("zipf"))
gap_tokens = st.tuples(st.sampled_from(["exp:", "fixed:", "poisson:"]), durations).map("".join)


def options(**strategies):
    """Each flag with probability one half, flattened into argv words."""
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda flags: [word for flag, value in flags.items()
                       for word in ("--" + flag.replace("_", "-"), value)])


class InProcessPool:
    """Stands in for the campaign's process pool, which would start real processes."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def assert_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", InProcessPool), \
            mock.patch.object(campaign, "_worker_sizes", None):
        code = exit_code(argv)
    event(f"exit {code}")
    assert code in (0, 2), (argv, err.getvalue())


@settings(max_examples=300, deadline=None)
@given(flows=integers(0, 4), sizes=size_tokens, randomize=st.booleans(),
       args=options(ips=key_tokens, ports=key_tokens, tcp_fraction=reals((-0.5, 1.5)),
                    gaps=gap_tokens, duration=durations, seed=seeds))
def test_gen_exits_0_or_2(tmp_path_factory, flows, sizes, args, randomize):
    work = tmp_path_factory.getbasetemp()
    if randomize:
        write_csv_trace(random_trace(4, seed=1, packets_per_flow=2), str(work / "in.csv"))
        args += ["--randomize", str(work / "in.csv")]
    else:
        args += ["--flows", flows, "--sizes", sizes]
    assert_exit_0_or_2(["gen", *args, "-o", str(work / "gen.csv")])


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(["hash", "ip-suffix", "port"]), rate=rates,
       args=options(mode=st.sampled_from(["source", "pair"]), idle=durations, hard=durations,
                    delay=durations, seed=seeds, format=st.sampled_from(["jsonl", "csv"])))
def test_simulate_exits_0_or_2(tmp_path_factory, method, rate, args):
    work = tmp_path_factory.getbasetemp()
    write_csv_trace(random_trace(6, seed=2, packets_per_flow=3), str(work / "sim.csv"))
    assert_exit_0_or_2(["simulate", "--trace", str(work / "sim.csv"), "--method", method,
                        "--rate", rate, "--out", str(work / "records"), *args])


@settings(max_examples=200, deadline=None)
@given(sampling=st.lists(st.sampled_from(["hash", "ip-suffix", "port"]), min_size=1,
                         max_size=2, unique=True),
       rate_list=st.lists(rates, min_size=1, max_size=2),
       experiments=st.lists(st.sampled_from(["rate", "wmrd", "overhead", "export"]),
                            min_size=1, max_size=4, unique=True),
       overhead_rate=rates, export_rate=rates, args=options(workers=integers(0, 2)))
def test_campaign_exits_0_or_2(tmp_path_factory, sampling, rate_list, experiments,
                               overhead_rate, export_rate, args):
    work = tmp_path_factory.getbasetemp()
    (work / "c.json").write_text(json.dumps({
        "seed": 1,
        "trace": {"synthetic": {"flows": 5, "seed": 2}},
        "sampling": [{"method": m} for m in sampling],
        "rates": rate_list,
        "trials": 2,
        "experiments": experiments,
        "overhead": {"delays_ms": [0, 1], "rate": overhead_rate},
        "export": {"rate": export_rate},
    }))
    assert_exit_0_or_2(["campaign", str(work / "c.json"), "--out", str(work / "out"), *args])
