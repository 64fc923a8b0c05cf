"""ofmon benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload trials --seed 7 --seconds 15 --trace 0

Run it from the root of an ofmon checkout (the directory holding src/ofmon).
Set-up builds the workload's inputs from --seed several times and reports
the median as setup_s.  Then repetitions run, each in a fresh interpreter
through ``ofmon.cli.main``, until --seconds have passed.  Every repetition's
output files and stdout must match the SHA-256 digests committed in
digests.json for that seed, or, for a seed without digests, those of the
first repetition, and must pass invariants that do not depend on the
digests (see workloads.py).

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics.  With --trace 1 it holds the per-layer metrics of a
traced repetition; every traced repetition is paired with an untraced one
that runs the same one-process command, and the ratio of their times is
trace_overhead_frac.  Work files go under .perfbench_work/; result and span
files under .perfbench_results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s; this leaves room for the checks
HELD_OUT_SEED = 1000  # kept out of tuning; check later claims on it too


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): _sha256(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _git_revision(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_rep(request: dict, cwd: Path, timeout: float) -> dict:
    """Run rep.py in a fresh interpreter, in a process group of its own.

    Campaign workers join that group, so killing the group after the rep
    ends leaves no process behind, even when the rep timed out.
    """
    result_path = Path(request["result"])
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(request)],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"ok": False, "error": "timed out", "wall_s": timeout, "maxrss_kb": 0}
    _kill_group(proc.pid)
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "error": f"rep exited {proc.returncode}: {err[-2000:]}",
                "wall_s": 0.0, "maxrss_kb": 0}
    rep = json.loads(result_path.read_text())
    rep["ok"] = rep["rc"] == 0
    if not rep["ok"]:
        rep["error"] = f"ofmon exited {rep['rc']}: {err[-2000:]}"
    return rep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "ofmon" / "cli.py").is_file():
        print(f"error: no ofmon source tree at {src}; run from the checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from ofmon.model import flow_key_of

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{workload.name}-s{args.seed}"
    work = root / ".perfbench_work" / tag
    results = root / ".perfbench_results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(exist_ok=True)
    plain_dir, traced_dir = work / "plain", work / "traced"

    problems: list[str] = []
    setup_times = []
    input_digests = set()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(plain_dir, ignore_errors=True)
        plain_dir.mkdir(parents=True)
        start = time.perf_counter()
        inputs = workload.setup(plain_dir, args.seed)
        setup_times.append(time.perf_counter() - start)
        input_digests.add(json.dumps(_tree_digests(plain_dir), sort_keys=True))
    if len(input_digests) != 1:
        problems.append("set-up wrote different input bytes on different passes")

    digest_file = HERE / "digests.json"
    committed = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    expected = committed.get(workload.name, {}).get(str(args.seed))
    reps: list[dict] = []

    def one(cwd: Path, traced: bool) -> None:
        nonlocal expected
        out = cwd / workloads.OUT
        if traced:
            shutil.rmtree(cwd, ignore_errors=True)
            cwd.mkdir(parents=True)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        request = {
            "src": str(src),
            "workload": workload.name,
            "seed": args.seed,
            "trace": traced,
            "argv": inputs.traced_argv if args.trace else inputs.argv,
            "result": str(results / f"{tag}-rep.json"),
            "spans": str(results / f"{tag}-spans{len(reps)}.jsonl"),
        }
        rep = _run_rep(request, cwd, RUN_LIMIT_S - (time.perf_counter() - started))
        rep["traced"] = traced
        if rep["ok"]:
            digests = _tree_digests(out)
            digests["stdout"] = _sha256(rep.pop("stdout").encode())
            if expected is None:
                expected = digests
            if digests != expected:
                rep["ok"] = False
                rep["error"] = "output bytes differ: " + ", ".join(
                    sorted(k for k in expected.keys() | digests.keys()
                           if expected.get(k) != digests.get(k))
                )
            if rep["ok"]:
                try:
                    results_reported, found = workload.inspect(inputs, out)
                except (OSError, ValueError, KeyError) as exc:
                    results_reported, found = 0, [f"outputs unreadable: {exc!r}"]
                if results_reported != inputs.expected_results:
                    found.append(f"outputs report {results_reported} full-trace results, "
                                 f"expected {inputs.expected_results}")
                if found:
                    rep["ok"] = False
                    rep["error"] = "; ".join(found)
        reps.append(rep)

    measure_start = time.perf_counter()
    while True:
        last = time.perf_counter()
        if args.trace:
            one(plain_dir, traced=False)
            one(traced_dir, traced=True)
        else:
            one(plain_dir, traced=False)
        now = time.perf_counter()
        enough = len(reps) >= (2 if args.trace else MIN_REPS) and now - measure_start >= args.seconds
        if enough or now - started + 1.5 * (now - last) > RUN_LIMIT_S:
            break

    failed = [r for r in reps if not r["ok"]]
    for r in failed:
        print(f"failed repetition: {r['error']}", file=sys.stderr)
    for p in problems:
        print(f"failed check: {p}", file=sys.stderr)
    plain = [r for r in reps if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    trace = inputs.trace
    simulated = len(trace) * inputs.expected_results
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace_mode": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(root),
        "src_digest": _sha256(json.dumps(_tree_digests(src / "ofmon"), sort_keys=True).encode()),
        "trace_packets": len(trace),
        "trace_flows": len({flow_key_of(p) for p in trace}),
        "trace_bytes": sum(p.length_bytes for p in trace),
        "full_trace_results": inputs.expected_results,
        "simulated_packets": simulated,
        "argv": inputs.traced_argv if args.trace else inputs.argv,
        "setup_s_samples": setup_times,
        "output_digests": expected,
        "reps": reps,
        "problems": problems,
    }
    if args.trace:
        traced = [r for r in reps if r["traced"] and r["ok"]] or [r for r in reps if r["traced"]]
        traced.sort(key=lambda r: r["wall_s"])
        median_rep = traced[len(traced) // 2]
        layers = dict(median_rep.get("layers", {}))
        layers["trace_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / wall_s - 1 if wall_s else 0.0
        )
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layers.items()}
        report["self_s"] = median_rep.get("self_s")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "pkts_per_s": {"value": simulated / wall_s if wall_s else 0.0, "unit": "1/s"},
            "peak_rss_mb": {
                "value": statistics.median(r["maxrss_kb"] for r in plain) / 1024, "unit": "MB"
            },
        }
    report["metrics"] = metrics
    (results / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {workload.name}, seed {args.seed}: {len(trace)} packets, "
          f"{report['trace_flows']} flows, {simulated} simulated packets")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        own = sum((report["self_s"] or {}).values())
        main_s = layers.get("cli.main.s", 0.0)
        print(f"  self times of traced names sum to {own:.6g} s: {own - main_s:.6g} s of set-up "
              f"and {main_s:.6g} s in cli.main, {layers.get('cli.main.self_s', 0.0):.6g} s of it "
              f"outside any traced callee ({len(plain)} untraced, {len(traced)} traced repetitions)")
    else:
        print(f"  {'wall_s samples':36s} {len(plain)} repetitions, median reported")
    print(f"  {'failed_frac':36s} {len(failed) / len(reps):.6g} ({len(failed)} of {len(reps)})")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
