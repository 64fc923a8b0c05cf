"""One repetition of a workload, in the fresh interpreter that runs this file.

    python3 perfbench/rep.py REQUEST_JSON

The caller starts it in the workload's work directory.  The request names
the ofmon source tree, the command line and the file to write the result
to.  The clock starts after ofmon is imported and stops when
``ofmon.cli.main`` returns.  A traced repetition first patches the traced
functions, then builds the workload's inputs itself (so set-up calls show
in the trace), runs the command, and writes its spans.
"""

import contextlib
import io
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

PROBE_REPEATS = 5


def _job_transfer(job) -> tuple[int, float]:
    """Size and median dumps+loads time of one campaign job tuple.

    A process pool pickles each job on the way to its worker; spans in the
    parent cannot see that cost, so it is measured here directly.
    """
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        blob = pickle.dumps(job)
        pickle.loads(blob)
        times.append(time.perf_counter() - start)
    return len(blob), statistics.median(times)


def _cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _own_peak_kb() -> int:
    """Peak resident set of this process since it started this interpreter.

    RUSAGE_SELF is no use here: Linux carries the high-water mark of the
    process that launched us across exec, so it would report the launcher's
    peak whenever that was larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    from ofmon import cli

    run = cli.main
    argv = request["argv"]
    tracer = None
    if request["trace"]:
        import tracer as tracing
        import workloads

        tracer = tracing.Tracer()
        tracer.install()
        setup = tracer.wrap("setup", workloads.WORKLOADS[request["workload"]].setup)
        argv = setup(Path("."), request["seed"]).traced_argv
        run = tracer.wrap("cli.main", cli.main)

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        rc = run(argv)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu_start

    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": max(_own_peak_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "stdout": stdout.getvalue(),
    }
    if tracer is not None:
        layers = tracer.metrics()
        job_bytes, job_s = _job_transfer(tracer.first_job) if tracer.first_job else (0, 0.0)
        layers["campaign.job_bytes"] = job_bytes
        layers["campaign.job_transfer_s"] = job_s
        result["layers"] = layers
        result["self_s"] = tracer.self_seconds()
        tracer.write(request["spans"])
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
