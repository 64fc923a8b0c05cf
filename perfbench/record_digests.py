"""Record the SHA-256 digests of every workload's outputs for some seeds.

    python3 perfbench/record_digests.py SEED [SEED ...]

Run from the checkout root.  Each (workload, seed) pair runs once through
run.py; a pair whose outputs fail a check, or differ from digests already
committed for it, is not recorded and makes the script exit 1.  Digests
already in digests.json for other seeds are kept.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(seeds: list[int]) -> int:
    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    failed = []
    sys.path.insert(0, "src")
    import workloads

    for name in workloads.WORKLOADS:
        for seed in seeds:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                run.main(["--workload", name, "--seed", str(seed), "--seconds", "0"])
            result = json.loads(out.getvalue().splitlines()[-1])
            report = json.loads(Path(f".perfbench_results/{name}-s{seed}-trace0.json").read_text())
            if not result["correct"]:
                failed.append(f"{name} seed {seed}")
                continue
            digests.setdefault(name, {})[str(seed)] = report["output_digests"]
            print(f"{name} seed {seed}: {len(report['output_digests'])} outputs", flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    for what in failed:
        print(f"not recorded: {what}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))
