"""Run every workload untraced and traced, and print all metrics.

    python3 bench/report.py [--seconds 25] [--seed 1] [--out bench/BENCH_<label>.json]

Each workload runs twice in a child process, `--trace 0` for the
end-to-end metrics and `--trace 1` for the per-layer ones.  The report
prints each run's notes (tail percentile, failing inputs, known-defect
probes), every metric with its unit, and for each workload the layers
whose inclusive and self times take the largest share of the traced CLI
time.  --out also writes
the results with the machine, Python version and git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import ROOT, RUN_SECONDS, SRC

sys.path.insert(0, str(SRC))
from workloads import WORKLOADS  # noqa: E402  (needs the planesieve sources)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace {trace} failed:\n{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def layer_shares(per_layer: dict, kind: str) -> list[tuple[str, float]]:
    """Inclusive ("total") or self ("self") times as shares of the traced
    cli.main time, largest first.  Case times count as inclusive."""
    metrics = per_layer["metrics"]
    total = metrics["cli.main.total_s"]["value"]
    shares = []
    for name, m in metrics.items():
        seconds = {"s/round": m["value"], "ms/round": m["value"] / 1000}.get(m["unit"])
        inclusive = name.endswith(".total_s") or name.startswith("cases.")
        if (seconds is not None and total > 0 and name != "cli.main.total_s"
                and inclusive == (kind == "total")):
            shares.append((name, seconds / total))
    return sorted(shares, key=lambda kv: -kv[1])


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results = {}
    for workload in WORKLOADS:
        entry = {}
        for trace, label in ((0, "end_to_end"), (1, "per_layer")):
            notes, result = run_one(workload, args.seed, args.seconds, trace)
            entry[label] = result
            entry[f"{label}_notes"] = notes
            print(f"== {workload}, trace {trace}")
            for note in notes:
                print(f"   {note}")
        for kind in ("total", "self"):
            shares = layer_shares(entry["per_layer"], kind)[:4]
            entry[f"largest_{kind}_shares_of_cli_time"] = shares
            print(f"== {workload}: largest {kind} times as shares of traced cli.main time")
            for name, share in shares:
                print(f"   {name:40s} {share:7.1%}")
        results[workload] = entry

    if args.out is not None:
        args.out.write_text(json.dumps({"machine": machine(), "seed": args.seed,
                                        "seconds": args.seconds, "results": results},
                                       indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
