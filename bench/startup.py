"""Set-up cost: fresh-interpreter start and per-module import time.

Every measurement here runs in a child interpreter, one child at a time,
and waits for it to exit.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

from tracer import MODULES


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def setup_seconds(src: Path, modules: tuple[str, ...], reps: int,
                  calibration_s: Callable[[], float]) -> tuple[list[float], list[float]]:
    """Wall times of `reps` fresh interpreters that each import `modules`
    (which include cli) and build the CLI parser through
    `planesieve --version`, and of a calibration run before each."""
    code = (f"import {', '.join('planesieve.' + m for m in modules)}; "
            "planesieve.cli.main(['--version'])")
    times, calibrations = [], []
    for _ in range(reps):
        calibrations.append(calibration_s())
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=_env(src),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return times, calibrations


def parse_importtime(text: str) -> dict[str, float]:
    """Import milliseconds per planesieve module from `-X importtime` output.

    A module's figure is its own body plus every non-planesieve import it
    triggers (argparse for cli, json for ledger, ...); nested planesieve
    modules are counted under their own name.  Summed over the modules
    this covers the whole package import.
    """
    nodes = []  # (depth, name, self_us, children)
    stack: list[tuple[int, str, int, list]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # header line
        raw_name = fields[2]
        depth = (len(raw_name) - len(raw_name.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        node = (depth, raw_name.strip(), int(fields[0]), children)
        stack.append(node)
        nodes.append(node)

    def own_us(node) -> int:
        return node[2] + sum(own_us(child) for child in node[3]
                             if not child[1].startswith("planesieve."))

    return {name[len("planesieve."):]: own_us(node) / 1000.0
            for node in nodes if (name := node[1]).startswith("planesieve.")}


def import_ms(src: Path, reps: int,
              calibration_s: Callable[[], float]) -> tuple[dict[str, float], list[float]]:
    """Median over `reps` children of each module's import milliseconds,
    and the durations of a calibration run before each child."""
    code = "import planesieve.cli, planesieve.cases"
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    calibrations = []
    for _ in range(reps):
        calibrations.append(calibration_s())
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=_env(src), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import-time child failed: {proc.stderr.strip()[-400:]}")
        for mod, ms in parse_importtime(proc.stderr).items():
            if mod in samples:
                samples[mod].append(ms)
    return ({mod: statistics.median(values) if values else 0.0
             for mod, values in samples.items()}, calibrations)
