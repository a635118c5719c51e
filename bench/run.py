"""planesieve benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ledger --seed 1 --seconds 25 --trace 0

The run drives `planesieve.cli.main` in-process, single-threaded, with
stdout captured and every output line time-stamped.  It repeats the
workload's round of CLI invocations (see workloads.py) until --seconds
have passed (at least two rounds) and checks every item's output.

Every time is reported at reference speed.  On a virtual machine whose
cores are shared, speed drifts by 20-40% over periods from seconds to
minutes, with CPU time drifting alike.  So the run times a fixed
pure-Python calibration loop about once a second.  It scales each
invocation's times by the loop's reference time over the latest
measured time, and then takes each invocation at its median repeat.
Each set-up child is scaled by a loop run just before it; import
children and traced spans by the median of their loops.  An item that
fails in any repeat counts as failed, at its invocation's full budget.

--trace 0 reports the end-to-end metrics:
    setup_s       median wall time of fresh interpreters that import the
                  workload's modules and build the CLI parser
    items_per_s   correct items of one round over the round's time
    item_ms.p50   median over the round's items of the time from the start
                  of the invocation until the item's record is on stdout
    item_ms.tail  the same at the highest percentile with at least ten
                  items beyond it (the percentile is printed above the
                  result line)
    peak_rss_mb   peak resident memory of this process
--trace 1 splits the time into an untraced half and a traced half and
reports per-layer metrics, per round of the workload, from the traced
half (see tracer.py), plus per-module import times.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are for people.
Exit code 0 on a completed run, 2 when the program sources are missing
or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import signal
import statistics
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = 25  # BENCHMARK.json's run_seconds
SETUP_REPS = 11
IMPORT_REPS = 3


class OverBudget(BaseException):
    """Raised by the interval timer.  A BaseException, so cli.main's
    handlers for ordinary errors let it through."""


def _on_alarm(signum, frame):
    raise OverBudget


class StampedLines(io.TextIOBase):
    """Text sink that keeps each complete line with the time it arrived."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        now = perf_counter()
        *complete, rest = s.split("\n")
        for piece in complete:
            self.lines.append(self._partial + piece)
            self.stamps.append(now)
            self._partial = ""
        self._partial += rest
        return len(s)


@dataclass
class Invocation:
    rc: int | None  # None: stopped at the budget
    lines: list[str]
    stamps: list[float]
    start: float
    end: float
    stderr: str


def invoke(cli, argv, budget_s: float) -> Invocation:
    out, err = StampedLines(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except OverBudget:
        rc = None
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = perf_counter()
    return Invocation(rc, out.lines, out.stamps, start, end, err.getvalue())


def outcome(inv: Invocation, budget_s: float) -> str:
    if inv.rc is None:
        return f"over its {budget_s:g} s budget"
    if inv.rc != 0:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {inv.rc}: {tail[0][:120]}"
    return "ok"


CALIBRATION_S = 0.0236  # the calibration loop's duration at reference speed
CALIBRATION_EVERY_S = 1.0


def _call(a: int, b: int) -> int:
    return a * b + 1


def calibration_s() -> float:
    """Duration of a fixed pure-Python loop: function calls and list
    appends, then modular squaring of a 25-digit and of a 301-digit
    integer.  At reference speed, as on an idle 2-core Xeon virtual
    machine, it takes CALIBRATION_S."""
    start = perf_counter()
    out = []
    for i in range(30_000):
        out.append(_call(i, 3))
    for modulus, reps in ((10**24 + 7, 30_000), (10**300 + 7, 3_000)):
        y = 2
        for _ in range(reps):
            y = (y * y + 1) % modulus
    return perf_counter() - start


def speed_factor(calibrations: list[float]) -> float:
    """Multiplier that takes durations measured among these calibration
    runs to reference speed."""
    return CALIBRATION_S / statistics.median(calibrations)


class PassRepeats:
    """One invocation of the round over its repeats, with times at
    reference speed.  Flat float arrays keep the benchmark's own memory
    small however many repeats a run makes, so peak_rss_mb reflects the
    program."""

    def __init__(self, items: int) -> None:
        self.items = items
        self.durations_s = array("d")
        self.latencies_s = array("d")  # items slots per repeat; NaN where an item failed
        self.most_failed = 0  # most items that failed in any one repeat

    def add(self, duration_s: float, latencies_s: list[float]) -> None:
        """Record one repeat; latencies_s has a value or NaN per item."""
        self.durations_s.append(duration_s)
        self.latencies_s.extend(latencies_s)
        self.most_failed = max(self.most_failed, sum(math.isnan(t) for t in latencies_s))

    def median(self) -> tuple[float, list[float]]:
        """Duration and correct-item latencies of the median repeat."""
        order = sorted(range(len(self.durations_s)), key=self.durations_s.__getitem__)
        k = order[(len(order) - 1) // 2]
        latencies = self.latencies_s[k * self.items:(k + 1) * self.items]
        return self.durations_s[k], [t for t in latencies if not math.isnan(t)]


@dataclass
class Tally:
    workload: Any  # workloads.Workload
    reference: dict[str, str]
    check: Callable
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed items whose invocation exited 0
    items: int = 0
    rounds: int = 0
    passes: list[PassRepeats] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)
    calibrated: float = -math.inf  # when the last calibration ended

    def __post_init__(self) -> None:
        self.passes = [PassRepeats(p.items) for p in self.workload.round]

    def run_pass(self, cli, p, repeats: PassRepeats) -> None:
        """Run one invocation and record it, scaled to reference speed by
        the latest calibration, which is renewed about once a second."""
        if perf_counter() - self.calibrated >= CALIBRATION_EVERY_S:
            self.calibrations.append(calibration_s())
            self.calibrated = perf_counter()
        speed = CALIBRATION_S / self.calibrations[-1]
        inv = invoke(cli, p.argv, p.budget_s)
        good = self.check(p, inv.lines, self.reference) if inv.rc == 0 else []
        bad = p.items - len(good)
        self.attempted += p.items
        self.items += len(good)
        self.failed += bad
        latencies = [(inv.stamps[i] - inv.start) * speed for i in good] + [math.nan] * bad
        repeats.add((inv.end - inv.start) * speed, latencies)
        if bad:
            self.wrong += bad if inv.rc == 0 else 0
            reason = outcome(inv, p.budget_s)
            self.failures[p.key] = reason if reason != "ok" else "wrong output"

    def run_round(self, cli) -> None:
        for p, repeats in zip(self.workload.round, self.passes):
            self.run_pass(cli, p, repeats)
        self.rounds += 1

    def speed(self) -> float:
        return speed_factor(self.calibrations)

    def items_per_s(self) -> float:
        """Correct items of a round over the round's time at reference
        speed, each invocation timed at its median repeat."""
        done = sum(p.items - r.most_failed for p, r in zip(self.workload.round, self.passes))
        return done / sum(r.median()[0] for r in self.passes)

    def latencies_s(self) -> list[float]:
        """One latency per item of the round at reference speed, from its
        invocation's median repeat; an item that failed in any repeat
        counts at the budget."""
        out = []
        for p, r in zip(self.workload.round, self.passes):
            kept = r.median()[1][:p.items - r.most_failed]
            out += kept + [p.budget_s] * (p.items - len(kept))
        return out


def measure(cli, tally: Tally, seconds: float) -> Tally:
    """Whole rounds until `seconds` have passed (at least two)."""
    deadline = perf_counter() + seconds
    while tally.rounds < 2 or perf_counter() < deadline:
        tally.run_round(cli)
    return tally


TAIL_PERCENTILES = ("90", "99", "99.9", "99.99", "99.999")


def rank(n: int, p: str) -> int:
    """1-based nearest rank of percentile p (a decimal string) among n."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def tail_percentile(n: int) -> str:
    """Highest of p90, p99, p99.9, ... with at least ten samples beyond it."""
    best = "50"
    for p in TAIL_PERCENTILES:
        if n - rank(n, p) >= 10:
            best = p
    return best


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = sorted(tally.latencies_s())
    tail_p = tail_percentile(len(lat))
    tail_rank = rank(len(lat), tail_p)
    print(f"item_ms.tail is p{tail_p}: {len(lat) - tail_rank} of {len(lat)} items lie beyond it")
    print(f"median speed factor {tally.speed():.4f} from {len(tally.calibrations)} calibrations")
    return {
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(tally.items_per_s(), "1/s"),
        "item_ms.p50": metric(lat[rank(len(lat), "50") - 1] * 1000, "ms"),
        "item_ms.tail": metric(lat[tail_rank - 1] * 1000, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, tally: Tally, untraced: Tally, import_ms: dict) -> dict:
    rounds, speed = tally.rounds, tally.speed()
    get = tracer.get
    out = {}

    def per_round(name: str, value: float, unit: str) -> None:
        if not unit.startswith("count"):
            value *= speed
        out[name] = metric(value / rounds, unit)

    for fn in ("factorize", "is_prime", "small_primes"):
        s = get(f"exactmath.{fn}")
        per_round(f"exactmath.{fn}.calls", s.calls, "count/round")
        per_round(f"exactmath.{fn}.self_s", s.self_s, "s/round")
    out["exactmath.factorize.per_item"] = metric(
        get("exactmath.factorize").calls / max(tally.items, 1), "count/item")
    per_round("exactmath.is_prime_power.calls", get("exactmath.is_prime_power").calls, "count/round")

    per_round("plane.plane_order.self_s", get("plane.plane_order").self_s, "s/round")
    per_round("plane.admissible_index.total_s", get("plane.admissible_index").total_s, "s/round")
    per_round("plane.admissible_index.self_s", get("plane.admissible_index").self_s, "s/round")
    per_round("plane.ljunggren_classify.total_s", get("plane.ljunggren_classify").total_s, "s/round")

    per_round("groups.order.calls", get("groups.order").calls, "count/round")
    for fn in ("order", "parabolic_index", "min_proper_index"):
        per_round(f"groups.{fn}.total_s", get(f"groups.{fn}").total_s, "s/round")

    per_round("catalog.classes_for.total_s", get("catalog.classes_for").total_s, "s/round")
    per_round("catalog.involution_class_size.calls",
              get("catalog.involution_class_size").calls, "count/round")
    per_round("catalog.involution_class_size.total_s",
              get("catalog.involution_class_size").total_s, "s/round")

    named = ("LJUNGGREN-SCAN", "U-PARAB-MOD", "ALT-A7")
    for case_id in named:
        per_round(f"cases.{case_id}.ms", get(f"cases.{case_id}").total_s * 1000, "ms/round")
    rest = sum(s.total_s for name, s in tracer.stats.items()
               if name.startswith("cases.") and name[len("cases."):] not in named)
    per_round("cases.rest.ms", rest * 1000, "ms/round")

    per_round("ledger.verify_all.self_s", get("ledger.verify_all").self_s, "s/round")
    per_round("ledger.report_record.total_s", get("ledger.report_record").total_s, "s/round")

    gate = get("scan.candidate_gate")
    per_round("scan.sieve_orders.self_s", get("scan.sieve_orders").self_s, "s/round")
    per_round("scan.candidate_gate.calls", gate.calls, "count/round")
    per_round("scan.candidate_gate.total_s", gate.total_s, "s/round")
    out["scan.gate_pass_ratio"] = metric(
        tracer.counters["scan.candidate_gate.pass"] / max(gate.calls, 1), "ratio")
    out["scan.survivor_ratio"] = metric(
        tracer.counters["scan.survivors"] / max(tracer.counters["scan.rows"], 1), "ratio")

    per_round("cli.main.self_s", get("cli.main").self_s, "s/round")
    per_round("cli.main.total_s", get("cli.main").total_s, "s/round")
    for mod, ms in import_ms.items():
        out[f"{mod}.import_ms"] = metric(ms, "ms")
    out["trace.overhead_ratio"] = metric(
        tally.items_per_s() / untraced.items_per_s(), "ratio")
    return out


def run_probes(cli, probes, reference, check) -> tuple[int, int]:
    """Run each known-defect query once; print and count misses.
    Returns (misses, wrong outputs)."""
    misses = wrong = 0
    for p in probes:
        inv = invoke(cli, p.argv, p.budget_s)
        result = outcome(inv, p.budget_s)
        if result == "ok" and not check(p, inv.lines, reference):
            result = "wrong output"
            wrong += 1
        misses += result != "ok"
        print(f"known-defect probe: planesieve {p.key}: {result}")
    return misses, wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planesieve" / "cli.py").is_file():
        print(f"error: planesieve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import startup
    import workloads
    from tracer import Tracer
    from planesieve import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference()

    def new_tally() -> Tally:
        return Tally(workload, reference, workloads.check)

    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {len(workload.round)} invocation(s) per round")

    # Warm-up: the first invocation of the round, unmeasured.
    warm = new_tally()
    warm.run_pass(cli, workload.round[0], warm.passes[0])

    probe_misses = probe_wrong = 0
    if args.trace == 0:
        setup, calibrations = startup.setup_seconds(SRC, workload.modules, SETUP_REPS,
                                                    calibration_s)
        tally = measure(cli, new_tally(), args.seconds)
        metrics = end_to_end(tally, statistics.median(
            t * CALIBRATION_S / c for t, c in zip(setup, calibrations)))
        if workload.name == "query":
            probe_misses, probe_wrong = run_probes(cli, workloads.KNOWN_DEFECTS, reference,
                                                   workloads.check)
            failed = sum(r.most_failed for r in tally.passes) + probe_misses
            n = len(workload.round) + len(workloads.KNOWN_DEFECTS)
            print(f"fail_ratio of one round plus the known-defect probes: "
                  f"{failed}/{n} = {failed / n:.4f}")
    else:
        untraced = measure(cli, new_tally(), args.seconds / 2)
        tracer = Tracer()
        with tracer:
            tally = measure(cli, new_tally(), args.seconds / 2)
        import_ms, calibrations = startup.import_ms(SRC, IMPORT_REPS, calibration_s)
        speed = speed_factor(calibrations)
        metrics = per_layer(tracer, tally, untraced,
                            {mod: ms * speed for mod, ms in import_ms.items()})
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        tally.wrong += untraced.wrong
        tally.failures.update(untraced.failures)

    print(f"rounds {tally.rounds}, items attempted {tally.attempted}, failed {tally.failed}")
    for key, reason in sorted(tally.failures.items()):
        print(f"failed: planesieve {key}: {reason}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": warm.wrong + tally.wrong + probe_wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
