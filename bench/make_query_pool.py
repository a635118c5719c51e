"""Record query_pool.json: the heavy `order` and `index` queries that the
`query` workload draws from.

    python3 bench/make_query_pool.py

It times `order` and `index` queries of the classical families at
ranks 7 to 14 (PSL, PSU) and dimensions 8 to 20 (PSp, POmega), and of
F4, E7 and E8, each over a sample of prime powers q <= 2^10.  Queries
that answer correctly near KEEP_MS on a first timing are timed
TIMINGS - 1 times more, taking them in turn so that a slow spell of the
machine touches them alike.  Times are scaled to reference speed as in
run.py.  The pool keeps the queries whose median time lies in KEEP_MS,
in order of that time.  Run it only at a commit whose outputs are known
to be right.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys

from run import CALIBRATION_S, SRC, _on_alarm, calibration_s, invoke

BUDGET_S = 0.3
KEEP_MS = (25.0, 100.0)
TIMINGS = 5


def candidates(prime_powers: list[int]) -> list[tuple[str, ...]]:
    qs = sorted(set(prime_powers[::6] + prime_powers[-6:]))
    out = []
    for n in range(7, 15):  # nearly every query past rank 14 is over budget
        for fam in ("PSL", "PSU"):
            for q in qs:
                out.append(("order", fam, str(n), str(q)))
                out.append(("index", fam, str(n), str(q), "--parabolic", str(n // 2)))
    for n in range(8, 21, 2):
        for q in qs:
            out.append(("order", "PSp", str(n), str(q)))
            out.append(("index", "PSp", str(n), str(q), "--parabolic", str(n // 2)))
            out.append(("order", "POmega", str(n), str(q), "+"))
            out.append(("order", "POmega", str(n), str(q), "-"))
    for n in range(9, 20, 2):
        out += [("order", "POmega", str(n), str(q), "o") for q in qs if q % 2]
    for fam in ("F4", "E7", "E8"):
        out += [("order", fam, str(q)) for q in qs]
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from planesieve import cli
    from planesieve.exactmath import is_prime_power

    def timed_ms(argv: tuple[str, ...]) -> float | None:
        """Time of a correct answer at reference speed, or None."""
        speed = CALIBRATION_S / calibration_s()
        inv = invoke(cli, argv, BUDGET_S)
        if inv.rc != 0 or not workloads.check(workloads.Pass(argv, "query", 1, BUDGET_S),
                                              inv.lines, {}):
            return None
        return (inv.end - inv.start) * 1000 * speed

    signal.signal(signal.SIGALRM, _on_alarm)
    prime_powers = [q for q in range(4, 2**10 + 1) if is_prime_power(q)]
    times = {}
    for argv in candidates(prime_powers):
        ms = timed_ms(argv)
        if ms is not None and 0.8 * KEEP_MS[0] <= ms <= 1.25 * KEEP_MS[1]:
            times[argv] = [ms]
    for _ in range(TIMINGS - 1):
        for argv, ts in times.items():
            ts.append(timed_ms(argv))
    pool = sorted(({"argv": list(argv), "ms": round(statistics.median(ts), 1)}
                   for argv, ts in times.items() if None not in ts),
                  key=lambda entry: entry["ms"])
    pool = [entry for entry in pool if KEEP_MS[0] <= entry["ms"] <= KEEP_MS[1]]
    workloads.QUERY_POOL.write_text(
        "[\n" + ",\n".join(json.dumps(entry) for entry in pool) + "\n]\n")
    print(f"{len(pool)} queries kept in {workloads.QUERY_POOL.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
