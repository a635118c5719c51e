"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import startup  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, TRACED, Tracer  # noqa: E402
from planesieve import cli  # noqa: E402
from planesieve.groups import parse_group  # noqa: E402


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _bindings() -> dict[str, dict[str, object]]:
    mods = [importlib.import_module(f"planesieve.{m}") for m in MODULES]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def _same(before, after) -> bool:
    return all(after[mod][name] is value
               for mod, names in before.items() for name, value in names.items())


def test_tracer_patches_imported_names_and_restores_them():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        import planesieve.cases
        import planesieve.plane
        import planesieve.scan
        assert planesieve.scan.admissible_index is not before["planesieve.scan"]["admissible_index"]
        assert planesieve.plane.factorize is not before["planesieve.plane"]["factorize"]
        assert planesieve.cases.order is not before["planesieve.cases"]["order"]
        assert not _same(before, _bindings())
    assert _same(before, _bindings())
    assert set(_bindings()["planesieve.exactmath"]) == set(before["planesieve.exactmath"])


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _same(before, _bindings())


def test_every_traced_name_exists():
    for mod, names in TRACED.items():
        module = importlib.import_module(f"planesieve.{mod}")
        for name in names:
            assert callable(getattr(module, name))


def test_tracer_records_nested_spans_and_cases():
    p = workloads.Pass(("scan", "--u-min", "2", "--u-max", "40", "--candidates", "PSL 2 13",
                        "--format", "structured"), "scan", 39, 10.0)
    tracer = Tracer()
    with tracer:
        inv = run.invoke(cli, p.argv, p.budget_s)
        run.invoke(cli, ("verify", "PSL2-Q13", "--format", "structured"), 10.0)
    assert inv.rc == 0
    assert len(workloads.check(p, inv.lines, {})) == 39
    assert tracer.get("scan.sieve_orders").calls == 1
    assert tracer.get("plane.admissible_index").calls == 39
    assert tracer.get("scan.candidate_gate").calls == 39
    assert tracer.counters["scan.rows"] == 39
    main = tracer.get("cli.main")
    assert main.calls == 2 and 0 < main.self_s < main.total_s
    for stats in tracer.stats.values():
        assert stats.self_s <= stats.total_s + 1e-9


def test_tracer_times_cases_through_the_registry():
    tracer = Tracer()
    with tracer:
        inv = run.invoke(cli, ("verify-all", "--format", "structured", "--u-max", "100",
                               "--q-max", "16"), 60.0)
    assert inv.rc == 1  # bounded cases come back inconclusive
    assert tracer.get("cases.LJUNGGREN-SCAN").calls == 1
    assert tracer.get("ledger.verify_all").calls == 1
    assert sum(s.calls for name, s in tracer.stats.items() if name.startswith("cases.")) == 28


class _Emitter:
    """Stands in for planesieve.cli: prints fixed lines, returns 0."""

    def __init__(self, lines):
        self.lines = lines

    def main(self, argv):
        for line in self.lines:
            print(line)
        return 0


def _scan_pass(u_max=12):
    return workloads.Pass(("scan", "--u-min", "2", "--u-max", str(u_max),
                           "--format", "structured"), "scan", u_max - 1, 10.0)


def test_corrupted_scan_record_counts_as_failure():
    p = _scan_pass()
    lines = run.invoke(cli, p.argv, p.budget_s).lines
    workload = workloads.Workload("t", ("cli",), (p,))
    tally = run.Tally(workload, {}, workloads.check)
    tally.run_pass(_Emitter(lines), p, tally.passes[0])
    assert (tally.attempted, tally.failed, tally.wrong) == (11, 0, 0)

    row = json.loads(lines[3])
    row["v_factors"][0][1] += 1
    corrupted = lines[:3] + [json.dumps(row)] + lines[4:]
    tally = run.Tally(workload, {}, workloads.check, calibrations=[run.CALIBRATION_S])
    tally.run_pass(_Emitter(corrupted), p, tally.passes[0])
    assert (tally.attempted, tally.failed, tally.wrong) == (11, 1, 1)
    assert tally.latencies_s().count(p.budget_s) == 1


def test_wrong_survival_flag_counts_as_failure():
    p = _scan_pass()
    lines = run.invoke(cli, p.argv, p.budget_s).lines
    row = json.loads(lines[0])
    row["survived"] = not row["survived"]
    assert len(workloads.check(p, [json.dumps(row)] + lines[1:], {})) == 0  # summary no longer adds up


def test_corrupted_ledger_record_counts_as_failure():
    p = workloads.build("ledger", 1).round[0]
    lines = run.invoke(cli, p.argv, p.budget_s).lines
    assert len(workloads.check(p, lines, {})) == 28
    record = json.loads(lines[5])
    record["verdict"] = "violated"
    assert len(workloads.check(p, lines[:5] + [json.dumps(record)] + lines[6:], {})) == 27


def test_digest_mismatch_fails_every_item_but_ignores_elapsed_ms():
    p = workloads.build("ledger", 1).round[0]
    lines = run.invoke(cli, p.argv, p.budget_s).lines
    again = run.invoke(cli, p.argv, p.budget_s).lines
    assert workloads.digest(lines) == workloads.digest(again)
    assert len(workloads.check(p, again, {p.key: workloads.digest(lines)})) == 28
    assert workloads.check(p, again, {p.key: "0" * 64}) == []


def test_reference_matches_the_default_seed_inputs():
    reference = workloads.load_reference()
    keys = {p.key for name in workloads.WORKLOADS
            for p in workloads.build(name, workloads.DEFAULT_SEED).round}
    assert keys == set(reference)


def test_query_check_rejects_a_wrong_factorization():
    p = workloads.Pass(("factor", "105301"), "query", 1, 1.0)
    assert workloads.check(p, ["105301 = 7^3 * 307"], {}) == [0]
    assert workloads.check(p, ["105301 = 7^2 * 307"], {}) == []
    assert workloads.check(p, ["105301 = 7^3 * 307", "extra"], {}) == []


def test_over_budget_invocation_fails_its_items():
    p = workloads.Pass(workloads.KNOWN_DEFECTS[0].argv, "query", 1, 0.2)
    tally = run.Tally(workloads.Workload("t", ("cli",), (p,)), {}, workloads.check)
    tally.run_pass(cli, p, tally.passes[0])
    assert (tally.failed, tally.wrong) == (1, 0)
    assert "budget" in tally.failures[p.key]


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.scan_high_window(1) != workloads.scan_high_window(2)
    assert workloads.scan_low_candidates(1) != workloads.scan_low_candidates(2)
    assert workloads.query_grid(1) != workloads.query_grid(2)


def test_scan_high_window_stays_in_the_top_tenth():
    for seed in range(50):
        first, last = workloads.scan_high_window(seed)
        assert 9 * workloads.U_CAP // 10 <= first <= last <= workloads.U_CAP
        assert last - first + 1 == workloads.SCAN_HIGH_ROWS


def test_generated_groups_are_valid_cli_input():
    for seed in range(20):
        candidates = workloads.scan_low_candidates(seed)
        assert len(candidates) >= 15
        for text in candidates:
            parse_group(text.split())
        for argv in workloads.query_grid(seed):
            if argv[0] in ("order", "index"):
                tokens = argv[1:argv.index("--parabolic")] if "--parabolic" in argv else argv[1:]
                parse_group(list(tokens))


def test_parse_importtime_attributes_foreign_imports_to_the_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     planesieve.exactmath",
        "import time:       900 |        900 |     argparse",
        "import time:        50 |         50 |       _json",
        "import time:       200 |        250 |     json",
        "import time:       300 |       1550 |   planesieve.ledger",
        "import time:        10 |       1560 | planesieve.cli",
    ])
    ms = startup.parse_importtime(text)
    assert ms == {"exactmath": 0.1, "ledger": 1.45, "cli": 0.01}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(28) == "50"
    assert run.tail_percentile(100) == "90"
    assert run.tail_percentile(1000) == "99"
    assert run.tail_percentile(1009) == "99"
    assert run.tail_percentile(10000) == "99.9"
    assert run.rank(1000, "99.9") == 999


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ledger", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_run_prints():
    workload = workloads.build("ledger", 1)
    tally = run.Tally(workload, {}, workloads.check, items=28, rounds=1,
                      calibrations=[run.CALIBRATION_S])
    tally.passes[0].add(1.0, [0.5] * 28)
    e2e = run.end_to_end(tally, 0.1)
    layers = run.per_layer(Tracer(), tally, tally, {m: 1.0 for m in MODULES})
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, m["unit"]) for name, m in e2e.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, m["unit"]) for name, m in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_json_bounds():
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_default_seconds_is_the_benchmark_run_seconds():
    assert run.RUN_SECONDS == _spec()["run_seconds"]
