"""Benchmark workloads: seeded inputs, CLI invocations and output checks.

Each workload is a fixed list of CLI invocations (a round), generated
from the seed alone; a run repeats the round until its time is up.  The
program sees only the generated command lines.

- ledger:    `verify-all --format structured --jobs 1`; an item is a case.
- scan-low:  `scan` from u = 2 against a seeded candidate list holding one
             valid group per catalog class; an item is a row.
- scan-high: `scan` over a seeded window of consecutive u in the top
             tenth of U_CAP, no candidates; an item is a row.
- query:     a seeded sweep of cheap `order`, `index` and `factor`
             queries plus heavy queries drawn from query_pool.json; an
             item is a query.

Every item's output is checked.  Records carry invariants that hold for
any seed; outputs whose command line appears in reference.json (every
input of the default seed) must also match their recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from planesieve.catalog import CLASS_TEMPLATES
from planesieve.exactmath import is_prime_power
from planesieve.scan import U_CAP

WORKLOADS = ("ledger", "scan-low", "scan-high", "query")
DEFAULT_SEED = 1
REFERENCE = Path(__file__).with_name("reference.json")
QUERY_POOL = Path(__file__).with_name("query_pool.json")

LEDGER_CASES = 28
SCAN_LOW_U_MAX = 1500
SCAN_HIGH_BASE = 19 * U_CAP // 20
SCAN_HIGH_SHIFTS = 8
SCAN_HIGH_ROWS = 100
QUERY_GRID = 240
HEAVY_QUERIES = 60
QUERY_BUDGET_S = 1.0


@dataclass(frozen=True)
class Pass:
    """One CLI invocation: its argv, the items it must produce and the
    time budget after which it is stopped and its items fail."""

    argv: tuple[str, ...]
    kind: str  # "ledger" | "scan" | "query"
    items: int
    budget_s: float

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]  # planesieve modules a user of it imports
    round: tuple[Pass, ...]


# Queries that fail at inputs inside the published caps.  They run as
# probes after the measured window, never inside a round.
KNOWN_DEFECTS = tuple(Pass(argv, "query", 1, QUERY_BUDGET_S) for argv in (
    ("order", "E8", "1021"),
    ("order", "PSU", "20", "128"),
    ("index", "PSL", "30", "1019", "--parabolic", "7"),
    ("order", "PSL", "50", "1019"),
))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- input generators ------------------------------------------------------

def scan_high_window(seed: int) -> tuple[int, int]:
    """First and last u of the seeded scan-high window.

    The seed shifts the window by seed mod 8 rows.  Near U_CAP a row
    costs 2 ms typically but 0.3-1.3 s when Pollard rho has to split a
    product of two large primes, so 100-row windows drawn anywhere in
    the top tenth differ in cost by 30% and more; a small shift changes
    the inputs with the seed while keeping the work comparable.
    """
    start = SCAN_HIGH_BASE + seed % SCAN_HIGH_SHIFTS
    return start, start + SCAN_HIGH_ROWS - 1


# q >= 4 keeps every generated group simple (PSL(2,2), PSL(2,3), PSU(3,2),
# PSp(4,2) and G2(2) are not).
_ODD_PRIME_POWERS = tuple(q for q in range(5, 128, 2) if is_prime_power(q))
_EVEN_PRIME_POWERS = (4, 8, 16, 32, 64)


def _group_for(template: dict, rng: random.Random) -> str:
    """A random group description covered by one catalog template."""
    valid = template["valid"]
    qs = _EVEN_PRIME_POWERS if valid.get("q_parity") == "even" else _ODD_PRIME_POWERS
    if "q_mod4" in valid:
        qs = tuple(q for q in qs if q % 4 == valid["q_mod4"])
    q = rng.choice(qs)
    family = template["family"]
    if family in ("PSL", "PSU", "PSp", "POmega"):
        if "n_exact" in valid:
            n = valid["n_exact"]
        else:
            n = valid["n_min"] + rng.randrange(4) * (2 if "n_parity" in valid else 1)
        if family == "POmega":
            return f"POmega {n} {q} {valid['eps']}"
        return f"{family} {n} {q}"
    if family == "E6":
        return f"E6 {q} {rng.choice('+-')}"
    return f"{family} {q}"


def scan_low_candidates(seed: int) -> list[str]:
    """One valid group per catalog class, duplicates removed, in catalog
    order."""
    rng = _rng("scan-low", seed)
    groups = [_group_for(t, rng) for t in CLASS_TEMPLATES]
    return list(dict.fromkeys(groups))


# Cheap query parameter space: rank at most 6.  Every point answers well
# inside the budget; the known defects above are reported by the probes
# instead.
_QUERY_Q = tuple(q for q in range(4, 2**10 + 1) if is_prime_power(q))
_SMALL_Q = tuple(q for q in _QUERY_Q if q <= 32)


def _order_query(family: str, rng: random.Random) -> tuple[str, ...]:
    q = str(rng.choice(_QUERY_Q))
    if family == "PSL":
        return ("order", "PSL", str(rng.randrange(2, 7)), q)
    if family == "PSU":
        return ("order", "PSU", str(rng.randrange(3, 7)), q)
    if family == "PSp":
        return ("order", "PSp", str(rng.choice((4, 6))), q)
    if family == "POmega":
        if int(q) % 2:
            return ("order", "POmega", "7", q, "o")
        return ("order", "POmega", "8", q, rng.choice("+-"))
    if family == "E6":
        return ("order", "E6", str(rng.choice(_SMALL_Q)), rng.choice("+-"))
    if family == "A":
        return ("order", "A", str(rng.randrange(5, 51)))
    return ("order", family, q)


def _index_query(family: str, rng: random.Random) -> tuple[str, ...]:
    q = str(rng.choice(_QUERY_Q))
    if family == "PSL":
        n = rng.randrange(2, 7)
        return ("index", "PSL", str(n), q, "--parabolic", str(rng.randrange(1, n)))
    if family == "PSU":
        n = rng.randrange(3, 7)
        return ("index", "PSU", str(n), q, "--parabolic", str(rng.randrange(1, n // 2 + 1)))
    if family == "PSp":
        n = rng.choice((4, 6))
        return ("index", "PSp", str(n), q, "--parabolic", str(rng.randrange(1, n // 2 + 1)))
    return ("index", "G2", q, "--parabolic", str(rng.randrange(1, 3)))


def _factor_query(rng: random.Random) -> tuple[str, ...]:
    return ("factor", str(rng.randrange(2, 10**rng.randrange(4, 19))))


_ORDER_FAMILIES = ("PSL", "PSU", "PSp", "POmega", "G2", "3D4", "E6", "A")
_INDEX_FAMILIES = ("PSL", "PSU", "PSp", "G2")


def heavy_queries(rng: random.Random) -> list[tuple[str, ...]]:
    """One query from each of HEAVY_QUERIES equal bands of the pool,
    which make_query_pool.py writes in order of cost, so that every seed
    gets about the same work."""
    pool = json.loads(QUERY_POOL.read_text())
    return [tuple(pool[rng.randrange(i * len(pool) // HEAVY_QUERIES,
                                     (i + 1) * len(pool) // HEAVY_QUERIES)]["argv"])
            for i in range(HEAVY_QUERIES)]


def query_grid(seed: int) -> list[tuple[str, ...]]:
    """QUERY_GRID cheap seeded queries, half order, a third index and
    the rest factor, with the families taken in turn so every seed has
    the same mix; plus HEAVY_QUERIES heavy ones."""
    rng = _rng("query", seed)
    n_order = QUERY_GRID // 2
    n_index = QUERY_GRID // 3
    grid = ([_order_query(_ORDER_FAMILIES[i % len(_ORDER_FAMILIES)], rng) for i in range(n_order)]
            + [_index_query(_INDEX_FAMILIES[i % len(_INDEX_FAMILIES)], rng) for i in range(n_index)]
            + [_factor_query(rng) for _ in range(QUERY_GRID - n_order - n_index)]
            + heavy_queries(rng))
    rng.shuffle(grid)
    return grid


def build(name: str, seed: int) -> Workload:
    if name == "ledger":
        argv = ("verify-all", "--format", "structured", "--jobs", "1")
        return Workload(name, ("cli", "cases"), (Pass(argv, "ledger", LEDGER_CASES, 20.0),))
    if name == "scan-low":
        argv = ("scan", "--u-min", "2", "--u-max", str(SCAN_LOW_U_MAX),
                "--candidates", ",".join(scan_low_candidates(seed)),
                "--format", "structured")
        return Workload(name, ("cli",), (Pass(argv, "scan", SCAN_LOW_U_MAX - 1, 30.0),))
    if name == "scan-high":
        first, last = scan_high_window(seed)
        argv = ("scan", "--u-min", str(first), "--u-max", str(last), "--format", "structured")
        return Workload(name, ("cli",), (Pass(argv, "scan", SCAN_HIGH_ROWS, 60.0),))
    if name == "query":
        return Workload(name, ("cli",), tuple(Pass(argv, "query", 1, QUERY_BUDGET_S)
                                              for argv in query_grid(seed)))
    raise ValueError(f"unknown workload {name!r}")


# --- output checks ---------------------------------------------------------

def digest(lines: list[str]) -> str:
    """sha256 of an output with every structured record's elapsed_ms removed."""
    h = hashlib.sha256()
    for line, record in zip(lines, _parse_records(lines)):
        if record is not None:
            record.pop("elapsed_ms", None)
            line = json.dumps(record, sort_keys=True)
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def load_reference() -> dict[str, str]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def _parse_records(lines: list[str]) -> list[dict | None]:
    out = []
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        out.append(record if isinstance(record, dict) else None)
    return out


def _check_ledger(p: Pass, lines: list[str]) -> tuple[list[int], bool]:
    records = _parse_records(lines)
    good, ids = [], set()
    for i, rec in enumerate(records[:-1]):
        if (rec is not None and isinstance(rec.get("id"), str) and rec["id"] not in ids
                and rec.get("verdict") == "eliminated"):
            ids.add(rec["id"])
            good.append(i)
    summary = records[-1] if records else None
    pass_ok = summary == {"record": "summary", "cases": p.items, "ok": True,
                          "eliminated": p.items, "violated": 0, "inconclusive": 0}
    return good, pass_ok


def _factors_ok(factors, value: int) -> bool:
    """Ascending primes > 1 with positive exponents whose product is value."""
    product, last = 1, 1
    for pe in factors:
        if not (isinstance(pe, list) and len(pe) == 2):
            return False
        p, e = pe
        if not (isinstance(p, int) and isinstance(e, int) and p > last and e >= 1):
            return False
        product *= p**e
        last = p
    return product == value


def _admissible(factors) -> bool:
    return all((p == 3 and e == 1) or p % 3 == 1 for p, e in factors)


def check_row(rec: dict | None, u: int, n_candidates: int) -> bool:
    """Invariants of one scan row record at plane order u**2."""
    if rec is None or rec.get("record") != "row" or rec.get("u") != u:
        return False
    v = u**4 + u**2 + 1
    filters = rec.get("filters")
    if rec.get("v") != v or not _factors_ok(rec.get("v_factors"), v):
        return False
    if not (isinstance(filters, list) and len(filters) == 4 + n_candidates
            and all(isinstance(f, list) and len(f) == 2 and isinstance(f[1], bool)
                    for f in filters)):
        return False
    if filters[1] != ["admissible-value", _admissible(rec["v_factors"])]:
        return False
    return rec.get("survived") is all(passed for _, passed in filters)


def _check_scan(p: Pass, lines: list[str]) -> tuple[list[int], bool]:
    argv = list(p.argv)
    u_min = int(argv[argv.index("--u-min") + 1])
    n_candidates = 0
    if "--candidates" in argv:
        n_candidates = len(argv[argv.index("--candidates") + 1].split(","))
    records = _parse_records(lines)
    good = [i for i, rec in enumerate(records[:-1]) if check_row(rec, u_min + i, n_candidates)]
    survivors = sum(rec.get("survived") is True for rec in records[:-1] if rec is not None)
    pass_ok = (len(records) == p.items + 1
               and records[-1] == {"record": "summary", "rows": p.items, "survivors": survivors})
    return good, pass_ok


_FACTOR_TEXT = re.compile(r"(\d+)(?:\^(\d+))?")


def _parse_factor_text(text: str) -> list | None:
    if text == "1":
        return []
    out = []
    for part in text.split(" * "):
        m = _FACTOR_TEXT.fullmatch(part)
        if m is None:
            return None
        out.append([int(m.group(1)), int(m.group(2) or 1)])
    return out


_QUERY_LINE = {
    "order": re.compile(r"\|[^|]+\| = (\d+) = (.+)"),
    "index": re.compile(r"\[[^]]+ : P\d+\] = (\d+) = (.+)"),
    "factor": re.compile(r"(\d+) = (.+)"),
}


def _check_query(p: Pass, lines: list[str]) -> tuple[list[int], bool]:
    if len(lines) != 1:
        return [], False
    m = _QUERY_LINE[p.argv[0]].fullmatch(lines[0])
    if m is None:
        return [], False
    value = int(m.group(1))
    if p.argv[0] == "factor" and value != int(p.argv[1]):
        return [], False
    factors = _parse_factor_text(m.group(2))
    return ([0], True) if factors is not None and _factors_ok(factors, value) else ([], False)


_CHECKS = {"ledger": _check_ledger, "scan": _check_scan, "query": _check_query}


def check(p: Pass, lines: list[str], reference: dict[str, str]) -> list[int]:
    """Indices of the output lines that hold a correct item record.  When
    the pass as a whole is wrong (bad summary, digest mismatch) no item
    counts as correct."""
    good, pass_ok = _CHECKS[p.kind](p, lines)
    expected = reference.get(p.key)
    if expected is not None and digest(lines) != expected:
        pass_ok = False
    return good if pass_ok else []
