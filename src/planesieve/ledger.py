"""Replayable elimination ledger.

Each registered case is a finite, deterministic search or inequality
scan whose outcome is a verdict: Eliminated when the full default
domain is confirmed, Violated when a check fails somewhere (with
witnesses), and Inconclusive when a caller-supplied bound truncated
the scan below its registered default.  Witnesses carry the concrete
numbers a verdict rests on, so a report is auditable without rerunning
anything.  A case's anchor is a self-contained statement of the claim
it certifies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Sequence


class Verdict(Enum):
    ELIMINATED = "eliminated"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


class Record:
    """A check's outcome: ok until the first failure witness.

    fail() records a failure witness and note() a success witness, so a
    failed check always carries the witness of its failure.
    """

    def __init__(self) -> None:
        self.ok = True
        self.witnesses: list = []

    def fail(self, *witness) -> None:
        self.ok = False
        self.witnesses.append(witness)

    def note(self, *witness) -> None:
        self.witnesses.append(witness)

    def branches(self, tags: Iterable) -> Iterator[tuple[Any, Callable[[str, bool], None]]]:
        """Yield (tag, expect) for each branch of a case analysis.

        expect(name, condition) records ("failed", tag, name) when the
        condition is false; a branch whose body ends with no failed
        expectation is recorded as (tag, "confirmed").
        """
        for tag in tags:
            failed = False

            def expect(name: str, condition: bool) -> None:
                nonlocal failed
                if not condition:
                    failed = True
                    self.fail("failed", tag, name)

            yield tag, expect
            if not failed:
                self.note(tag, "confirmed")


CheckFn = Callable[[Record, int | None], None]


@dataclass(frozen=True)
class CaseCheck:
    """One registered case: a check callable plus reporting metadata.

    default_bound caps the registered scan, and None marks a fixed-domain
    case that accepts no bound; bound_kind names the scan variable a
    caller may cap ("u", "n", "q" or "a").  The check receives a fresh
    Record and the effective bound (or None), and writes its outcome to
    the Record.
    """

    id: str
    section: str
    anchor: str
    parameters: str
    check: CheckFn
    default_bound: int | None = None
    bound_kind: str | None = None


@dataclass(frozen=True)
class CaseResult:
    """The outcome of one replay, with the case that ran."""

    case: CaseCheck
    verdict: Verdict
    witnesses: tuple
    elapsed_ms: float
    bound: int | None = None

    @property
    def id(self) -> str:
        return self.case.id


def _default_registry() -> Sequence[CaseCheck]:
    from .cases import REGISTRY
    return REGISTRY


def replay(case_id: str, bound: int | None = None,
           registry: Sequence[CaseCheck] | None = None) -> CaseResult:
    """Run the first case with case_id.  A bound may only tighten its default."""
    for case in _default_registry() if registry is None else registry:
        if case.id == case_id:
            return _run(case, bound)
    raise ValueError(f"unknown case id {case_id!r}")


def _run(case: CaseCheck, bound: int | None) -> CaseResult:
    if bound is not None:
        if case.default_bound is None:
            raise ValueError(f"case {case.id} has a fixed domain and takes no bound")
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
    truncated = bound is not None and bound < case.default_bound
    rec = Record()
    start = time.perf_counter()
    case.check(rec, bound if truncated else case.default_bound)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if not rec.ok:
        verdict = Verdict.VIOLATED
    elif truncated:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.ELIMINATED
    return CaseResult(case=case, verdict=verdict, witnesses=tuple(rec.witnesses),
                      elapsed_ms=elapsed_ms, bound=bound if truncated else None)


def verify_all(jobs: int = 1, u_max: int | None = None, q_max: int | None = None,
               registry: Sequence[CaseCheck] | None = None) -> Iterator[CaseResult]:
    """Replay every registered case, lazily, in registry order.

    u_max and q_max tighten the scan caps of cases whose bound kind
    matches; other cases run their full default domain.  The arguments
    are checked at the call, but no case runs until the returned
    iterator is advanced, and each result is handed over as soon as its
    case (and every case ahead of it) has finished.  Results come in
    registry order at any worker count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    reg = _default_registry() if registry is None else registry
    caps = {"u": u_max, "q": q_max}

    def run(case: CaseCheck) -> CaseResult:
        return _run(case, caps.get(case.bound_kind))

    if jobs == 1:
        return map(run, reg)

    # loaded here, so a single-worker replay never imports the thread pool
    from concurrent.futures import ThreadPoolExecutor

    def pooled() -> Iterator[CaseResult]:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(run, reg)

    return pooled()


def report_record(result: CaseResult) -> dict[str, Any]:
    """One serializable report record per case result."""
    record: dict[str, Any] = {
        "id": result.id,
        "section": result.case.section,
        "anchor": result.case.anchor,
        "verdict": result.verdict.value,
        "witness_count": len(result.witnesses),
        "witnesses": list(result.witnesses[:10]),
        "elapsed_ms": round(result.elapsed_ms, 3),
    }
    if result.bound is not None:
        record["bound"] = result.bound
    return record

