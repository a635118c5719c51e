"""Command-line behavior: output, exit codes, and the structured
record stream."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planesieve
from planesieve import cli, exactmath, groups
from planesieve.cases import REGISTRY
from planesieve.cli import main
from planesieve.scan import U_CAP, sieve_orders

from test_groups import _valid_specs


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_command(capsys):
    code, out, _ = _run(capsys, "order", "PSL", "2", "13")
    assert code == 0
    assert "|PSL(2,13)| = 1092 = 2^2 * 3 * 7 * 13" in out


def test_index_command(capsys):
    code, out, _ = _run(capsys, "index", "PSL", "5", "2", "--parabolic", "1")
    assert code == 0
    assert "[PSL(5,2) : P1] = 31 = 31" in out


def test_factor_command(capsys):
    code, out, _ = _run(capsys, "factor", "273")
    assert code == 0
    assert "273 = 3 * 7 * 13" in out
    assert _run(capsys, "factor", "1") == (0, "1 = 1\n", "")


def test_factor_splits_the_twelve_base_pseudoprime(capsys):
    # psi_12, the least strong pseudoprime to the bases 2..37
    code, out, _ = _run(capsys, "factor", "318665857834031151167461")
    assert code == 0
    assert out == "318665857834031151167461 = 399165290221 * 798330580441\n"


def test_factor_rejects_nonpositive(capsys):
    code, _, err = _run(capsys, "factor", "0")
    assert code == 2
    assert "error:" in err


def test_verify_single_case(capsys):
    code, out, _ = _run(capsys, "verify", "ALT-BOUND")
    assert code == 0
    assert "ELIMINATED" in out
    assert "alternating/degree-bound" in out


def test_verify_unknown_case(capsys):
    assert _run(capsys, "verify", "NO-SUCH") == (2, "", "error: unknown case id 'NO-SUCH'\n")


def test_verify_bound_on_fixed_case(capsys):
    code, _, err = _run(capsys, "verify", "SPORADIC", "--bound", "3")
    assert code == 2
    assert "fixed domain" in err


def test_verify_truncated_bound_exits_nonzero(capsys):
    code, out, _ = _run(capsys, "verify", "ALT-BOUND", "--bound", "20")
    assert code == 1
    assert "INCONCLUSIVE" in out


def test_verify_all_text(capsys):
    code, out, _ = _run(capsys, "verify-all")
    assert code == 0
    assert "28 cases: 28 eliminated, 0 violated, 0 inconclusive" in out


def test_verify_all_structured_stream(capsys):
    code, out, _ = _run(capsys, "verify-all", "--format", "structured")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    summary = records[-1]
    assert summary["record"] == "summary"
    assert summary["ok"] is True and summary["cases"] == 28
    assert len(records) == 29
    assert all(r["verdict"] == "eliminated" for r in records[:-1])


class _FlushedSink(io.StringIO):
    """A stdout stand-in that keeps what had been written at the last flush."""

    flushed = ""

    def flush(self):
        super().flush()
        self.flushed = self.getvalue()


@pytest.mark.parametrize("fmt, first", [
    ("structured", '{"anchor": "a", "elapsed_ms": '),
    ("text", "ELIMINATED   TOY-FIRST        ("),
], ids=["structured", "text"])
def test_verify_all_flushes_each_record_as_its_case_ends(monkeypatch, fmt, first):
    from planesieve import ledger
    sink = _FlushedSink()
    seen = []
    reg = (ledger.CaseCheck(id="TOY-FIRST", section="s", anchor="a", parameters="p",
                            check=lambda rec, _bound: None),
           ledger.CaseCheck(id="TOY-SECOND", section="s", anchor="a", parameters="p",
                            check=lambda rec, _bound: seen.append(sink.flushed)))
    monkeypatch.setattr(ledger, "_default_registry", lambda: reg)
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["verify-all", "--format", fmt]) == 0
    [before_second] = seen
    assert before_second.startswith(first)
    assert before_second.count("\n") == 1 and "TOY-FIRST" in before_second
    assert "TOY-SECOND" in sink.getvalue()


@pytest.mark.parametrize("fmt, summary", [
    ("structured", '{"cases": 2, "eliminated": 1, "inconclusive": 0, "ok": false, '
                   '"record": "summary", "violated": 1}\n'),
    ("text", "2 cases: 1 eliminated, 1 violated, 0 inconclusive\n"),
], ids=["structured", "text"])
def test_verify_all_summary_counts_a_violated_case(monkeypatch, capsys, fmt, summary):
    # a ledger with one failing case ends in a summary that is not ok, exit 1
    from planesieve import ledger
    reg = (ledger.CaseCheck(id="TOY-FINE", section="s", anchor="a", parameters="p",
                            check=lambda rec, _bound: None),
           ledger.CaseCheck(id="TOY-BAD", section="s", anchor="a", parameters="p",
                            check=lambda rec, _bound: rec.fail("broken", 1)))
    monkeypatch.setattr(ledger, "_default_registry", lambda: reg)
    code, out, _ = _run(capsys, "verify-all", "--format", fmt)
    assert code == 1
    lines = out.splitlines(keepends=True)
    assert len(lines) == 3 and lines[-1] == summary


def test_ledger_output_golden_digest(capsys):
    # byte-for-byte pin of every ledger report: the structured records of
    # verify-all without timings, and the exit code and text of verify for
    # every case id (section, claim, parameters and witnesses)
    code, out, _ = _run(capsys, "verify-all", "--format", "structured")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    for record in records:
        record.pop("elapsed_ms", None)
    structured = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert hashlib.sha256(structured.encode()).hexdigest() == (
        "a935143f0cf349b607e3f7660705b95780e02d133e8f6cb6002b0d860e71faa9")
    texts = []
    for case in REGISTRY:
        code, out, _ = _run(capsys, "verify", case.id)
        texts.append(f"{code}\n" + re.sub(r"\([0-9.]+ ms\)", "(_ ms)", out))
    assert len(texts) == 28
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "0cffc87aca466edf8e26269f7fedb84f5aa4b002fcf361a37bb5099fb545383e")


def test_verify_all_text_golden_digest(capsys):
    # byte-for-byte pin of text verify-all with its timing column masked
    # (its width varies): the default run, six INCONCLUSIVE lines with their
    # bounds, and PSL3-TYPE67 VIOLATED at bound=18, each with its exit code
    texts = []
    for argv in ((), ("--u-max", "10", "--q-max", "50"), ("--q-max", "18")):
        code, out, _ = _run(capsys, "verify-all", *argv)
        texts.append(f"{code}\n" + re.sub(r"\(\s*[0-9.]+ ms\)", "(_ ms)", out))
    assert [t.count("INCONCLUSIVE") for t in texts] == [0, 6, 3]
    assert "VIOLATED     PSL3-TYPE67      (_ ms)  bound=18\n" in texts[2]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "80b099f6a5cf19174b79722be2d30f7516122979fd69ec92db69d6f0ee7d4b97")


def test_bounded_replay_golden_digest(capsys):
    # byte-for-byte pin of `verify <id> --bound b` for every bounded case
    # at b = 1, default//2 and default-1, in text and structured form
    # without timings, plus the usage error of a bound on a fixed case
    texts = []
    for case in REGISTRY:
        if case.default_bound is None:
            continue
        for bound in (1, case.default_bound // 2, case.default_bound - 1):
            argv = ("verify", case.id, "--bound", str(bound))
            code, out, _ = _run(capsys, *argv)
            texts.append(f"{code}\n" + re.sub(r"\([0-9.]+ ms\)", "(_ ms)", out))
            code, out, _ = _run(capsys, *argv, "--format", "structured")
            record = json.loads(out)
            record.pop("elapsed_ms")
            texts.append(f"{code}\n{json.dumps(record, sort_keys=True)}\n")
    assert len(texts) == 6 * 13
    code, out, err = _run(capsys, "verify", "SPORADIC", "--bound", "3")
    texts.append(f"{code}\n{out}{err}")
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "9cda9a224102d32649c41e9aa327934b6d1e8d41816ce584b28115fd81afda45")


def test_verify_all_truncation_exit_code(capsys):
    code, out, _ = _run(capsys, "verify-all", "--u-max", "10")
    assert code == 1
    assert "inconclusive" in out


def test_verify_all_rejects_oversized_override(capsys):
    code, _, err = _run(capsys, "verify-all", "--u-max", str(10**7))
    assert code == 2
    assert "--u-max" in err
    for q_max in ("0", "1025"):
        assert _run(capsys, "verify-all", "--q-max", q_max) == (
            2, "", "error: --q-max must be in [1, 1024]\n")


def test_scan_text(capsys):
    code, out, _ = _run(capsys, "scan", "--u-min", "2", "--u-max", "4")
    assert code == 0
    assert "u=2 v=21=3 * 7" in out
    assert "3 rows, 3 survive" in out


def test_scan_structured_with_candidates(capsys):
    code, out, _ = _run(capsys, "scan", "--u-min", "2", "--u-max", "10",
                        "--candidates", "PSL 2 13", "--format", "structured")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[-1] == {"record": "summary", "rows": 9, "survivors": 3}
    by_u = {r["u"]: r for r in records[:-1]}
    gate = dict(map(tuple, by_u[4]["filters"]))["candidate-PSL(2,13)"]
    assert gate is True
    assert dict(map(tuple, by_u[2]["filters"]))["candidate-PSL(2,13)"] is False


def test_scan_structured_stream_golden_digest(capsys):
    # byte-for-byte pin of the row stream, candidate gates included
    code, out, _ = _run(capsys, "scan", "--u-min", "2", "--u-max", "2000",
                        "--candidates", "PSL 2 13,G2 7,PSU 5 7", "--format", "structured")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "456fca998952f0c1fe062320b3c01f697cf0feaa9a40a2670a3073c3cf2f7117")


# One candidate per catalog class; also the benchmark's seed-1 scan-low list.
WHOLE_CATALOG = ("PSL 2 49,PSL 2 59,PSL 2 8,PSL 3 71,PSL 3 16,PSL 9 103,PSL 4 5,"
                 "PSL 8 37,PSL 5 64,PSp 4 27,PSp 8 121,PSU 10 37,PSU 3 109,"
                 "POmega 7 73 o,POmega 13 59 o,G2 109,F4 31,3D4 67,E6 97 -,E7 7,"
                 "E7 5,E8 61")


def test_scan_whole_catalog_golden_digest(capsys):
    # one candidate per catalog class, each through the precomputed gate
    code, out, _ = _run(capsys, "scan", "--u-min", "2", "--u-max", "400",
                        "--candidates", WHOLE_CATALOG, "--format", "structured")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dcfb95c05c7560604adca2645235b2e556126d04e8927e5c3510713e6e4b532b")


def test_scan_low_seed_one_golden_digest(capsys):
    # the benchmark's seed-1 scan-low invocation, byte for byte; every
    # one of its 1499 rows is eliminated by some candidate
    code, out, _ = _run(capsys, "scan", "--u-min", "2", "--u-max", "1500",
                        "--candidates", WHOLE_CATALOG, "--format", "structured")
    assert code == 0
    assert out.endswith('{"record": "summary", "rows": 1499, "survivors": 0}\n')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "77d2a029789a21928c20accf6502663b44536ee02c38ff453e46afb5ff34622e")


@pytest.mark.parametrize("args, digest", [
    (("--u-min", "950001", "--u-max", "951000", "--format", "structured"),
     "2dbd722fad4c30a120aa40f4876ddc7590fe67ac26b3a9c521bdeeb502e31b21"),
    (("--u-min", "999001", "--u-max", "1000000", "--format", "structured"),
     "381232e9a1390dd48292d813f2744e27e50f26594fc0cbc925f9680b564a3531"),
    (("--u-min", "2", "--u-max", "20000"),
     "7fac1d0b4229aaf06b65a546bd395513d34d47a4fbb688898bd19a4ac1bfbd3f"),
], ids=["near-cap", "cap-edge", "low-text"])
def test_scan_range_golden_digest(capsys, args, digest):
    # byte-for-byte pins of plain scans, recorded before rows read their
    # halves off the root-class sieve
    code, out, _ = _run(capsys, "scan", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _RowCountingSink(io.StringIO):
    """A stdout stand-in that notes, at each write, how many rows the
    sieve had built by then."""

    def __init__(self, built):
        super().__init__()
        self.built = built
        self.writes = []

    def write(self, s):
        self.writes.append((len(self.built), s))
        return super().write(s)


@pytest.mark.parametrize("fmt, first_row, summary", [
    ("structured", '{"filters": ', '{"record": "summary", '),
    ("text", "u=2 ", "59 rows, "),
], ids=["structured", "text"])
def test_scan_writes_each_row_as_it_is_sieved(monkeypatch, fmt, first_row, summary):
    from planesieve import scan
    real, built = scan._row, []

    def spy(plane, candidates):
        built.append(plane.u)
        return real(plane, candidates)

    monkeypatch.setattr(scan, "_row", spy)
    sink = _RowCountingSink(built)
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["scan", "--u-min", "2", "--u-max", "60", "--candidates", "PSL 2 13",
                 "--format", fmt]) == 0
    assert built == list(range(2, 61))
    texts = [s for _, s in sink.writes]
    assert texts[0].startswith(first_row)
    assert sink.writes[0][0] == 1  # the first row is out before the second is built
    [at_summary] = [n for n, s in sink.writes if s.startswith(summary)]
    assert at_summary == 59 and texts[-2].startswith(summary)
    # each row line is one write, its newline included
    rows = texts[:-2]
    assert len(rows) == 59
    assert all(s.endswith("\n") and s.count("\n") == 1 for s in rows)


def test_scan_failing_midway_leaves_the_rows_before_it(monkeypatch, capsys):
    # the rows already sieved stay written; the stream ends without its
    # summary record, which marks it incomplete
    _, whole, _ = _run(capsys, "scan", "--u-min", "2", "--u-max", "4", "--format", "structured")
    from planesieve import scan
    real = scan._row

    def failing(plane, candidates):
        if plane.u == 5:
            raise RuntimeError("row 5 broke")
        return real(plane, candidates)

    monkeypatch.setattr(scan, "_row", failing)
    code, out, err = _run(capsys, "scan", "--u-min", "2", "--u-max", "60",
                          "--format", "structured")
    assert code == 3
    assert out == whole[:whole.index('{"record": "summary"')]
    assert [json.loads(line)["u"] for line in out.splitlines()] == [2, 3, 4]
    assert err.startswith("internal error: RuntimeError: row 5 broke")


def test_internal_index_error_is_not_a_usage_error(monkeypatch, capsys):
    # only a ValueError is a usage error; an IndexError raised inside the
    # sieve is an internal fault
    from planesieve import scan
    real = scan._row

    def failing(plane, candidates):
        if plane.u == 5:
            return ()[0]
        return real(plane, candidates)

    monkeypatch.setattr(scan, "_row", failing)
    code, _, err = _run(capsys, "scan", "--u-min", "2", "--u-max", "60")
    assert code == 3
    assert err.startswith("internal error: IndexError: ")


def test_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    def failing(spec):
        raise KeyError("x")

    monkeypatch.setattr(groups, "order_factorization", failing)
    assert _run(capsys, "order", "PSL", "2", "13") == (3, "", "internal error: KeyError: 'x'\n")


# Candidate lists for the row-encoder reference.  The first adds three
# groups with passing gates and the uncovered A7 to the whole catalog,
# which eliminates every row up to u = 3000; the second leaves the rows
# u = 3, 4, 10 standing; the third is a plain scan.
_ENCODER_CANDIDATES = (WHOLE_CATALOG + ",PSL 2 13,G2 7,PSU 5 7,A 7", "PSL 2 13,A 7", None)


def _reference_line(row, structured):
    """A scan row's line as the CLI wrote it before it encoded each filter
    trace once per scan: json.dumps of the whole record, or the text
    line's f-string."""
    if structured:
        return json.dumps({"record": "row", "u": row.u, "v": row.v,
                           "v_factors": row.v_factors.factors, "filters": row.filter_trace,
                           "survived": row.survived}, sort_keys=True)
    factors = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in row.v_factors.factors)
    trace = " ".join(f"{name}{'+' if passed else '-'}" for name, passed in row.filter_trace)
    tag = "survives" if row.survived else "ELIMINATED"
    return f"u={row.u} v={row.v}={factors} [{trace}] {tag}"


def _rows_match_reference(u_min, u_max, candidates):
    """Check every row line of both formats against _reference_line and
    return the rows."""
    specs = cli._parse_candidates(candidates) if candidates else None
    rows = sieve_orders(u_min, u_max, specs)
    extra = ("--candidates", candidates) if candidates else ()
    for structured in (True, False):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["scan", "--u-min", str(u_min), "--u-max", str(u_max), *extra,
                         "--format", "structured" if structured else "text"])
        assert code == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines):
            assert line == _reference_line(row, structured), row.u
    return rows


@pytest.mark.parametrize("candidates, survivors, entries", [
    (_ENCODER_CANDIDATES[0], [], {("candidate-A7", True), ("candidate-E8(61)", True),
                                  ("candidate-PSL(2,13)", False)}),
    (_ENCODER_CANDIDATES[1], [3, 4, 10], {("candidate-A7", True), ("candidate-PSL(2,13)", True),
                                          ("candidate-PSL(2,13)", False)}),
    (_ENCODER_CANDIDATES[2], list(range(2, 3001)), set()),
], ids=["catalog", "survivors", "plain"])
def test_scan_rows_match_reference_encoding(candidates, survivors, entries):
    rows = _rows_match_reference(2, 3000, candidates)
    assert [row.u for row in rows if row.survived] == survivors
    assert entries <= {entry for row in rows for entry in row.filter_trace}
    # the seven-cubed exemption at u = 18, the cofactor test at 18 and 19
    assert {("ljunggren-seven-cubed", True), ("kantor", True)} <= set(rows[16].filter_trace)
    assert ("kantor", True) in rows[17].filter_trace


@settings(max_examples=25, deadline=None)
@given(st.integers(2, U_CAP), st.integers(0, 200), st.sampled_from(_ENCODER_CANDIDATES))
@example(U_CAP - 200, 200, _ENCODER_CANDIDATES[0])
def test_scan_rows_match_reference_encoding_in_windows(u_min, width, candidates):
    _rows_match_reference(u_min, min(u_min + width, U_CAP), candidates)


# A candidate group as the CLI reads it: either well formed, a family of
# parse_group's grammar with its parameters drawn inside the caps (q
# mostly a prime power), or loose tokens: families, integers and junk.
_FAMILIES = sorted(groups._PARAMETERS)
_PARAMETER = {
    "n": st.integers(1, cli.RANK_CAP),
    "q": st.one_of(st.sampled_from([q for q in range(2, cli.Q_CAP + 1) if exactmath.is_prime_power(q)]),
                   st.integers(2, cli.Q_CAP)),
    "eps": st.sampled_from("+-o"),
    "name": st.sampled_from(sorted(groups.SPORADIC_ORDERS)),
}
_WELL_FORMED = st.sampled_from(_FAMILIES).flatmap(
    lambda fam: st.tuples(st.just(fam), *(_PARAMETER[name] for name in groups._PARAMETERS[fam])))
_LOOSE = st.lists(st.one_of(st.sampled_from(_FAMILIES), st.integers(-2, cli.Q_CAP),
                            st.text(max_size=3)), max_size=4)
_CANDIDATE = st.one_of(_WELL_FORMED, _LOOSE).map(lambda tokens: " ".join(map(str, tokens)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_CANDIDATE, max_size=3))
def test_scan_candidates_fuzz_exits_ok_or_usage(candidates):
    # every accepted group is prepared (class sizes, their lcm, the index
    # floor); a refused one is a usage error, never an internal one
    text = ",".join(candidates)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["scan", "--u-min", "2", "--u-max", "3", "--candidates", text])
        except SystemExit as exc:  # argparse refuses a value that looks like an option
            code = exc.code
    assert code in (0, 2), text


# A factor argument: an integer around the accepted range, or junk.  A
# junk token starting -h or --h would ask argparse for help, so none does.
_FACTOR_TOKEN = st.one_of(st.integers(-5, 10**18).map(str),
                          st.text(max_size=4).filter(lambda t: not t.startswith(("-h", "--h"))))


@settings(max_examples=200, deadline=None)
@given(st.lists(_FACTOR_TOKEN, max_size=2))
@example(["999999999999999989"])  # a prime
@example(["999999866000004473"])  # 999999929 * 999999937
def test_factor_fuzz_exits_ok_or_usage(tokens):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["factor", *tokens])
        except SystemExit as exc:  # argparse refuses a missing, extra or non-integer n
            code = exc.code
    assert code in (0, 2), tokens
    if code == 0:
        [token] = tokens
        head, factors = out.getvalue().rstrip("\n").split(" = ")
        powers = [(int(p), int(e or 1)) for p, _, e in
                  (term.partition("^") for term in factors.split(" * "))]
        assert int(head) == int(token) == prod(p**e for p, e in powers)


# A verify call: a registry id or a junk token (none asking argparse for
# help), no bound or one around the accepted range, and either format.
_CASE_TOKEN = st.one_of(st.sampled_from([case.id for case in REGISTRY]),
                        st.text(max_size=6).filter(lambda t: not t.startswith(("-h", "--h"))))
_BOUND_ARGS = st.one_of(st.just(()), st.integers(-5, 10**9).map(lambda b: ("--bound", str(b))))


@settings(max_examples=100, deadline=None)
@given(_CASE_TOKEN, _BOUND_ARGS, st.sampled_from(("text", "structured")))
@example("LJUNGGREN-SCAN", ("--bound", str(10**9)), "structured")
def test_verify_fuzz_exits_with_a_verdict_or_usage(case_id, bound_args, fmt):
    # a bound only tightens the registered default, so every call is
    # bounded by the case's default domain
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["verify", case_id, *bound_args, "--format", fmt])
        except SystemExit as exc:  # argparse refuses a token that looks like an option
            code = exc.code
    assert code in (0, 1, 2), (case_id, bound_args)
    if code != 2:
        if fmt == "structured":
            assert json.loads(out.getvalue())["id"] == case_id
        else:
            assert out.getvalue().startswith(f"{case_id}: ")


def test_order_and_index_grid_golden_digest(capsys):
    # byte-for-byte pin of `order` and `index --parabolic m` (m = 1..11,
    # value or error text) for every valid Lie-type spec with q <= 64 and
    # n <= 12, recorded when both factored the whole value
    digest = hashlib.sha256()
    for spec in _valid_specs(64, 12):
        tokens = [str(v) for v in (spec.family, spec.n, spec.q, spec.eps) if v is not None]
        for argv in (["order", *tokens],
                     *(["index", *tokens, "--parabolic", str(m)] for m in range(1, 12))):
            code, out, err = _run(capsys, *argv)
            digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == (
        "90b3cef3a833e99120cd71724f8baa9b3189704d3f1771a69cdc31e2bb931459")


@pytest.mark.parametrize("argv", [
    ("order", "E8", "61"),
    ("order", "PSU", "14", "31"),
    ("order", "PSL", "12", "64"),
    ("order", "POmega", "16", "9", "-"),
    ("order", "E6", "17", "-"),
    ("order", "2F4", "8"),
    ("index", "PSL", "12", "64", "--parabolic", "5"),
    ("index", "PSU", "9", "32", "--parabolic", "3"),
    ("index", "PSp", "10", "49", "--parabolic", "2"),
    ("index", "POmega", "12", "27", "+", "--parabolic", "1"),
    ("index", "G2", "25", "--parabolic", "1"),
])
def test_group_queries_factor_pieces_not_the_value(monkeypatch, capsys, argv):
    # every value here is a product of several cyclotomic pieces, so no
    # factorize call may see the value itself
    seen = []
    real = exactmath.factorize

    def spy(n):
        seen.append(n)
        return real(n)

    for module in (exactmath, groups, cli):
        monkeypatch.setattr(module, "factorize", spy, raising=False)
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    value = int(out.split(" = ")[1])
    assert seen and max(seen) < value


def test_scan_bad_range(capsys):
    code, _, err = _run(capsys, "scan", "--u-min", "9", "--u-max", "2")
    assert code == 2
    assert "inverted" in err


def test_scan_bad_candidate(capsys):
    code, _, err = _run(capsys, "scan", "--u-min", "2", "--u-max", "3",
                        "--candidates", "PSL 2")
    assert code == 2
    assert "parameter" in err


def test_group_caps_enforced(capsys):
    code, _, err = _run(capsys, "order", "PSL", "2", "2048")
    assert code == 2
    assert "exceeds the cap" in err

    code, _, err = _run(capsys, "order", "A", "99")
    assert code == 2
    assert "exceeds the cap" in err


def test_catalog_text(capsys):
    code, out, _ = _run(capsys, "catalog")
    assert code == 0
    assert "22 involution classes" in out
    assert "psl2-odd-plus" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8d8ff37b73186ffe1cc3c335e873a62f631112e4e6e35daa76ab0026b8be5b3f")


def test_catalog_structured(capsys):
    code, out, _ = _run(capsys, "catalog", "--format", "structured")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[-1] == {"record": "summary", "classes": 22}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "558f1f8fe93904c4a21b7186d26c30c7cb6fad91d197cab2e7fc3a158ea8bb1e")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# one call per subcommand kind, a usage error, --version, and a repeat
_MIXED_CALLS = (
    ["order", "PSL", "2", "13"],
    ["index", "PSL", "5", "2", "--parabolic", "1"],
    ["factor", "273"],
    ["scan", "--u-min", "2", "--u-max", "40", "--format", "structured"],
    ["verify", "ALT-BOUND"],
    ["index", "PSL", "5", "2"],
    ["--version"],
    ["order", "PSL", "2", "13"],
)


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    # `verify` prints its elapsed time
    return code, re.sub(r"\(\d+\.\d ms\)", "(ms)", captured.out), captured.err


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for _ in range(3):
        for argv in _MIXED_CALLS:
            _call(capsys, argv)
    assert cli._build_parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import planesieve.cli\n"
            "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


# The planesieve modules each subcommand loads, besides cli itself.
_GROUP_LAYERS = ("exactmath", "groups")
_SCAN_LAYERS = ("catalog", "exactmath", "groups", "plane", "scan")
_LEDGER_LAYERS = ("cases", "catalog", "exactmath", "groups", "ledger", "plane")


@pytest.mark.parametrize("argv, code, layers", [
    (["--version"], 0, ()),
    (["factor", "105301"], 0, ("exactmath",)),
    (["order", "E8", "7"], 0, _GROUP_LAYERS),
    (["index", "PSL", "5", "2", "--parabolic", "1"], 0, _GROUP_LAYERS),
    (["catalog"], 0, ("catalog", "exactmath", "groups")),
    (["scan", "--u-min", "2", "--u-max", "200", "--candidates", "PSL 2 13"], 0, _SCAN_LAYERS),
    (["verify", "ALT-BOUND", "--format", "structured"], 0, _LEDGER_LAYERS),
    (["verify-all", "--u-max", "10"], 1, _LEDGER_LAYERS),
    # only more than one worker loads the thread pool
    (["verify-all", "--jobs", "2", "--u-max", "10"], 1, _LEDGER_LAYERS),
    # a refused worker count fails before the case registry is imported
    (["verify-all", "--jobs", "0"], 2, ("exactmath", "ledger", "plane")),
], ids=["version", "factor", "order", "index", "catalog", "scan", "verify", "verify-all",
        "verify-all-jobs-2", "verify-all-jobs-0"])
def test_each_subcommand_imports_only_its_layers(argv, code, layers):
    child = ("import contextlib, io, sys\n"
             "from planesieve.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    try:\n"
             "        code = main(sys.argv[1:])\n"
             "    except SystemExit as exc:\n"
             "        code = exc.code\n"
             "print(code, 'concurrent.futures' in sys.modules)\n"
             "print(*sorted(m for m in sys.modules if m.startswith('planesieve.')))\n")
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    status, loaded = proc.stdout.splitlines()
    pool = "--jobs" in argv and int(argv[argv.index("--jobs") + 1]) > 1
    assert status == f"{code} {pool}"
    assert loaded.split() == sorted(f"planesieve.{m}" for m in ("cli", *layers))
    assert proc.stderr == ("error: jobs must be >= 1, got 0\n" if code == 2 else "")


def test_shared_parser_carries_no_state_between_calls(capsys):
    shared = [_call(capsys, argv) for argv in _MIXED_CALLS]
    fresh = []
    for argv in _MIXED_CALLS:
        cli._build_parser.cache_clear()
        fresh.append(_call(capsys, argv))
    assert [code for code, _, _ in shared] == [
        0, 0, 0, 0, 0, ("SystemExit", 2), ("SystemExit", 0), 0]
    assert shared == fresh


# (10**20 + 39) * (10**20 + 129): a semiprime with two 21-digit factors,
# far too large for Pollard rho to split in reasonable time.
_HARD_SEMIPRIME = "10000000000000000016800000000000000005031"


@pytest.mark.parametrize("argv", [
    ["order", "PSL", "2", _HARD_SEMIPRIME],
    ["scan", "--u-min", "2", "--u-max", "3", "--candidates", f"PSL 2 {_HARD_SEMIPRIME}"],
])
def test_group_q_validated_in_bounded_time(argv):
    proc = _cli_process(argv)
    assert proc.returncode == 2
    assert "is not a prime power" in proc.stderr


def _src_env():
    src = str(Path(planesieve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_process(argv):
    return subprocess.run([sys.executable, "-m", "planesieve.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=30)


def test_scan_into_a_closed_pipe_exits_quietly():
    # about 2.9 MB of rows, far past the pipe buffer, so the writer meets
    # the closed pipe: main's BrokenPipeError branch exits 0, and the
    # interpreter's last flush finds nothing to complain about
    proc = subprocess.Popen([sys.executable, "-m", "planesieve.cli", "scan", "--u-min", "2",
                             "--u-max", "20000"], env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.startswith(b"u=2 v=21=3 * 7 ")
    assert (proc.returncode, err) == (0, b"")


def test_scan_of_the_whole_range_stops_soon_after_its_reader():
    # rows reach the pipe a buffer at a time while the sieve runs, so the
    # child meets the closed pipe at its next flush, long before it could
    # sieve the 10^6 rows of the range
    proc = subprocess.Popen([sys.executable, "-m", "planesieve.cli", "scan", "--u-min", "2",
                             "--u-max", str(U_CAP), "--format", "structured"], env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert json.loads(first)["u"] == 2
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_into_a_closed_pipe_exits_quietly(jobs):
    # the reader goes away after the first record, while the replay is
    # still running: the next flush meets the closed pipe, and the pool's
    # workers wind down without a hang or a traceback
    proc = subprocess.Popen([sys.executable, "-m", "planesieve.cli", "verify-all",
                             "--format", "structured", "--jobs", jobs], env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert json.loads(first)["id"] == REGISTRY[0].id
    assert (proc.returncode, err) == (0, b"")


def test_oversized_group_value_fails_in_bounded_time():
    # |PSL(50,1019)| is past the int-to-str digit limit; the value is
    # formatted before anything is factored, so the query fails at once,
    # as an internal error rather than a usage error
    proc = _cli_process(["order", "PSL", "50", "1019"])
    assert proc.returncode == 3
    assert f"{sys.get_int_max_str_digits()} digits" in proc.stderr
    assert "int-to-str" in proc.stderr


@pytest.mark.parametrize("argv", [["order", "E8", "1021"], ["order", "PSU", "20", "128"],
                                  ["order", "PSL", "16", "1024"]])
def test_large_group_orders_answer_in_bounded_time(argv):
    proc = _cli_process(argv)
    assert proc.returncode == 0
    _, value, factors = proc.stdout.strip().split(" = ")
    powers = [(int(p), int(e or 1)) for p, _, e in
              (term.partition("^") for term in factors.split(" * "))]
    assert prod(p**e for p, e in powers) == int(value)
    sympy = pytest.importorskip("sympy")
    assert all(sympy.isprime(p) for p, _ in powers)


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_sample(command):
    """The output README.md shows under `$ planesieve <command>`, up to the
    next prompt or the end of its code block."""
    lines = _README.read_text().splitlines()
    start = lines.index(f"$ planesieve {command}") + 1
    end = next(i for i in range(start, len(lines))
               if lines[i].startswith("$ ") or lines[i] == "```")
    return "".join(line + "\n" for line in lines[start:end])


@pytest.mark.parametrize("command", ["verify PSL2-Q13", "order PSL 2 13",
                                     "index PSL 5 2 --parabolic 1", "factor 105301"])
def test_readme_samples_match_the_cli(capsys, command):
    code, out, _ = _run(capsys, *command.split())
    assert code == 0

    def mask(text):
        return re.sub(r"[0-9.]+ ms\)", "<ms> ms)", text)

    assert mask(out) == mask(_readme_sample(command))


def test_readme_library_block_runs():
    [block] = re.findall(r"^```python\n(.*?)^```$", _README.read_text(), re.M | re.S)
    exec(block, {})
