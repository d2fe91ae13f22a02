"""Tests of the benchmark's own checks: python3 -m pytest bench -q"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from zkfabric import Repository, run_session  # noqa: E402
from zkfabric.repository import encode_record  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(job, repo=None):
    return run_session(job.params, job.statement, job.witness,
                       repo if repo is not None else Repository())


def _car_job(witness, claim, seed=3):
    jobs = workloads.car_jobs(random.Random(seed), "toy23", set())
    return next(j for j in jobs if j.witness == witness and j.claim == claim)


def test_oracle_reproduces_the_car_table():
    assert oracle.truth_table(workloads.CAR_STATEMENT) == (1, 1, 1, 0, 1, 1, 1, 1)


def test_oracle_precedence_and_readings():
    cases = [
        ("a [or] b [and] c", "100", 1),
        ("a [or] b [and] c", "011", 1),
        ("a [or] b [and] c", "010", 0),
        ("a [xor] b [and] c", "110", 1),   # a ^ (b & c)
        ("a [and] b [xor] c", "111", 0),   # (a & b) ^ c
        ("a [xor] b [or] c", "110", 0),    # (a ^ b) | c
        ("a [if] b", "01", 0),             # b -> a
        ("a [if] b", "10", 1),
        ("a [not] b", "11", 0),            # a & ~b
        ("a [not] b", "10", 1),
        ("a [not] b [not] c", "101", 0),   # (a & ~b) & ~c
        ("a [if] b [if] c", "011", 0),     # (a | ~b) | ~c
        ("a [if] b [and] c", "011", 0),    # (b & c) -> a
        ("a [or] b [not] c", "011", 0),    # a | (b & ~c)
    ]
    for text, witness, value in cases:
        assert oracle.statement_value(text, witness) == value, (text, witness)


def test_sop_table_reads_cubes():
    assert oracle.sop_table("1-0 + 01-", 3) == (0, 0, 1, 1, 1, 0, 1, 0)
    assert oracle.sop_table("0", 2) == (0, 0, 0, 0)
    assert oracle.sop_table("--", 2) == (1, 1, 1, 1)


def test_verdict_check_fails_on_a_flipped_claim():
    job = _car_job("011", 0)  # the statement is false under 011
    transcript = _run(job)
    assert transcript.verdict == "accept"
    assert workloads.session_problems(job, transcript) == []
    flipped = _car_job("011", 1)
    problems = workloads.session_problems(flipped, transcript)
    assert problems and "oracle says reject" in problems[0]


def test_audit_checks_sessions_records_and_leaks():
    bench = workloads.MixedToy23(0, "")
    bench.jobs = bench.make_jobs()[:3]
    bench.start_round()
    verdicts = {}
    audit = workloads.Audit()
    for job in bench.jobs:
        tr = _run(job, bench.board())
        verdicts[tr.session_id] = tr.verdict
        assert bench.audit_session(audit) > 0
    assert bench.audit_round(audit) is None
    clauses = {text for job in bench.jobs
               for text in oracle.split_statement(job.statement)[0]}
    assert workloads.audit_problems(audit, verdicts, clauses) == []
    assert workloads.audit_problems(audit, {**verdicts, "s000000000000": "accept"},
                                    clauses)
    other = {sid: ("reject" if v == "accept" else "accept") for sid, v in verdicts.items()}
    assert workloads.audit_problems(audit, other, clauses)
    audit.raw[0] += min(clauses).encode()
    assert any("clause text" in p for p in workloads.audit_problems(audit, verdicts, clauses))


def test_leak_scan_finds_a_clause_escaped_as_json():
    audit = workloads.Audit(raw=[b'{"body":{"note":"the \\"start\\" button is pressed"}}'])
    problems = workloads.audit_problems(audit, {}, {'the "start" button is pressed'})
    assert any("clause text" in p for p in problems)


def test_prefilled_board_equals_the_sessions_run_in_turn(tmp_path):
    bench = workloads.Board10k(5, str(tmp_path))
    bench.PREFILL_SESSIONS = 16
    bench.setup()
    rng = bench.rng("prefill")
    sequential = Repository()
    for job in workloads.car_jobs(rng, "toy23", set()):
        _run(job, sequential)
    assert bench._prefill == b"".join(encode_record(r) + b"\n" for r in sequential)


def test_mixed_rounds_are_seeded_and_use_every_operator():
    first = workloads.MixedToy23(7, "").make_jobs()
    again = workloads.MixedToy23(7, "").make_jobs()
    assert [(j.statement, j.witness, j.claim, j.params) for j in first] == \
           [(j.statement, j.witness, j.claim, j.params) for j in again]
    ops = {op for j in first for op in oracle.split_statement(j.statement)[1]}
    assert ops == set(oracle.PRECEDENCE)
    assert len({j.params.session_id for j in first}) == len(first)


def test_tracer_counts_and_uninstalls():
    import zkfabric.hashing
    import zkfabric.ot
    import zkfabric.protocol
    before = (zkfabric.protocol.garble_full, Repository.fetch,
              zkfabric.hashing.hashlib, zkfabric.ot.in_subgroup)
    tracer = Tracer()
    tracer.install()
    try:
        job = _car_job("101", 1)
        tracer.begin_session()
        tr = _run(job)
        tracer.end_session(0.01, tr)
    finally:
        tracer.uninstall()
    assert (zkfabric.protocol.garble_full, Repository.fetch,
            zkfabric.hashing.hashlib, zkfabric.ot.in_subgroup) == before
    assert "pow" not in vars(zkfabric.ot)
    tracer.audits.append({"load_us_per_record": 1.0, "replay_ms_per_session": 1.0,
                          "sha256_per_session": 1.0})
    figures = tracer.metrics()
    assert figures["ot.transfers"][0] == 3
    assert figures["ot.modexp_per_transfer"][0] == 8
    assert figures["ot.subgroup_checks_per_transfer"][0] == 3
    assert figures["circuit.parts"][0] == 2
    assert figures["repository.fetch_calls"][0] > 0
    assert figures["hashing.sha256_calls"][0] > 0
