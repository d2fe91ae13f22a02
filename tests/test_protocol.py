import random
from pathlib import Path

import pytest

from helpers import CAR_STATEMENT, CAR_TABLE, all_assignments, random_statement
from zkfabric.circuit import compile_expression, evaluate_plain
from zkfabric.errors import ArityMismatch, DepthZero
from zkfabric.hashing import HashDrbg, commit_bit
from zkfabric.protocol import (
    AggregatorEngine,
    SessionParams,
    VerifierEngine,
    ProverEngine,
    parse_bits,
    replay_board,
    run_session,
    run_simulation,
)
from zkfabric.repository import Repository, encode_record, make_record
from zkfabric.syntax import syn_gen

GOLDEN_BOARD = Path(__file__).parent / "golden" / "car_toy23.board"

CAR_KIND_SEQUENCE = [
    "session_init",
    "statement_commit",
    "mask_commit",
    "mask_commit",
    "garbled_partition",
    "prover_labels",
    "garbled_partition",
    "prover_labels",
    "ot_choose",
    "ot_choose",
    "ot_transfer",
    "ot_transfer",
    "partition_output",
    "mask_reveal",
    "partition_output",
    "mask_reveal",
    "aggregate_publish",
    "ot_choose",
    "ot_transfer",
    "aggregate_output",
    "final_verdict",
]


def car_run(witness, claim, seed=1, **kw):
    kw.setdefault("group", "toy23")
    return run_simulation(CAR_STATEMENT, witness, claim, seed=seed, **kw)


def test_car_accept_record_sequence():
    transcript = car_run("111", 1)
    assert transcript.verdict == "accept"
    assert transcript.reason is None
    assert [r.kind for r in transcript.records] == CAR_KIND_SEQUENCE
    assert [r.seq for r in transcript.records] == list(range(21))


def test_car_record_authors():
    transcript = car_run("111", 1)
    by_kind = {}
    for rec in transcript.records:
        by_kind.setdefault(rec.kind, []).append(rec.author)
    assert by_kind["session_init"] == ["prover"]
    assert by_kind["mask_commit"] == ["verifier-1", "verifier-2"]
    assert by_kind["partition_output"] == ["verifier-1", "verifier-2"]
    assert by_kind["aggregate_output"] == ["aggregator"]
    assert by_kind["final_verdict"] == ["prover"]


def test_car_verdict_oracle():
    assert car_run("111", 1).verdict == "accept"
    assert car_run("011", 1).verdict == "reject"
    assert car_run("011", 0).verdict == "accept"
    assert car_run("110", 1).verdict == "accept"


def test_witness_length_mismatch():
    with pytest.raises(ArityMismatch):
        car_run("11", 1)


def test_verifier_count_must_match_partitions():
    with pytest.raises(ArityMismatch):
        car_run("111", 1, n_verifiers=3)
    assert car_run("111", 1, n_verifiers=2).verdict == "accept"


def test_single_clause_statement_degenerates():
    with pytest.raises(DepthZero):
        run_simulation("one lonely clause", "1", 1, group="toy23")


def test_parse_bits():
    assert parse_bits("101") == (1, 0, 1)
    assert parse_bits([1, 0, 1]) == (1, 0, 1)
    assert parse_bits((True, False)) == (1, 0)
    with pytest.raises(ArityMismatch):
        parse_bits("10x")
    with pytest.raises(ArityMismatch):
        parse_bits("")


def test_session_params_validation():
    with pytest.raises(ValueError):
        SessionParams("s", 1, lambda_h=200)
    with pytest.raises(ValueError):
        SessionParams("s", 1, label_bits=64)
    with pytest.raises(ValueError):
        SessionParams("s", 2)


def test_session_params_verifier_seeds():
    params = SessionParams("s", 1, verifier_seeds=(11, 22))
    assert params.verifier_seed(1) == 11
    assert params.verifier_seed(2) == 22
    assert params.verifier_seed(3) == SessionParams("s", 1).verifier_seed(3)


def test_session_params_from_master():
    a = SessionParams.from_master(5, 1)
    b = SessionParams.from_master(5, 1)
    c = SessionParams.from_master(6, 1)
    assert a == b
    assert a.session_id != c.session_id
    assert a.prover_seed != c.prover_seed
    custom = SessionParams.from_master(5, 1, session_id="mine", group=None)
    assert custom.session_id == "mine"
    assert custom.group == "modp2048"


def test_transcripts_are_deterministic():
    first = car_run("111", 1, seed=99)
    second = car_run("111", 1, seed=99)
    assert [encode_record(r) for r in first.records] == [
        encode_record(r) for r in second.records]
    third = car_run("111", 1, seed=98)
    assert [encode_record(r) for r in first.records] != [
        encode_record(r) for r in third.records]


def test_board_file_written(tmp_path):
    path = tmp_path / "board.jsonl"
    transcript = run_simulation(CAR_STATEMENT, "111", 1, seed=7,
                                group="toy23", board_path=path)
    again = Repository(path)
    assert list(again) == transcript.records


def test_golden_board_bytes(tmp_path):
    path = tmp_path / "board.jsonl"
    run_simulation(CAR_STATEMENT, "111", 1, seed=20260818, group="toy23",
                   board_path=path)
    assert path.read_bytes() == GOLDEN_BOARD.read_bytes()


def test_golden_board_replays():
    reports = replay_board(Repository(GOLDEN_BOARD))
    assert len(reports) == 1
    assert reports[0].verdict == "accept"
    assert reports[0].ok


def test_timings_recorded():
    transcript = car_run("111", 1)
    assert "prover.bootstrap" in transcript.timings
    assert any(key.startswith("aggregator.") for key in transcript.timings)
    assert all(v >= 0 for v in transcript.timings.values())


def test_x1m_is_xor_of_revealed_masks():
    for seed in range(4):
        transcript = car_run("111", 1, seed=seed)
        reveals = [r.body for r in transcript.records if r.kind == "mask_reveal"]
        publish = next(r.body for r in transcript.records
                       if r.kind == "aggregate_publish")
        want = 0
        for body in reveals:
            want ^= int(body["r"])
        assert publish["x1m"] == want


def test_published_partitions_carry_no_decode_map():
    transcript = car_run("111", 1)
    for rec in transcript.records:
        if rec.kind == "garbled_partition":
            assert "decode" not in rec.body
        if rec.kind == "prover_labels":
            assert len(rec.body["labels"]) == 1


def test_audit_collects_inactive_labels():
    transcript = car_run("111", 1)
    audit = transcript.audit
    assert audit is not None
    assert audit.witness == (1, 1, 1)
    assert audit.f_value == 1
    assert len(audit.inactive_labels) == 25
    assert len(set(audit.inactive_labels)) == 25


def test_commit_reveal_binding_flipped_mask_aborts():
    class MaskFlippingVerifier(VerifierEngine):
        flipped = False

        def _await_partition(self):
            if not self.flipped:
                self.r ^= 1
                self.flipped = True
            return super()._await_partition()

    params = SessionParams.from_master(3, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-1": MaskFlippingVerifier})
    assert transcript.verdict == "abort"
    assert transcript.reason == "CommitMismatch"
    assert transcript.audit is None


def test_forged_partition_output_aborts():
    class ForgingVerifier(VerifierEngine):
        def _await_transfer(self):
            mine = [r for r in self._fetch("ot_transfer")
                    if r.body["session_id"] == f"mask-{self.index}"]
            if not mine:
                return None
            self._post("partition_output", {
                "part": self.index,
                "label": self.drbg.random_bytes(16).hex(),
            })
            self._post("mask_reveal", {
                "part": self.index, "r": self.r, "salt": self.salt.hex(),
            })
            self.done = True
            return "evaluate"

    params = SessionParams.from_master(4, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-2": ForgingVerifier})
    assert transcript.verdict == "abort"
    assert transcript.reason == "PartitionOutputInvalid"


def test_corrupted_tables_abort_with_decrypt_failure():
    class CorruptingProver(ProverEngine):
        def _post(self, kind, body):
            if kind == "garbled_partition":
                body = dict(body)
                body["tables"] = [["00" * 24] * 4 for _ in body["tables"]]
            return super()._post(kind, body)

    params = SessionParams.from_master(5, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"prover": CorruptingProver})
    assert transcript.verdict == "abort"
    assert transcript.reason == "DecryptFailure"


def test_lying_aggregator_aborts():
    class FlippingAggregator(AggregatorEngine):
        def _decide(self, y, y_claim):
            return 1 - super()._decide(y, y_claim)

    params = SessionParams.from_master(6, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"aggregator": FlippingAggregator})
    assert transcript.verdict == "abort"
    assert transcript.reason == "VerdictMismatch"


def test_duplicate_commit_first_one_wins():
    class DoubleCommitVerifier(VerifierEngine):
        def _commit(self):
            out = super()._commit()
            lam = int(self._session_init()["lambda_h"])
            self._post("mask_commit", {
                "part": self.index,
                "commitment": commit_bit(1 - self.r, self.salt, lam),
            })
            return out

    params = SessionParams.from_master(7, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-1": DoubleCommitVerifier})
    assert transcript.verdict == "accept"
    commits = [r for r in transcript.records if r.kind == "mask_commit"]
    assert len(commits) == 3


def test_stalled_session_raises_instead_of_spinning():
    class StallingVerifier(VerifierEngine):
        def step(self):
            return None

    params = SessionParams.from_master(8, 1, group="toy23")
    with pytest.raises(RuntimeError):
        run_session(params, CAR_STATEMENT, "111", Repository(),
                    engine_overrides={"verifier-1": StallingVerifier})


def test_replay_validates_accept_board():
    transcript = car_run("111", 1, seed=21)
    report = replay_board(transcript.records)[0]
    assert report.verdict == "accept"
    assert report.ok
    names = [name for name, _, _ in report.checks]
    for wanted in ("record_digests", "opens_with_init", "closes_with_verdict",
                   "commit_opens_part_1", "commit_opens_part_2",
                   "ot_consistency_mask-1", "ot_consistency_mask-2",
                   "ot_consistency_xm", "partition_label_valid_1",
                   "partition_label_valid_2", "aggregate_decode",
                   "verdict_matches_aggregator"):
        assert wanted in names


def test_replay_validates_abort_board():
    class FlippingAggregator(AggregatorEngine):
        def _decide(self, y, y_claim):
            return 1 - super()._decide(y, y_claim)

    params = SessionParams.from_master(9, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"aggregator": FlippingAggregator})
    report = replay_board(transcript.records)[0]
    assert report.verdict == "abort"
    assert report.ok


def test_replay_catches_reforged_output():
    transcript = car_run("111", 1, seed=22)
    records = list(transcript.records)
    target = records[19]
    assert target.kind == "aggregate_output"
    body = dict(target.body)
    body["y"] = 1 - int(body["y"])
    records[19] = make_record(target.seq, target.session, target.author,
                              target.kind, body)
    report = replay_board(records)[0]
    assert not report.ok
    failing = {name for name, ok, _ in report.checks if not ok}
    assert "aggregate_decode" in failing


def test_replay_catches_stale_digest():
    transcript = car_run("111", 1, seed=23)
    records = list(transcript.records)
    target = records[2]
    records[2] = type(target)(target.seq, target.session, target.author,
                              target.kind, {"part": 1, "commitment": "00"},
                              target.digest)
    report = replay_board(records)[0]
    assert not report.ok
    failing = {name for name, ok, _ in report.checks if not ok}
    assert "record_digests" in failing


@pytest.mark.parametrize("salt", ["zz", 12])
def test_replay_reports_non_hex_salt(salt):
    records = list(Repository(GOLDEN_BOARD))
    i, target = next((i, r) for i, r in enumerate(records)
                     if r.kind == "mask_reveal")
    body = dict(target.body, salt=salt)
    records[i] = make_record(target.seq, target.session, target.author,
                             target.kind, body)
    report = replay_board(records)[0]
    assert not report.ok
    part = target.body["part"]
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert failed == [(f"commit_opens_part_{part}",
                       f"mask_reveal.salt {salt!r} is not hex")]


def test_session_on_a_busy_board_posts_what_it_posts_alone():
    """Other sessions on the board change only the seq numbers of a
    session's records, never what it posts or its verdict."""
    busy = Repository()
    for seed, witness, claim in ((31, "111", 1), (32, "011", 1), (33, "101", 0)):
        params = SessionParams.from_master(seed, claim, group="toy23")
        run_session(params, CAR_STATEMENT, witness, busy)
    params = SessionParams.from_master(34, 1, group="toy23")
    on_busy = run_session(params, CAR_STATEMENT, "111", busy)
    alone = run_session(params, CAR_STATEMENT, "111", Repository())
    assert on_busy.records[0].seq == 63
    assert on_busy.verdict == alone.verdict == "accept"
    assert [(r.author, r.kind, r.body) for r in on_busy.records] == [
        (r.author, r.kind, r.body) for r in alone.records]


def test_completeness_and_soundness_random_statements():
    rng = random.Random(1202)
    for trial in range(30):
        text = random_statement(rng, 2, 4)
        reduced, statement = syn_gen(text)
        circuit = compile_expression(reduced)
        witness = tuple(rng.randint(0, 1) for _ in range(statement.n_vars))
        f = evaluate_plain(circuit, witness)
        true_run = run_simulation(text, witness, f, seed=trial, group="toy23")
        assert true_run.verdict == "accept"
        false_run = run_simulation(text, witness, 1 - f, seed=trial,
                                   group="toy23")
        assert false_run.verdict == "reject"


def test_car_exhaustive_witnesses_on_toy_group():
    for i, witness in enumerate(all_assignments(3)):
        f = CAR_TABLE[i]
        text = "".join(str(b) for b in witness)
        assert car_run(text, f, seed=i).verdict == "accept"
        assert car_run(text, 1 - f, seed=i).verdict == "reject"


def test_modp2048_smoke():
    transcript = run_simulation(CAR_STATEMENT, "111", 1, seed=12,
                                group="modp2048")
    assert transcript.verdict == "accept"
    report = replay_board(transcript.records)[0]
    assert report.ok


def test_lambda_128_sessions_work():
    transcript = car_run("111", 1, lambda_h=128)
    assert transcript.verdict == "accept"
    init = transcript.records[0].body
    assert init["lambda_h"] == 128


def test_aggregator_private_bit_varies_with_seed():
    seen = set()
    for seed in range(8):
        params = SessionParams.from_master(seed, 1, group="toy23")
        drbg = HashDrbg(params.aggregator_seed,
                        context=f"{params.session_id}/aggregator")
        seen.add(drbg.randbit())
    assert seen == {0, 1}
