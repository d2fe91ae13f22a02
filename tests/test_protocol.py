import hashlib
import random
import re
import time

import pytest

import zkfabric.hashing
import zkfabric.protocol
import zkfabric.repository
from helpers import (
    CAR_STATEMENT,
    CAR_TABLE,
    GOLDEN_BOARD,
    all_assignments,
    audited_session,
    audited_simulation,
    board_of,
    edited_golden,
    random_statement,
)
from zkfabric.circuit import compile_expression, evaluate_plain
from zkfabric.errors import ArityMismatch, DepthZero, DigestMismatch
from zkfabric.hashing import HashDrbg, commit_bit
from zkfabric.protocol import (
    AggregatorEngine,
    SessionParams,
    VerifierEngine,
    ProverEngine,
    parse_bits,
    read,
    replay_board,
    run_session,
    run_simulation,
)
from zkfabric.repository import Repository, encode_record, make_record
from zkfabric.syntax import syn_gen

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
        SessionParams("s", 2)


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


def test_timings_carry_the_traced_phase_names():
    """The phases bench/tracing.py reads, verifier-<i> summed as verifier."""
    transcript = car_run("111", 1)
    phases = {re.sub(r"^verifier-\d+\.", "verifier.", key)
              for key in transcript.timings}
    assert phases == {
        "prover.bootstrap", "prover.publish_partitions", "prover.ot_transfer",
        "prover.aggregate_setup", "prover.final", "verifier.commit",
        "verifier.choose", "verifier.evaluate", "aggregator.choose",
        "aggregator.aggregate",
    }


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
    transcript = audited_simulation(CAR_STATEMENT, "111", 1, seed=1, group="toy23")
    audit = transcript.audit
    assert audit is not None
    assert audit.witness == (1, 1, 1)
    assert audit.f_value == 1
    assert len(audit.inactive_labels) == 25
    # the aggregate's part-input wires share their parts' output labels
    assert len(set(audit.inactive_labels)) == 23


def test_commit_reveal_binding_flipped_mask_aborts():
    class MaskFlippingVerifier(VerifierEngine):
        flipped = False

        def _await_partition(self):
            if not self.flipped:
                self.r ^= 1
                self.flipped = True
            return super()._await_partition()

    params = SessionParams.from_master(3, 1, group="toy23")
    transcript = audited_session(params, CAR_STATEMENT, "111", Repository(),
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


class DoubleCommitVerifier(VerifierEngine):
    def _commit(self):
        out = super()._commit()
        lam = read(self._session_init(), "lambda_h")
        self._post("mask_commit", {
            "part": self.index,
            "commitment": commit_bit(1 - self.r, self.salt, lam),
        })
        return out


def test_duplicate_commit_first_one_wins():
    params = SessionParams.from_master(7, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-1": DoubleCommitVerifier})
    assert transcript.verdict == "accept"
    commits = [r for r in transcript.records if r.kind == "mask_commit"]
    assert len(commits) == 3


def test_replay_keeps_the_first_commit_of_a_part():
    """Replay checks a reveal against its part's first mask_commit, the one
    the prover keeps, so a second commit fails only parts_match_init."""
    params = SessionParams.from_master(7, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-1": DoubleCommitVerifier})
    report = replay_board(board_of(transcript.records))[0]
    assert ("commit_opens_part_1", True, "") in report.checks
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert [name for name, _ in failed] == ["parts_match_init"]
    assert "mask_commit parts [1, 1, 2]" in failed[0][1]


class DoubleRevealVerifier(VerifierEngine):
    def _post(self, kind, body):
        rec = super()._post(kind, body)
        if kind == "mask_reveal":
            super()._post(kind, body)
        return rec


def test_replay_xors_the_first_reveal_of_each_part():
    """x1m is the XOR of the masks that each part's first mask_reveal opens,
    the ones the prover reads, so a repeated reveal fails only
    parts_match_init."""
    params = SessionParams.from_master(7, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-1": DoubleRevealVerifier})
    assert transcript.verdict == "accept"
    report = replay_board(board_of(transcript.records))[0]
    assert ("x1m_matches_reveals", True, "") in report.checks
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert [name for name, _ in failed] == ["parts_match_init"]
    assert "mask_reveal parts [1, 1, 2]" in failed[0][1]


def test_replay_xors_no_mask_that_a_first_reveal_did_not_open():
    board, _ = edited_golden("mask_reveal", "salt", "00" * 16)
    report = replay_board(board)[0]
    assert [name for name, ok, _ in report.checks if not ok] == ["commit_opens_part_1"]
    assert "x1m_matches_reveals" not in [name for name, _, _ in report.checks]


@pytest.mark.parametrize("role, kind, field, value", [
    ("verifier-1", "mask_commit", "part", "x"),
    ("verifier-2", "ot_choose", "y0", "zz"),
])
def test_malformed_record_aborts_instead_of_raising(role, kind, field, value):
    class MalformingVerifier(VerifierEngine):
        def _post(self, posted_kind, body):
            if posted_kind == kind:
                body = {**body, field: value}
            return super()._post(posted_kind, body)

    params = SessionParams.from_master(10, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={role: MalformingVerifier})
    assert transcript.verdict == "abort"
    assert transcript.reason == "MalformedRecord"
    verdicts = [r for r in transcript.records if r.kind == "final_verdict"]
    assert [r.author for r in verdicts] == ["prover"]
    report = replay_board(board_of(transcript.records))[0]
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["well_formed"]


@pytest.mark.parametrize("kind, field, reader", [
    ("prover_labels", "labels", "verifier-1"),
    ("aggregate_publish", "input_labels", "aggregator"),
])
def test_wrong_typed_body_aborts_instead_of_raising(kind, field, reader):
    class ListingProver(ProverEngine):
        def _post(self, posted_kind, body):
            if posted_kind == kind:
                body = {**body, field: list(body[field].values())}
            return super()._post(posted_kind, body)

    params = SessionParams.from_master(10, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"prover": ListingProver})
    assert (transcript.verdict, transcript.reason) == ("abort", "MalformedRecord")
    verdicts = [r for r in transcript.records if r.kind == "final_verdict"]
    assert [r.author for r in verdicts] == [reader]


def _shorter_tables(body):
    return {**body, "tables": body["tables"][:-1]}


def _three_row_gate(body):
    return {**body, "tables": [body["tables"][0][:3]] + body["tables"][1:]}


def _one_const_label(body):
    return {**body, "const_labels": body["const_labels"][:1]}


def _empty_labels(body):
    return {**body, "labels": {wire: "" for wire in body["labels"]}}


@pytest.mark.parametrize("kind, edit", [
    ("garbled_partition", _shorter_tables),
    ("garbled_partition", _three_row_gate),
    ("garbled_partition", _one_const_label),
    ("prover_labels", _empty_labels),
])
def test_wrong_shaped_garbled_data_aborts(kind, edit):
    class MisshapingProver(ProverEngine):
        def _post(self, posted_kind, body):
            return super()._post(posted_kind,
                                 edit(body) if posted_kind == kind else body)

    params = SessionParams.from_master(10, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"prover": MisshapingProver})
    assert (transcript.verdict, transcript.reason) == ("abort", "MalformedRecord")
    verdicts = [r for r in transcript.records if r.kind == "final_verdict"]
    assert [r.author for r in verdicts] == ["verifier-1"]


def test_prover_garbles_only_after_every_part_committed():
    """A commit for a part that does not exist must not stand in for a
    verifier that commits late."""
    class ExtraCommitVerifier(VerifierEngine):
        def _commit(self):
            out = super()._commit()
            self._post("mask_commit", {"part": 3, "commitment": "00"})
            return out

    class LateVerifier(VerifierEngine):
        held = False

        def _commit(self):
            if not self.held:
                self.held = True
                return None
            return super()._commit()

    params = SessionParams.from_master(7, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-1": ExtraCommitVerifier,
                                               "verifier-2": LateVerifier})
    assert transcript.verdict == "accept"
    seqs = {(r.kind, r.body.get("part")): r.seq for r in transcript.records}
    last_commit = max(seqs["mask_commit", 1], seqs["mask_commit", 2])
    assert all(r.seq > last_commit for r in transcript.records
               if r.kind == "garbled_partition")


def test_duplicate_partition_output_first_one_wins():
    """The prover and the aggregator read a part's first partition_output,
    so a forged second one changes no verdict; replay still fails it."""
    class DoublePostingVerifier(VerifierEngine):
        def _post(self, kind, body):
            rec = super()._post(kind, body)
            if kind == "partition_output":
                super()._post(kind, {**body, "label": "ab" * 16})
            return rec

    params = SessionParams.from_master(7, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"verifier-1": DoublePostingVerifier})
    assert transcript.verdict == "accept"
    outputs = [r for r in transcript.records
               if r.kind == "partition_output" and r.body["part"] == 1]
    assert outputs[1].body["label"] == "ab" * 16
    report = replay_board(board_of(transcript.records))[0]
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["partition_label_valid_1"]


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
    report = replay_board(board_of(transcript.records))[0]
    assert report.verdict == "accept"
    assert report.ok
    names = [name for name, _, _ in report.checks]
    for wanted in ("closes_with_verdict",
                   "commit_opens_part_1", "commit_opens_part_2",
                   "ot_consistency_mask-1", "ot_consistency_mask-2",
                   "ot_consistency_xm", "partition_label_valid_1",
                   "partition_label_valid_2", "aggregate_decode",
                   "verdict_matches_aggregator", "parts_match_init",
                   "circuits_match_commit", "ot_ids_match"):
        assert wanted in names


def test_replay_validates_abort_board():
    class FlippingAggregator(AggregatorEngine):
        def _decide(self, y, y_claim):
            return 1 - super()._decide(y, y_claim)

    params = SessionParams.from_master(9, 1, group="toy23")
    transcript = run_session(params, CAR_STATEMENT, "111", Repository(),
                             engine_overrides={"aggregator": FlippingAggregator})
    report = replay_board(board_of(transcript.records))[0]
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
    report = replay_board(board_of(records))[0]
    assert not report.ok
    failing = {name for name, ok, _ in report.checks if not ok}
    assert "aggregate_decode" in failing


def test_ingest_refuses_stale_digest():
    """An edited body under its old digest never reaches replay: the board
    refuses it as it is appended."""
    transcript = car_run("111", 1, seed=23)
    records = list(transcript.records)
    target = records[2]
    assert target.kind == "mask_commit"
    records[2] = type(target)(target.seq, target.session, target.author,
                              target.kind, {"part": 1, "commitment": "00"},
                              target.digest)
    with pytest.raises(DigestMismatch, match="record 2 digest does not verify"):
        board_of(records)


@pytest.mark.parametrize("salt", ["zz", 12])
def test_replay_reports_non_hex_salt(salt):
    board, target = edited_golden("mask_reveal", "salt", salt)
    report = replay_board(board)[0]
    assert not report.ok
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert [name for name, _ in failed] == ["well_formed"]
    exc = "ValueError" if isinstance(salt, str) else "TypeError"
    assert failed[0][1].startswith(f"mask_reveal record {target.seq}: {exc}: salt: ")


@pytest.mark.parametrize("kind, field, value, exc", [
    ("mask_reveal", "r", "x", "ValueError"),
    ("mask_reveal", "part", "one", "ValueError"),
    ("ot_choose", "y0", "zz", "ValueError"),
    ("ot_choose", "y1", 5, "TypeError"),
    ("partition_output", "label", "zz", "ValueError"),
    ("aggregate_output", "y", "q", "ValueError"),
    ("session_init", "lambda_h", "z", "ValueError"),
    ("garbled_partition", "ot_c", "zz", "ValueError"),
    ("session_init", "group", "nope", "InvalidGroupElement"),
    ("session_init", "n_parts", "two", "ValueError"),
    ("aggregate_publish", "tables", [["00"]], "ValueError"),
    ("aggregate_publish", "decode", {"a": 1}, "ValueError"),
])
def test_replay_reports_malformed_field(kind, field, value, exc):
    board, target = edited_golden(kind, field, value)
    report = replay_board(board)[0]
    assert not report.ok
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert [name for name, _ in failed] == ["well_formed"]
    assert failed[0][1].startswith(f"{kind} record {target.seq}: {exc}: {field}: ")


def test_every_golden_body_field_has_a_reader():
    for rec in Repository(GOLDEN_BOARD):
        for name in rec.body:
            read(rec, name)


# one of each JSON type, and values that are wrong for most fields
WRONG_VALUES = (None, [], {}, 0, 7, -1, True, 1.5, "zz", "", "00",
                [1], [[]], {"a": 1}, {"1": "zz"})


def test_replay_never_raises_on_a_wrong_typed_field():
    records = list(Repository(GOLDEN_BOARD))
    edits = 0
    for i, target in enumerate(records):
        for name in target.body:
            for value in WRONG_VALUES:
                edited = list(records)
                edited[i] = make_record(target.seq, target.session, target.author,
                                        target.kind, {**target.body, name: value})
                assert len(replay_board(board_of(edited))) == 1
                edits += 1
    assert edits == 1200


def test_replay_flags_n_parts_that_disagrees_with_the_parts():
    board, _ = edited_golden("session_init", "n_parts", 5)
    report = replay_board(board)[0]
    assert not report.ok
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert failed == [("parts_match_init",
                       "n_parts 5: garbled_partition parts [1, 2]; "
                       "mask_commit parts [1, 2]; mask_reveal parts [1, 2]"),
                      ("ot_ids_match",
                       "mask-3: 0 ot_choose; mask-4: 0 ot_choose; mask-5: 0 ot_choose; "
                       "mask-3: 0 ot_transfer; mask-4: 0 ot_transfer; mask-5: 0 ot_transfer")]


def test_replay_bounds_parts_by_the_board_not_by_n_parts():
    board, _ = edited_golden("session_init", "n_parts", 10**9)
    t0 = time.perf_counter()
    report = replay_board(board)[0]
    assert time.perf_counter() - t0 < 1.0
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["parts_match_init", "ot_ids_match"]


def test_replay_flags_a_partition_label_outside_its_pair():
    board, target = edited_golden("partition_output", "label", "ab" * 16)
    assert target.body["part"] == 1
    report = replay_board(board)[0]
    assert not report.ok
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["partition_label_valid_1"]


@pytest.mark.parametrize("part", [0, -1, 9])
def test_replay_fails_a_partition_output_for_no_part(part):
    board, _ = edited_golden("partition_output", "part", part)
    report = replay_board(board)[0]
    assert not report.ok
    assert (f"partition_label_valid_{part}", False,
            f"PartitionOutputInvalid: part {part} has no unmask gate") in report.checks


@pytest.mark.parametrize("kind, field, value, check, error", [
    ("mask_reveal", "salt", "00" * 16, "commit_opens_part_1", "CommitMismatch"),
    ("ot_choose", "y0", "05", "ot_consistency_mask-1", "InvalidGroupElement"),
    ("ot_choose", "y0", "02", "ot_consistency_mask-1", "ConsistencyCheckFailed"),
    ("partition_output", "label", "ab" * 16, "partition_label_valid_1",
     "PartitionOutputInvalid"),
    ("aggregate_output", "label", "ab" * 16, "aggregate_decode", "UnknownLabel"),
    ("aggregate_output", "y", 1, "aggregate_decode", "VerdictMismatch"),
])
def test_replay_details_a_failed_shared_check(kind, field, value, check, error):
    """A check that replay shares with an engine fails with the error the
    engine would abort with as its detail."""
    board, _ = edited_golden(kind, field, value)
    failed = {name: detail for name, ok, detail in replay_board(board)[0].checks
              if not ok}
    assert failed[check].startswith(f"{error}: ")


def _renumbered(records):
    """A board of `records` in turn, each re-made at its new seq."""
    return board_of(make_record(seq, r.session, r.author, r.kind, r.body)
                    for seq, r in enumerate(records))


def _transfer_index(records, ot_id):
    return next(i for i, r in enumerate(records)
                if r.kind == "ot_transfer" and r.body["session_id"] == ot_id)


def test_replay_flags_a_missing_transfer():
    records = list(Repository(GOLDEN_BOARD))
    del records[_transfer_index(records, "mask-2")]
    report = replay_board(_renumbered(records))[0]
    assert report.verdict == "accept"
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert failed == [("ot_ids_match", "mask-2: 0 ot_transfer")]


def test_replay_flags_a_duplicated_transfer():
    records = list(Repository(GOLDEN_BOARD))
    i = _transfer_index(records, "xm")
    records.insert(i + 1, records[i])
    report = replay_board(_renumbered(records))[0]
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert failed == [("ot_ids_match", "xm: 2 ot_transfer")]


@pytest.mark.parametrize("ot_id, detail", [
    ("mask-9", "mask-1: 0 ot_transfer; mask-9: 1 ot_transfer"),
    ("mask-2", "mask-1: 0 ot_transfer; mask-2: 2 ot_transfer"),
])
def test_replay_flags_a_transfer_for_another_ot_id(ot_id, detail):
    board, target = edited_golden("ot_transfer", "session_id", ot_id)
    assert target.body["session_id"] == "mask-1"
    failed = [(name, d) for name, ok, d in replay_board(board)[0].checks if not ok]
    assert failed == [("ot_ids_match", detail)]


def test_replay_flags_x1m_that_disagrees_with_the_reveals():
    board, target = edited_golden("aggregate_publish", "x1m", 1)
    assert target.body["x1m"] == 0
    report = replay_board(board)[0]
    assert not report.ok
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert failed == [("x1m_matches_reveals", "x1m 1, revealed masks XOR to 0")]


def _golden_field(kind, field):
    return next(r.body[field] for r in Repository(GOLDEN_BOARD) if r.kind == kind)


def _gate_2_and(circuit):
    gates = [list(g) for g in circuit["gates"]]
    assert gates[2][0] == "OR"
    gates[2][0] = "AND"
    return {**circuit, "gates": gates}


@pytest.mark.parametrize("kind, field, edit, detail", [
    ("aggregate_publish", "circuit", _gate_2_and, "aggregate_publish: circuit"),
    ("garbled_partition", "mask_input", lambda wire: wire - 1,
     "garbled_partition part 1: mask_input"),
    ("statement_commit", "circuit",
     lambda circuit: {**circuit, "gates": [], "output": 0},
     "statement_commit: DepthZero: cannot partition a circuit with no gates"),
    ("statement_commit", "circuit",
     lambda _: {"n_inputs": 10**9, "output": 10**9 + 2, "gates": [["AND", 0, 1, 1]]},
     "garbled_partition part 1: circuit"),
])
def test_replay_flags_circuits_that_differ_from_the_commit(kind, field, edit, detail):
    board, _ = edited_golden(kind, field, edit(_golden_field(kind, field)))
    report = replay_board(board)[0]
    failed = [(name, d) for name, ok, d in report.checks if not ok]
    assert failed == [("circuits_match_commit", detail)]


def test_each_record_is_digested_once(monkeypatch):
    """A published record's digest is computed once, by make_record, and a
    replay computes none: the board verified every digest as it loaded."""
    calls = []
    digest_fields = zkfabric.repository._digest_fields

    def counting(*args):
        calls.append(args[0])
        return digest_fields(*args)

    monkeypatch.setattr(zkfabric.repository, "_digest_fields", counting)
    transcript = car_run("111", 1)
    assert calls == [r.seq for r in transcript.records] == list(range(21))
    golden = Repository(GOLDEN_BOARD)
    calls.clear()
    assert replay_board(golden)[0].ok
    assert calls == []


def test_work_counts_of_a_session_and_of_a_replay(monkeypatch):
    """SHA-256 calls and body field reads of a toy23 car session and of a
    golden replay (after the load, which verifies the digests): pinned, so
    that work added anywhere on the path shows."""
    counts = {"sha256": 0, "read": 0}

    class CountingHashlib:
        def sha256(self, *args):
            counts["sha256"] += 1
            return hashlib.sha256(*args)

        def __getattr__(self, name):
            return getattr(hashlib, name)

    read_field = zkfabric.protocol.read

    def counting_read(*args):
        counts["read"] += 1
        return read_field(*args)

    monkeypatch.setattr(zkfabric.hashing, "hashlib", CountingHashlib())
    monkeypatch.setattr(zkfabric.protocol, "read", counting_read)
    car_run("111", 1)
    assert counts == {"sha256": 128, "read": 82}
    golden = Repository(GOLDEN_BOARD)
    counts.update(sha256=0, read=0)
    assert replay_board(golden)[0].ok
    assert counts == {"sha256": 5, "read": 54}


def test_run_session_does_not_poll_for_the_verdict(monkeypatch):
    """run_session stops on the step that posts the verdict, so the only
    fetches are the engines' own and the transcript's."""
    kinds = []
    fetch = Repository.fetch

    def counting(self, session=None, kind=None):
        kinds.append(kind)
        return fetch(self, session, kind)

    monkeypatch.setattr(Repository, "fetch", counting)
    car_run("111", 1)
    assert "final_verdict" not in kinds
    assert len(kinds) == 27


def test_replay_flags_a_verdict_not_posted_by_the_prover():
    records = list(Repository(GOLDEN_BOARD))
    verdict = records[-1]
    assert (verdict.kind, verdict.author) == ("final_verdict", "prover")
    records[-1] = make_record(verdict.seq, verdict.session, "verifier-1",
                              verdict.kind, verdict.body)
    report = replay_board(board_of(records))[0]
    assert not report.ok
    failed = [(name, detail) for name, ok, detail in report.checks if not ok]
    assert failed == [("verdict_author", "posted by verifier-1")]


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
    report = replay_board(board_of(transcript.records))[0]
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
