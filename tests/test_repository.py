import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import scan_fetch
from zkfabric.errors import DigestMismatch, MalformedRecord, StaleSequence
from zkfabric.repository import (
    RECORD_KINDS,
    Repository,
    RepositoryRecord,
    decode_record,
    encode_record,
    make_record,
)


def fill(repo, n=3, session="s1"):
    records = []
    for i in range(n):
        kind = "session_init" if i == 0 else "mask_commit"
        records.append(repo.publish(session, "prover", kind, {"i": i}))
    return records


def test_publish_assigns_sequential_numbers(tmp_path):
    repo = Repository()
    records = fill(repo, 3)
    assert [r.seq for r in records] == [0, 1, 2]
    assert repo.next_seq == 3
    assert len(repo) == 3


def test_fetch_filters():
    repo = Repository()
    repo.publish("s1", "prover", "session_init", {})
    repo.publish("s2", "prover", "session_init", {})
    repo.publish("s1", "verifier-1", "mask_commit", {"part": 1})
    assert [r.session for r in repo.fetch(session="s1")] == ["s1", "s1"]
    assert [r.kind for r in repo.fetch(kind="session_init")] == [
        "session_init", "session_init"]
    assert repo.fetch(session="s1", kind="mask_commit")[0].author == "verifier-1"
    assert repo.fetch(since=2) == repo.fetch()[2:]
    assert Repository().fetch() == []


def test_fetch_is_stable():
    repo = Repository()
    fill(repo)
    assert repo.fetch() == repo.fetch()


def test_encode_decode_round_trip():
    rec = make_record(0, "s1", "prover", "session_init", {"a": 1, "b": "ff"})
    data = encode_record(rec)
    assert decode_record(data) == rec
    parsed = json.loads(data)
    assert list(parsed) == sorted(parsed)
    assert b" " not in data


def test_decode_rejects_non_canonical():
    rec = make_record(0, "s1", "prover", "session_init", {"a": 1})
    loose = json.dumps({
        "seq": rec.seq, "session": rec.session, "author": rec.author,
        "kind": rec.kind, "body": rec.body, "digest": rec.digest,
    }, indent=2).encode()
    with pytest.raises(MalformedRecord):
        decode_record(loose)


def test_decode_rejects_wrong_shape():
    rec = make_record(0, "s1", "prover", "session_init", {})
    obj = json.loads(encode_record(rec))
    extra = dict(obj)
    extra["note"] = "hi"
    with pytest.raises(MalformedRecord):
        decode_record(json.dumps(extra, sort_keys=True,
                                 separators=(",", ":")).encode())
    missing = {k: v for k, v in obj.items() if k != "digest"}
    with pytest.raises(MalformedRecord):
        decode_record(json.dumps(missing, sort_keys=True,
                                 separators=(",", ":")).encode())
    with pytest.raises(MalformedRecord):
        decode_record(b"not json at all")
    with pytest.raises(MalformedRecord):
        decode_record(b"[1,2,3]")


def test_decode_rejects_bad_types():
    rec = make_record(0, "s1", "prover", "session_init", {})
    obj = json.loads(encode_record(rec))
    obj["seq"] = "0"
    with pytest.raises(MalformedRecord):
        decode_record(json.dumps(obj, sort_keys=True,
                                 separators=(",", ":")).encode())


def test_append_validates_digest():
    repo = Repository()
    rec = make_record(0, "s1", "prover", "session_init", {})
    bad = RepositoryRecord(rec.seq, rec.session, rec.author, rec.kind,
                           rec.body, "00" * 32)
    with pytest.raises(DigestMismatch):
        repo.append(bad)


def test_append_validates_sequence():
    repo = Repository()
    fill(repo, 2)
    stale = make_record(1, "s1", "prover", "mask_commit", {})
    with pytest.raises(StaleSequence):
        repo.append(stale)
    ahead = make_record(5, "s1", "prover", "mask_commit", {})
    with pytest.raises(StaleSequence):
        repo.append(ahead)


def test_append_rejects_unknown_kind():
    repo = Repository()
    rec = make_record(0, "s1", "prover", "gossip", {})
    with pytest.raises(MalformedRecord):
        repo.append(rec)


def test_append_rejects_unknown_session():
    repo = Repository()
    rec = make_record(0, "s1", "prover", "mask_commit", {})
    with pytest.raises(MalformedRecord):
        repo.append(rec)


def test_append_rejects_second_session_init(tmp_path):
    path = tmp_path / "board.jsonl"
    repo = Repository(path)
    fill(repo, 2)
    raw = path.read_bytes()
    with pytest.raises(MalformedRecord, match="already initialised"):
        repo.publish("s1", "prover", "session_init", {"again": True})
    assert len(repo) == 2
    assert path.read_bytes() == raw
    repo.publish("s2", "prover", "session_init", {})
    assert [r.session for r in repo.fetch(kind="session_init")] == ["s1", "s2"]


def test_load_rejects_second_session_init(tmp_path):
    """The same check holds for records read from a board file."""
    path = tmp_path / "board.jsonl"
    first = make_record(0, "s1", "prover", "session_init", {})
    again = make_record(1, "s1", "prover", "session_init", {"again": True})
    path.write_bytes(encode_record(first) + b"\n" + encode_record(again) + b"\n")
    with pytest.raises(MalformedRecord, match="already initialised"):
        Repository(path)


BODY_KINDS = ("mask_commit", "ot_choose", "partition_output", "final_verdict")


@st.composite
def boards(draw):
    """A board of up to three sessions whose records interleave; each
    session opens with its session_init the first time it appears."""
    steps = draw(st.lists(st.tuples(st.sampled_from(("s1", "s2", "s3")),
                                    st.sampled_from(BODY_KINDS)),
                          max_size=20))
    repo = Repository()
    opened = set()
    for i, (session, kind) in enumerate(steps):
        if session not in opened:
            opened.add(session)
            repo.publish(session, "prover", "session_init", {"i": i})
        repo.publish(session, f"verifier-{i % 3}", kind, {"i": i})
    return repo


def assert_fetch_matches_scan(repo):
    records = list(repo)
    for session in ("s1", "s2", "s3", "absent", None):
        for kind in (*BODY_KINDS, "session_init", "aggregate_publish", None):
            for since in range(len(records) + 2):
                assert repo.fetch(session, kind, since) == scan_fetch(
                    records, session, kind, since)


@settings(max_examples=60, deadline=None)
@given(boards())
def test_fetch_matches_linear_scan(repo):
    assert_fetch_matches_scan(repo)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "board.jsonl"
        on_file = Repository(path)
        for rec in repo:
            on_file.append(rec)
        reloaded = Repository(path)
        assert list(reloaded) == list(repo)
        assert_fetch_matches_scan(reloaded)


def test_record_kinds_closed_set():
    assert len(RECORD_KINDS) == 12
    assert "session_init" in RECORD_KINDS
    assert "final_verdict" in RECORD_KINDS


def test_file_persistence(tmp_path):
    path = tmp_path / "board.jsonl"
    repo = Repository(path)
    records = fill(repo, 3)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert raw.count(b"\n") == 3
    again = Repository(path)
    assert list(again) == records
    again.publish("s1", "prover", "mask_commit", {"i": 3})
    assert len(Repository(path)) == 4


def test_file_lines_decode_individually(tmp_path):
    path = tmp_path / "board.jsonl"
    records = fill(Repository(path), 3)
    for line, rec in zip(path.read_bytes().splitlines(), records):
        assert decode_record(line) == rec


def test_truncated_final_line_rejected(tmp_path):
    path = tmp_path / "board.jsonl"
    fill(Repository(path), 2)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(MalformedRecord):
        Repository(path)


def test_edited_line_rejected(tmp_path):
    """A canonical-looking edit still fails the digest re-check."""
    path = tmp_path / "board.jsonl"
    fill(Repository(path), 2)
    raw = path.read_bytes().replace(b'"i":1', b'"i":9')
    path.write_bytes(raw)
    with pytest.raises(DigestMismatch):
        Repository(path)


def test_unicode_body_survives_ascii_encoding():
    rec = make_record(0, "s1", "prover", "session_init", {"note": "café"})
    data = encode_record(rec)
    assert data == data.decode("ascii").encode("ascii")
    assert decode_record(data).body["note"] == "café"


def test_verify_board():
    repo = Repository()
    fill(repo, 4)
    assert repo.verify_board() is True


def test_identical_records_identical_bytes():
    a = make_record(0, "s1", "prover", "session_init", {"k": [1, 2]})
    b = make_record(0, "s1", "prover", "session_init", {"k": [1, 2]})
    assert encode_record(a) == encode_record(b)
