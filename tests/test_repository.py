import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    HOSTILE_BOARDS,
    raw_line,
    reference_digest,
    reference_encode,
    scan_fetch,
)
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


@pytest.mark.parametrize("case", sorted(HOSTILE_BOARDS))
def test_decode_refuses_a_hostile_line(case):
    with pytest.raises(MalformedRecord):
        decode_record(HOSTILE_BOARDS[case][-1])


@pytest.mark.parametrize("text, value", [
    ('"\\ud83d\\ude00"', "\U0001f600"),  # a valid surrogate pair
    ('"\\\\ud800"', "\\ud800"),  # an escaped backslash, then "ud800"
])
def test_i_json_strings_still_load(tmp_path, text, value):
    path = tmp_path / "board.jsonl"
    path.write_bytes(raw_line(body='{"x":' + text + "}") + b"\n")
    assert [r.body for r in Repository(path)] == [{"x": value}]


def holds_a_surrogate(value) -> bool:
    """Whether any string in `value`, key or value, holds a surrogate code
    point, which UTF-8, and so I-JSON, cannot carry."""
    if isinstance(value, str):
        return any("\ud800" <= ch <= "\udfff" for ch in value)
    if isinstance(value, dict):
        return holds_a_surrogate(list(value.items()))
    if isinstance(value, (list, tuple)):
        return any(holds_a_surrogate(v) for v in value)
    return False


JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\u00e9\u20ac\U0001f600'),
                    max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=16)


def non_canonical_variants(line):
    """The line with a space added inside or at its end, with its keys in
    reverse order, and with its non-ASCII characters written raw instead
    of escaped."""
    obj = json.loads(line)
    yield line.replace(b":", b": ", 1)
    yield line + b" "
    yield json.dumps(dict(reversed(sorted(obj.items()))), separators=(",", ":")).encode()
    yield json.dumps(obj, sort_keys=True, separators=(",", ":"),
                     ensure_ascii=False).encode()


@settings(max_examples=150, deadline=None)
@given(body=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4),
       number=st.integers(-10**30, 10**30), session=JSON_TEXT, author=JSON_TEXT)
def test_encoding_matches_the_reference(body, number, session, author):
    """The line and digest are those of one whole json.dumps per record;
    decode and a file load refuse the same non-canonical lines.  A record
    holding a surrogate, which I-JSON forbids, is refused outright."""
    body = {**body, "": number, "\u00e9": "\u00e9"}  # "" sorts first in any body
    if holds_a_surrogate([session, author, body]):
        with pytest.raises(MalformedRecord, match="lone surrogate"):
            make_record(0, session, author, "session_init", body)
        return
    record = make_record(0, session, author, "session_init", body)
    line = encode_record(record)
    assert record.digest == reference_digest(0, session, author, "session_init", body)
    assert line == reference_encode(record)
    assert decode_record(line) == record
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "board.jsonl"
        Repository(path).publish(session, author, "session_init", body)
        assert path.read_bytes() == line + b"\n"
        assert list(Repository(path)) == [record]
        for variant in non_canonical_variants(line):
            assert variant != line
            with pytest.raises(MalformedRecord, match="non-canonical"):
                decode_record(variant)
            path.write_bytes(variant + b"\n")
            with pytest.raises(MalformedRecord, match="non-canonical"):
                Repository(path)
        # a float is canonical JSON too, so 1.0 in place of 1 reads as
        # another record (if the float prints back as written), whose
        # digest the load then refuses
        head = b'"body":{"":%d' % number
        as_float = line.replace(head, head + b".0", 1)
        assert as_float != line
        try:
            assert reference_encode(decode_record(as_float)) == as_float
        except MalformedRecord:
            pass
        path.write_bytes(as_float + b"\n")
        with pytest.raises((MalformedRecord, DigestMismatch)):
            Repository(path)


def test_append_validates_digest():
    repo = Repository()
    rec = make_record(0, "s1", "prover", "session_init", {})
    bad = RepositoryRecord(rec.seq, rec.session, rec.author, rec.kind,
                           rec.body, "00" * 32)
    with pytest.raises(DigestMismatch):
        repo.append(bad)


def test_a_record_cannot_be_changed():
    rec = make_record(0, "s1", "prover", "session_init", {"i": 0})
    for field, value in (("seq", 1), ("body", {}), ("digest", "00" * 32)):
        with pytest.raises(AttributeError):
            setattr(rec, field, value)
    assert (rec.seq, rec.body) == (0, {"i": 0})


def test_records_are_equal_field_by_field():
    rec = make_record(0, "s1", "prover", "session_init", {"i": 0})
    same = RepositoryRecord(0, "s1", "prover", "session_init", {"i": 0}, rec.digest)
    assert rec == same
    other = RepositoryRecord(0, "s1", "prover", "session_init", {"i": 0}, "00" * 32)
    assert rec != other


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
            assert repo.fetch(session, kind) == scan_fetch(records, session, kind)


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


def test_identical_records_identical_bytes():
    a = make_record(0, "s1", "prover", "session_init", {"k": [1, 2]})
    b = make_record(0, "s1", "prover", "session_init", {"k": [1, 2]})
    assert encode_record(a) == encode_record(b)
