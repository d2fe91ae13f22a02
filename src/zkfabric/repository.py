"""Append-only public board holding one canonical record per line.

Records never change once appended.  Each one is a JSON object with the
keys sorted and no insignificant whitespace (non-ASCII characters escaped),
holding sequence number, session, author, kind, a kind-specific body
(binary values as lowercase hex), and a digest.  The digest is the SHA-256
of the canonical encoding of the other five fields, which is the record's
own line with its `"digest":"...",` member left out.  So each record is
encoded once, whether it is published, appended, loaded, encoded or
decoded: the line's text before and after that member gives both the
digest payload and the line.  Decoding re-encodes and compares bytes, so
any non-canonical or edited line, or a field of the wrong JSON type, is
rejected outright as `MalformedRecord`.  Each digest covers only its own
record; the records are not chained to one another.  `publish` computes
the digest of the record it makes, while `append` and loading a file
verify it.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .errors import DigestMismatch, MalformedRecord, StaleSequence
from .hashing import sha256

RECORD_KINDS = frozenset({
    "session_init",
    "statement_commit",
    "mask_commit",
    "garbled_partition",
    "prover_labels",
    "ot_choose",
    "ot_transfer",
    "partition_output",
    "mask_reveal",
    "aggregate_publish",
    "aggregate_output",
    "final_verdict",
})


class RepositoryRecord(NamedTuple):
    """One board record.  A tuple, so its fields cannot be reassigned and
    two records are equal when their fields are."""

    seq: int
    session: str
    author: str
    kind: str
    body: dict
    digest: str


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_string = json.encoder.encode_basestring_ascii
_KEYS = frozenset({"seq", "session", "author", "kind", "body", "digest"})


def _split_line(seq: int, session: str, author: str, kind: str,
                body: dict) -> tuple[str, str]:
    """The canonical line's text before and after its `"digest":...,` member.

    The keys of a canonical line sort as author, body, digest, kind, seq,
    session, so the digest payload (the same object without `digest`) is
    the two parts joined, and the line is the two parts around the digest
    member.  Only the body goes through the JSON encoder, which is why the
    other fields must have exactly the types checked here.  Every line
    passes through here, so this is where the board refuses what I-JSON
    (RFC 7493 section 2.1) forbids: NaN and the infinities, and a lone
    surrogate, which ASCII-escaped text can hold only as a \\ud escape.
    """
    if (type(seq) is not int or not isinstance(session, str)
            or not isinstance(author, str) or not isinstance(kind, str)
            or not isinstance(body, dict)):
        raise MalformedRecord("bad field types")
    try:
        head = f'{{"author":{_string(author)},"body":{_ENCODER.encode(body)},'
    except ValueError as exc:
        raise MalformedRecord(f"not I-JSON: {exc}") from None
    tail = f'"kind":{_string(kind)},"seq":{seq},"session":{_string(session)}}}'
    if "\\ud" in head or "\\ud" in tail:
        try:
            json.dumps([author, body, kind, session], ensure_ascii=False).encode()
        except UnicodeEncodeError:
            raise MalformedRecord("not I-JSON: a lone surrogate") from None
    return head, tail


def _line(head: str, digest: str, tail: str) -> bytes:
    return f'{head}"digest":{_string(digest)},{tail}'.encode()


def _digest(head: str, tail: str) -> str:
    return sha256((head + tail).encode()).hex()


def _digest_fields(seq: int, session: str, author: str, kind: str,
                   body: dict) -> tuple[str, str, str]:
    """The record's digest, and the two parts of the line it covers."""
    head, tail = _split_line(seq, session, author, kind, body)
    return _digest(head, tail), head, tail


def make_record(seq: int, session: str, author: str, kind: str, body: dict) -> RepositoryRecord:
    return RepositoryRecord(seq, session, author, kind, body,
                            _digest_fields(seq, session, author, kind, body)[0])


def _verify(record: RepositoryRecord, digest: str) -> None:
    if record.digest != digest:
        raise DigestMismatch(f"record {record.seq} digest does not verify")


def encode_record(record: RepositoryRecord) -> bytes:
    head, tail = _split_line(record.seq, record.session, record.author,
                             record.kind, record.body)
    return _line(head, record.digest, tail)


def _decode(data: bytes) -> tuple[RepositoryRecord, str, str]:
    """The record on a canonical line, and the two parts of that line."""
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(f"not JSON: {type(exc).__name__}: {exc}") from None
    if not isinstance(obj, dict) or obj.keys() != _KEYS:
        raise MalformedRecord("wrong field set")
    record = RepositoryRecord(obj["seq"], obj["session"], obj["author"],
                              obj["kind"], obj["body"], obj["digest"])
    if not isinstance(record.digest, str):
        raise MalformedRecord("bad field types")
    head, tail = _split_line(record.seq, record.session, record.author,
                             record.kind, record.body)
    if _line(head, record.digest, tail) != data:
        raise MalformedRecord("non-canonical encoding")
    return record, head, tail


def decode_record(data: bytes) -> RepositoryRecord:
    return _decode(data)[0]


class Repository:
    """In-memory board with an optional backing file (one record per line).

    Every record is checked once, as it enters: its kind, its seq, its
    digest (computed by `publish`, verified by `append` and the file load)
    and its session's single opening `session_init` (a second one, or any
    other record for a session the board does not hold, is refused with
    `MalformedRecord`).  Records are then indexed by session, so a fetch
    reads only its session's records and costs the same whatever the size
    of the board; only a fetch without a session scans the whole board.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._records: list[RepositoryRecord] = []
        self._by_session: dict[str, list[RepositoryRecord]] = {}
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            raw = fh.read()
        if raw and not raw.endswith(b"\n"):
            raise MalformedRecord("truncated final line")
        for line in raw.splitlines():
            record, head, tail = _decode(line)
            _verify(record, _digest(head, tail))
            self._ingest(record)

    def _ingest(self, record: RepositoryRecord) -> None:
        """Check the record's kind, seq and session opening, then index it."""
        if record.kind not in RECORD_KINDS:
            raise MalformedRecord(f"unknown record kind {record.kind!r}")
        if record.seq != len(self._records):
            raise StaleSequence(
                f"record carries seq {record.seq}, board is at {len(self._records)}")
        known = record.session in self._by_session
        if (record.kind == "session_init") == known:
            raise MalformedRecord(
                f"session {record.session!r} already initialised" if known
                else f"unknown session {record.session!r}")
        self._records.append(record)
        self._by_session.setdefault(record.session, []).append(record)

    @property
    def next_seq(self) -> int:
        return len(self._records)

    def _add(self, record: RepositoryRecord, head: str, tail: str) -> RepositoryRecord:
        """Ingest the record and write its line, the two parts around its
        digest, to the backing file."""
        self._ingest(record)
        if self.path is not None:
            with open(self.path, "ab") as fh:
                fh.write(_line(head, record.digest, tail) + b"\n")
                fh.flush()
        return record

    def append(self, record: RepositoryRecord) -> int:
        digest, head, tail = _digest_fields(record.seq, record.session, record.author,
                                            record.kind, record.body)
        _verify(record, digest)
        return self._add(record, head, tail).seq

    def publish(self, session: str, author: str, kind: str, body: dict) -> RepositoryRecord:
        seq = self.next_seq
        digest, head, tail = _digest_fields(seq, session, author, kind, body)
        return self._add(RepositoryRecord(seq, session, author, kind, body, digest),
                         head, tail)

    def fetch(self, session: str | None = None,
              kind: str | None = None) -> list[RepositoryRecord]:
        """Records in seq order, matching `session` and `kind` where given."""
        records = (self._records if session is None
                   else self._by_session.get(session, []))
        return [r for r in records if kind is None or r.kind == kind]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)
