"""Append-only public board holding one canonical record per line.

Records never change once appended.  Each one is a JSON object with the
keys sorted and no insignificant whitespace, holding sequence number,
session, author, kind, a kind-specific body (binary values as lowercase
hex), and a digest over the canonical encoding of the other five fields.
Decoding re-encodes and compares bytes, so any non-canonical or edited
line is rejected outright.  Each digest covers only its own record; the
records are not chained to one another.  `publish` computes the digest of
the record it makes, while `append` and loading a file verify it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RepositoryRecord:
    seq: int
    session: str
    author: str
    kind: str
    body: dict
    digest: str


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode()


def _digest_fields(seq: int, session: str, author: str, kind: str, body: dict) -> str:
    payload = _canonical({"seq": seq, "session": session, "author": author,
                          "kind": kind, "body": body})
    return sha256(payload).hex()


def make_record(seq: int, session: str, author: str, kind: str, body: dict) -> RepositoryRecord:
    return RepositoryRecord(seq, session, author, kind, body,
                            _digest_fields(seq, session, author, kind, body))


def _verified(record: RepositoryRecord) -> RepositoryRecord:
    if record.digest != _digest_fields(record.seq, record.session, record.author,
                                       record.kind, record.body):
        raise DigestMismatch(f"record {record.seq} digest does not verify")
    return record


def encode_record(record: RepositoryRecord) -> bytes:
    return _canonical({
        "seq": record.seq,
        "session": record.session,
        "author": record.author,
        "kind": record.kind,
        "body": record.body,
        "digest": record.digest,
    })


def decode_record(data: bytes) -> RepositoryRecord:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"not JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {
        "seq", "session", "author", "kind", "body", "digest"
    }:
        raise MalformedRecord("wrong field set")
    record = RepositoryRecord(obj["seq"], obj["session"], obj["author"],
                              obj["kind"], obj["body"], obj["digest"])
    if not isinstance(record.seq, int) or not isinstance(record.body, dict):
        raise MalformedRecord("bad field types")
    if encode_record(record) != data:
        raise MalformedRecord("non-canonical encoding")
    return record


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
            self._ingest(_verified(decode_record(line)))

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

    def _add(self, record: RepositoryRecord) -> RepositoryRecord:
        self._ingest(record)
        if self.path is not None:
            with open(self.path, "ab") as fh:
                fh.write(encode_record(record) + b"\n")
                fh.flush()
        return record

    def append(self, record: RepositoryRecord) -> int:
        return self._add(_verified(record)).seq

    def publish(self, session: str, author: str, kind: str, body: dict) -> RepositoryRecord:
        return self._add(make_record(self.next_seq, session, author, kind, body))

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
