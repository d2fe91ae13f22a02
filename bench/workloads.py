"""The benchmark's workloads: seeded inputs, the boards sessions run on, and
the audit that reloads and replays those boards.

Every workload runs in rounds.  Its jobs (statement, witness, claim and
session seeds) are drawn from the run's seed once, at set-up; a round runs
each job once, on boards reset to the same starting state, and audits the
boards it wrote, board by board or at its end.  So every round repeats
exactly the same work, and a run attempts whole rounds however long it
lasts.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from zkfabric import Repository, SessionParams, replay_board, run_session
from zkfabric.repository import decode_record, encode_record

import oracle

CAR_STATEMENT = ('The car only starts [if] the "start" button is pressed '
                 '[and] the brake pedal is pressed')

# Clause words use no letter from a to f, and every clause holds a space,
# so a clause can never turn up inside a hex digest or a record's keys by
# accident: the leak scan can neither pass nor fail by chance.
WORDS = ("glory", "prism", "quilt", "storm", "worm", "silk", "moon", "tulip",
         "nylon", "mint", "jolly", "north", "lion", "trout", "hymn", "lynx")
OPERATORS = tuple(oracle.PRECEDENCE)


@dataclass(frozen=True)
class Job:
    statement: str
    witness: str
    claim: int
    params: SessionParams
    expected: str  # the oracle's verdict


@dataclass
class Audit:
    """What one audit loaded and found, with its timed phases."""

    load_s: float = 0.0
    replay_s: float = 0.0
    records: int = 0
    reports: list = field(default_factory=list)
    raw: list = field(default_factory=list)  # the bytes of each board
    # session -> (records on the board, n_parts of its session_init)
    sizes: dict = field(default_factory=dict)


def _job(rng: random.Random, statement: str, witness: str, claim: int,
         group: str, used: set[str]) -> Job:
    while True:
        params = SessionParams.from_master(rng.getrandbits(48), y_claim=claim,
                                           group=group)
        if params.session_id not in used:
            used.add(params.session_id)
            break
    return Job(statement, witness, claim, params,
               oracle.expected_verdict(statement, witness, claim))


def car_jobs(rng: random.Random, group: str, used: set[str]) -> list[Job]:
    """All 8 witnesses of the car statement under both claims."""
    return [_job(rng, CAR_STATEMENT, format(w, "03b"), claim, group, used)
            for claim in (0, 1) for w in range(8)]


def xor_schedule(slots: int, count: int) -> list[int]:
    """How many of a size's `count` statements get 0, 1, 2, ... [xor]
    markers among their `slots` operators: the Binomial(slots, 1/5)
    shares that uniformly drawn operators give, rounded by largest
    remainder.  XOR-heavy statements have exponentially large minimised
    SOPs, so fixing their share keeps the cost of a round from swinging
    with the seed while the seed still draws every statement."""
    expected = [count * math.comb(slots, x) * 0.2 ** x * 0.8 ** (slots - x)
                for x in range(slots + 1)]
    counts = [int(e) for e in expected]
    by_remainder = sorted(range(slots + 1), key=lambda x: counts[x] - expected[x])
    for x in by_remainder[:count - sum(counts)]:
        counts[x] += 1
    return [x for x in range(slots + 1) for _ in range(counts[x])]


def random_statement(rng: random.Random, n_clauses: int, n_xor: int) -> str:
    """A statement of word clauses with n_xor [xor] markers at random
    places and the other markers drawn from the four other operators."""
    xor_at = set(rng.sample(range(1, n_clauses), n_xor))
    others = [op for op in OPERATORS if op != "xor"]
    parts = [f"{rng.choice(WORDS)} {rng.choice(WORDS)} 0"]
    for i in range(1, n_clauses):
        parts.append("[xor]" if i in xor_at else f"[{rng.choice(others)}]")
        parts.append(f"{rng.choice(WORDS)} {rng.choice(WORDS)} {i}")
    return " ".join(parts)


def _encode_board(repo: Repository) -> bytes:
    return b"".join(encode_record(r) + b"\n" for r in repo)


def _load_board(raw: bytes) -> Repository:
    """Re-ingest a board's bytes record by record, as Repository does for
    a file, without touching the disk."""
    repo = Repository()
    for line in raw.splitlines():
        repo.append(decode_record(line))
    return repo


def _audit_board(audit: Audit, raw: bytes, load) -> float:
    """Load one board with load(), replay it, add both to the audit and
    return the time they took.  Only the load and the replay are timed,
    and the loaded board is dropped afterwards, so an audit holds one
    board at a time."""
    t0 = time.perf_counter()
    repo = load()
    t1 = time.perf_counter()
    reports = replay_board(repo)
    t2 = time.perf_counter()
    audit.load_s += t1 - t0
    audit.replay_s += t2 - t1
    audit.records += len(repo)
    audit.reports.extend(reports)
    audit.raw.append(raw)
    for rec in repo:
        count, parts = audit.sizes.get(rec.session, (0, None))
        if rec.kind == "session_init":
            parts = int(rec.body["n_parts"])
        audit.sizes[rec.session] = (count + 1, parts)
    return t2 - t0


class Workload:
    """A fixed list of jobs, drawn from the seed at set-up and run once per
    round, and the boards they run on."""

    name = "?"
    group = "?"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.jobs: list[Job] = []

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{tag}")

    def expected_sessions(self) -> dict[str, str]:
        """Verdicts of the sessions on the boards before a round starts."""
        return {}

    # A round's audit is made of parts: either one part per session, each
    # auditing that session's board right after it ran, or one part at the
    # end of the round.  Each returns the seconds its load and replay took,
    # or None when the workload audits the other way.

    def audit_session(self, audit: Audit) -> float | None:
        return None

    def audit_round(self, audit: Audit) -> float | None:
        return None

    def close(self) -> None:
        pass


class FreshBoards(Workload):
    """Each session gets its own in-memory board; right after the session,
    the audit reloads that board from its bytes and replays it.  Auditing
    board by board spreads the audit over the whole run, as the sessions
    are, so a stretch of a slower or faster host moves both alike."""

    def make_jobs(self) -> list[Job]:
        raise NotImplementedError

    def setup(self) -> None:
        self.jobs = self.make_jobs()
        job = self.jobs[0]  # warm-up, untimed
        run_session(job.params, job.statement, job.witness, Repository())

    def start_round(self) -> None:
        self._current: Repository | None = None

    def board(self) -> Repository:
        self._current = Repository()
        return self._current

    def audit_session(self, audit: Audit) -> float:
        raw = _encode_board(self._current)
        self._current = None
        return _audit_board(audit, raw, lambda: _load_board(raw))


class CarModp2048(FreshBoards):
    """The README's car statement on the production group."""

    name = "car_modp2048"
    group = "modp2048"

    def make_jobs(self) -> list[Job]:
        return car_jobs(self.rng("jobs"), self.group, set())


class MixedToy23(FreshBoards):
    """Seeded random statements over all five operators on toy23."""

    name = "mixed_toy23"
    group = "toy23"
    STATEMENTS_PER_SIZE = 96
    SIZES = range(2, 7)

    def make_jobs(self) -> list[Job]:
        rng = self.rng("jobs")
        used: set[str] = set()
        jobs = []
        for n in self.SIZES:
            for n_xor in xor_schedule(n - 1, self.STATEMENTS_PER_SIZE):
                statement = random_statement(rng, n, n_xor)
                witness = "".join(rng.choice("01") for _ in range(n))
                jobs.append(_job(rng, statement, witness, rng.randrange(2),
                                 self.group, used))
        rng.shuffle(jobs)
        return jobs


class Board10k(Workload):
    """Car sessions on toy23 appended to a file-backed board that already
    holds ~10k records, then an outside audit of the whole file."""

    name = "board_10k"
    group = "toy23"
    PREFILL_SESSIONS = 480  # 21 records each: 10080 records

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.path = os.path.join(scratch, f"board_10k-{os.getpid()}.board")
        self._prefill = b""
        self._prefill_verdicts: dict[str, str] = {}
        self.repo: Repository | None = None

    def setup(self) -> None:
        """Build the pre-filled board.

        Each session runs on its own small board and its records are then
        published, in order, onto one board.  Sessions only read their own
        records and no body holds a sequence number, so the result is the
        board those sessions would leave running one after another on it,
        at a fraction of the cost of scanning a growing board.
        """
        rng = self.rng("prefill")
        used: set[str] = set()
        board = Repository()
        while len(self._prefill_verdicts) < self.PREFILL_SESSIONS:
            for job in car_jobs(rng, self.group, used):
                tr = run_session(job.params, job.statement, job.witness,
                                 Repository())
                if tr.verdict != job.expected:
                    raise RuntimeError(
                        f"pre-fill session {tr.session_id}: verdict "
                        f"{tr.verdict}, oracle says {job.expected}")
                for rec in tr.records:
                    board.publish(rec.session, rec.author, rec.kind, rec.body)
                self._prefill_verdicts[tr.session_id] = tr.verdict
        self._prefill = _encode_board(board)
        self.jobs = car_jobs(self.rng("jobs"), self.group, used)

    def start_round(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(self._prefill)
        self.repo = Repository(self.path)

    def board(self) -> Repository:
        return self.repo

    def audit_round(self, audit: Audit) -> float:
        self.repo = None  # drop the round's board before loading it afresh
        with open(self.path, "rb") as fh:
            raw = fh.read()
        return _audit_board(audit, raw, lambda: Repository(self.path))

    def expected_sessions(self) -> dict[str, str]:
        return dict(self._prefill_verdicts)

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


WORKLOADS = {
    "car_modp2048": CarModp2048,
    "mixed_toy23": MixedToy23,
    "board_10k": Board10k,
}


def session_problems(job: Job, transcript) -> list[str]:
    """Checks on one session's outputs against the oracle."""
    sid = transcript.session_id
    problems = []
    if transcript.verdict != job.expected:
        problems.append(f"{sid}: verdict {transcript.verdict} "
                        f"({transcript.reason}), oracle says {job.expected} "
                        f"for {job.statement!r} witness {job.witness} "
                        f"claim {job.claim}")
    commits = [r for r in transcript.records if r.kind == "statement_commit"]
    if len(commits) != 1:
        problems.append(f"{sid}: {len(commits)} statement_commit records")
    else:
        n = len(job.witness)
        if oracle.sop_table(commits[0].body["sop"], n) != oracle.truth_table(job.statement):
            problems.append(f"{sid}: committed SOP {commits[0].body['sop']!r} "
                            f"disagrees with the oracle on {job.statement!r}")
    return problems


def audit_problems(audit: Audit, verdicts: dict[str, str],
                   clause_texts: set[str]) -> list[str]:
    """Checks on an audit: every session replays ok with the verdict its
    run returned, the board holds exactly the expected sessions with
    7 * n_parts + 7 records each, and no clause text is on it."""
    problems = []
    replayed = {}
    for rep in audit.reports:
        replayed[rep.session] = rep.verdict
        if not rep.ok:
            failed = [name for name, ok, _ in rep.checks if not ok]
            problems.append(f"{rep.session}: replay failed {failed}")
    if replayed != verdicts:
        missing = set(verdicts) - set(replayed)
        extra = set(replayed) - set(verdicts)
        wrong = {s for s in set(verdicts) & set(replayed)
                 if replayed[s] != verdicts[s]}
        problems.append(f"replayed {len(replayed)} sessions for {len(verdicts)} "
                        f"run: missing {sorted(missing)[:3]}, extra "
                        f"{sorted(extra)[:3]}, other verdict {sorted(wrong)[:3]}")
    for sid, (count, parts) in audit.sizes.items():
        if parts is None or count != 7 * parts + 7:
            problems.append(f"{sid}: {count} records for n_parts={parts}")
    # A record holds text as JSON, so a clause with quotes in it would sit
    # on the board escaped; look for both forms.
    forms = {text: {text.encode(), json.dumps(text)[1:-1].encode()}
             for text in clause_texts}
    for raw in audit.raw:
        for text, encoded in forms.items():
            if any(form in raw for form in encoded):
                problems.append(f"clause text {text!r} is on the board")
    return problems
