"""Multi-party verification session over the public board.

Roles and their record traffic:

  prover      posts session_init and statement_commit, garbles every
              partition, answers transfer requests as the sender of all
              label transfers, garbles the aggregate circuit once the
              masks are revealed, and issues the final verdict.
  verifier i  commits to a random mask bit, receives its mask-wire label
              by transfer, evaluates partition i, posts the masked output
              label, then opens its commitment.
  aggregator  receives the label for its own random blind bit, evaluates
              the aggregate circuit on the posted partition output labels
              as they are, decodes, and posts its accept/reject view.

The prover accepts only when its own check (claimed value against the
witness evaluation) agrees with the aggregator's posted view; any
disagreement or failed validation aborts the session with a reason code
on the board.  Every engine is single-threaded and advances by polling
the board, so a whole session is a deterministic function of the seeds.
Where the board holds a second record of what an engine looks for (a
mask_commit, partition_output or mask_reveal for the same part; a
garbled_partition, prover_labels, ot_choose or ot_transfer for the same
party; an aggregate_publish, aggregate_output or final_verdict), the
first one wins (first_by), also where replay looks one up.  Each public
check is one function raising the error an engine aborts with, run by
one engine and by replay: check_reveal (prover; commit_opens_part_<i>),
ot.check_choose (ot_sender_transfer; ot_consistency_<id>), check_output
(aggregator; partition_label_valid_<i>), check_decode (prover;
aggregate_decode).

Engines and replay read every body field through read(rec, name) and its
table FIELDS.  A field it cannot read (missing, of the wrong JSON type,
not hex) aborts the session with reason MalformedRecord, or fails the
replay's well_formed check with a detail naming the record and field;
any other failed check's detail is "<ErrorClass>: <message>".

replay_board audits a loaded Repository: the board has checked every
record's digest, seq, kind and session opening as it took it, so replay
checks the protocol alone.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import xor

from .circuit import (
    AggregateSpec,
    LayeredCircuit,
    Partition,
    compile_expression,
    evaluate_plain,
    netlist,
    partition,
)
from .errors import (
    ArityMismatch,
    CommitMismatch,
    DepthZero,
    InvalidGroupElement,
    MalformedRecord,
    PartitionOutputInvalid,
    VerdictMismatch,
    ZkFabricError,
)
from .garble import (
    DecodeInfo,
    GarbledCircuit,
    GarbledGate,
    GarblingResult,
    decode_output,
    evaluate_garbled,
    garble_full,
    open_gate,
)
from .hashing import LABEL_BYTES, HashDrbg, commit_bit, sha256
from .ot import (
    OTTransfer,
    check_choose,
    element_to_bytes,
    group_by_name,
    ot_receiver_choose,
    ot_receiver_recover,
    ot_sender_init,
    ot_sender_transfer,
)
from .repository import Repository, RepositoryRecord
from .syntax import syn_gen


def parse_bits(value) -> tuple[int, ...]:
    if isinstance(value, str):
        if not value or any(ch not in "01" for ch in value):
            raise ArityMismatch(f"bad bit string {value!r}")
        return tuple(int(ch) for ch in value)
    return tuple(int(v) & 1 for v in value)


def _derive_seed(material: str) -> int:
    return int.from_bytes(sha256(material.encode())[:8], "big")


# Readers of record body fields.  FIELDS is the board's body format: a
# field name reads the same way in every record kind.

def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{type(value).__name__} is not a string")
    return value


def _lambda_h(value) -> int:
    if int(value) not in (128, 256):
        raise ValueError(f"{value!r} is neither 128 nor 256")
    return int(value)


def _each(reader):
    """The reader of a list whose every item `reader` reads."""
    return lambda value: tuple(reader(v) for v in value)


def _element(value) -> int:
    return int(value, 16)


def _sized(n: int, value):
    """`value`, if it has length n."""
    if len(value) != n:
        raise ValueError(f"length {len(value)}, not {n}")
    return value


def _label(value) -> bytes:
    return _sized(LABEL_BYTES, bytes.fromhex(value))


def _label_map(value) -> dict[int, bytes]:
    return {int(k): _label(v) for k, v in value.items()}


FIELDS = {
    "part": int, "n_vars": int, "n_parts": int, "label_bits": int,
    "y_claim": int, "r": int, "x1m": int, "y": int, "accept": int,
    "mask_input": int, "agg_input": int, "lambda_h": _lambda_h,
    "parent_inputs": _each(int), "part_inputs": _each(int),
    "mask_inputs": _each(int), "passthrough_inputs": _each(int),
    "passthrough_parents": _each(int),
    "group": group_by_name, "session_id": _text, "commitment": _text,
    "sop": _text, "verdict": _text, "reason": _text,
    "operators": _each(_text), "netlist": _each(_text),
    "label": _label, "salt": bytes.fromhex,
    "clause_digests": _each(bytes.fromhex), "const_labels": _each(_label),
    "y0": _element, "y1": _element, "ot_c": _element, "ot_a": _element,
    "c0": bytes.fromhex, "c1": bytes.fromhex,
    "labels": _label_map, "input_labels": _label_map,
    "circuit": LayeredCircuit.from_dict,
    "tables": _each(lambda rows: GarbledGate(_sized(4, tuple(map(bytes.fromhex, rows))))),
    # {label hash: bit} as DecodeInfo entries
    "decode": lambda v: tuple((_text(h), int(bit)) for h, bit in v),
}


def read(rec: RepositoryRecord, name: str):
    """Body field `name` of `rec`, decoded by its reader in FIELDS.  A field
    that is missing or refused raises MalformedRecord naming rec and name."""
    reader = FIELDS[name]
    try:
        return reader(rec.body[name])
    except (KeyError, TypeError, ValueError, AttributeError, InvalidGroupElement) as exc:
        raise MalformedRecord(f"{rec.kind} record {rec.seq}: "
                              f"{type(exc).__name__}: {name}: {exc}") from None


def first_by(records: list[RepositoryRecord], key: str) -> dict:
    """`records` by their `key` field, the first record of each key."""
    found = {}
    for rec in records:
        found.setdefault(read(rec, key), rec)
    return found


def check_reveal(commit: RepositoryRecord | None, reveal: RepositoryRecord, lam: int) -> int:
    """The mask bit that `reveal` opens, if it opens `commit`, the first
    mask_commit of its part (None where the part has none)."""
    r, salt = read(reveal, "r"), read(reveal, "salt")
    if commit is None or commit_bit(r, salt, lam) != read(commit, "commitment"):
        raise CommitMismatch(f"mask_reveal record {reveal.seq} does not open its commitment")
    return r


def check_output(tables, mask_inputs, input_labels, part: int, label: bytes) -> None:
    """Refuse `label` as part `part`'s output unless it and the part's mask
    label open the part's unmask gate, gate part - 1 of the aggregate."""
    if not 1 <= part <= min(len(tables), len(mask_inputs)):
        raise PartitionOutputInvalid(f"part {part} has no unmask gate")
    mask_label = input_labels.get(mask_inputs[part - 1])
    if mask_label is None or open_gate(tables[part - 1], part - 1, label, mask_label) is None:
        raise PartitionOutputInvalid(f"part {part} posted a label outside its pair")


def check_decode(decode: DecodeInfo, output: RepositoryRecord) -> None:
    """Refuse an aggregate_output whose label does not decode to its y."""
    if decode_output(decode, read(output, "label")) != read(output, "y"):
        raise VerdictMismatch("posted plaintext does not match the label")


@dataclass(frozen=True)
class SessionParams:
    session_id: str
    y_claim: int
    lambda_h: int = 256
    group: str = "modp2048"
    n_verifiers: int | None = None
    prover_seed: int = 0
    aggregator_seed: int = 0
    verifier_seed_base: int = 0

    def __post_init__(self):
        if self.lambda_h not in (128, 256):
            raise ValueError(f"lambda_h={self.lambda_h}")
        if self.y_claim not in (0, 1):
            raise ValueError("y_claim must be a bit")

    @classmethod
    def from_master(cls, master: int, y_claim: int, **overrides) -> "SessionParams":
        fields = {
            "session_id": "s" + sha256(f"{master}/session".encode())[:6].hex(),
            "y_claim": y_claim,
            "prover_seed": _derive_seed(f"{master}/prover"),
            "aggregator_seed": _derive_seed(f"{master}/aggregator"),
            "verifier_seed_base": master,
        }
        fields.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**fields)


@dataclass
class Transcript:
    """What a session left in public, with the wall time of each phase."""

    session_id: str
    records: list[RepositoryRecord]
    verdict: str
    reason: str | None
    timings: dict[str, float]


class _Engine:
    role = "?"

    def __init__(self, params: SessionParams, repo: Repository):
        self.params = params
        self.repo = repo
        self.done = False
        self.verdict: RepositoryRecord | None = None  # its first final_verdict

    def _post(self, kind: str, body: dict) -> RepositoryRecord:
        rec = self.repo.publish(self.params.session_id, self.role, kind, body)
        if kind == "final_verdict":
            self.verdict = self.verdict or rec
        return rec

    def _abort(self, reason: str) -> None:
        self._post("final_verdict", {"verdict": "abort", "reason": reason})
        self.done = True

    def _fetch(self, kind: str) -> list[RepositoryRecord]:
        return self.repo.fetch(session=self.params.session_id, kind=kind)

    def _session_init(self) -> RepositoryRecord:
        return self._fetch("session_init")[0]

    def _choose(self, ot_id: str, c: int, bit: int) -> None:
        """Post this party's receiver message for transfer `ot_id`."""
        group = read(self._session_init(), "group")
        choose, self.ot_state = ot_receiver_choose(group, c, bit, self.drbg)
        self._post("ot_choose", {
            "session_id": ot_id,
            "y0": element_to_bytes(group, choose.y0).hex(),
            "y1": element_to_bytes(group, choose.y1).hex(),
        })

    def _recover(self, ot_id: str) -> bytes | None:
        """The label that the transfer for `ot_id` carries to this party,
        or None while the prover has not sent it."""
        rec = first_by(self._fetch("ot_transfer"), "session_id").get(ot_id)
        if rec is None:
            return None
        return ot_receiver_recover(
            self.ot_state, OTTransfer(read(rec, "ot_a"), read(rec, "c0"), read(rec, "c1")))

    def step(self) -> str | None:
        """Run the current phase once. Return its name if it did work,
        "abort" if it posted an abort, or None if it is still waiting."""
        if self.done:
            return None
        try:
            return getattr(self, "_" + self.phase)()
        except ZkFabricError as exc:
            self._abort(type(exc).__name__)
        except (KeyError, TypeError, ValueError):
            self._abort(MalformedRecord.__name__)
        return "abort"


def _tables_to_body(res: GarblingResult) -> dict:
    return {
        "tables": [[row.hex() for row in gate.rows] for gate in res.garbled.tables],
        "const_labels": [lab.hex() for lab in res.garbled.const_labels],
    }


def _part_wiring(part: Partition) -> dict:
    """The garbled_partition fields that partition() fixes for `part`."""
    return {"circuit": part.circuit.to_dict(),
            "parent_inputs": list(part.parent_inputs), "mask_input": part.mask_input}


def _aggregate_wiring(agg: AggregateSpec) -> dict:
    """The aggregate_publish fields that partition() fixes."""
    return {"circuit": agg.circuit.to_dict(), "part_inputs": list(agg.part_inputs),
            "passthrough_inputs": list(agg.passthrough_inputs),
            "passthrough_parents": list(agg.passthrough_parents),
            "mask_inputs": list(agg.mask_inputs), "agg_input": agg.agg_input}


def _garbled(rec: RepositoryRecord, digest_bits: int) -> GarbledCircuit:
    """The garbled circuit of rec: one table per gate, two constant labels."""
    circuit = read(rec, "circuit")
    return GarbledCircuit(circuit, _sized(len(circuit.gates), read(rec, "tables")),
                          _sized(2, read(rec, "const_labels")), digest_bits)


class ProverEngine(_Engine):
    role = "prover"

    def __init__(self, params, statement_text, witness, repo):
        super().__init__(params, repo)
        self.witness = parse_bits(witness)
        self.minimized, self.statement = syn_gen(statement_text, params.lambda_h)
        if len(self.witness) != self.statement.n_vars:
            raise ArityMismatch(
                f"witness has {len(self.witness)} bits for "
                f"{self.statement.n_vars} clauses")
        self.circuit = compile_expression(self.minimized)
        self.pset = partition(self.circuit)
        self.m1 = len(self.pset.parts)
        if params.n_verifiers is not None and params.n_verifiers != self.m1:
            raise ArityMismatch(
                f"{params.n_verifiers} verifiers for {self.m1} partitions")
        self.f_value = evaluate_plain(self.circuit, self.witness)
        self.drbg = HashDrbg(params.prover_seed,
                             context=f"{params.session_id}/prover")
        self.group = group_by_name(params.group)
        self.phase = "await_commits"
        self.part_results: list[GarblingResult] = []
        self.offers: dict[str, tuple] = {}  # ot_id -> (sender state, label pair)
        self.agg_result: GarblingResult | None = None

    def bootstrap(self) -> None:
        self._post("session_init", {
            "lambda_h": self.params.lambda_h,
            "label_bits": LABEL_BYTES * 8,
            "group": self.params.group,
            "n_vars": self.statement.n_vars,
            "n_parts": self.m1,
            "y_claim": self.params.y_claim,
        })
        self._post("statement_commit", {
            "clause_digests": [c.digest.hex() for c in self.statement.clauses],
            "operators": [op.value for op in self.statement.operators],
            "sop": self.minimized.canonical(),
            "circuit": self.circuit.to_dict(),
            "netlist": netlist(self.circuit),
        })

    def _await_commits(self) -> str | None:
        self.commits = first_by(self._fetch("mask_commit"), "part")
        if not set(range(1, self.m1 + 1)) <= set(self.commits):
            return None
        lam = self.params.lambda_h
        for i, part in enumerate(self.pset.parts, start=1):
            res = garble_full(part.circuit, self.drbg, lam)
            self.part_results.append(res)
            c, state = ot_sender_init(self.group, self.drbg)
            self.offers[f"mask-{i}"] = (state, res.wire_labels[part.mask_input])
            body = {"part": i, **_part_wiring(part), "ot_c": self._elem(c),
                    **_tables_to_body(res)}
            self._post("garbled_partition", body)
            labels = {
                str(local): res.encode.label_for(local, self.witness[parent]).hex()
                for local, parent in enumerate(part.parent_inputs)
            }
            self._post("prover_labels", {"part": i, "labels": labels})
        self.phase = "answer"
        return "publish_partitions"

    def _elem(self, x: int) -> str:
        return element_to_bytes(self.group, x).hex()

    def _answer(self) -> str | None:
        """Send the transfer of each open offer whose receiver has chosen."""
        chooses = first_by(self._fetch("ot_choose"), "session_id")
        ready = [ot_id for ot_id in self.offers if ot_id in chooses]
        for ot_id in ready:
            state, (m0, m1) = self.offers.pop(ot_id)
            tr = ot_sender_transfer(state, read(chooses[ot_id], "y0"),
                                    read(chooses[ot_id], "y1"), m0, m1, self.drbg)
            self._post("ot_transfer", {"session_id": ot_id, "ot_a": self._elem(tr.a),
                                       "c0": tr.c0.hex(), "c1": tr.c1.hex()})
        if not self.offers:
            self.phase = "await_agg_output" if self.agg_result else "await_outputs"
        return "ot_transfer" if ready else None

    def _await_outputs(self) -> str | None:
        reveals = first_by(self._fetch("mask_reveal"), "part")
        if not set(range(1, self.m1 + 1)) <= set(reveals):
            return None
        lam = self.params.lambda_h
        self.masks = [check_reveal(self.commits[i], reveals[i], lam)
                      for i in range(1, self.m1 + 1)]

        # the aggregate's first inputs (agg.part_inputs) take the parts'
        # output pairs, so its evaluator reads the posted outputs as they are
        agg = self.pset.aggregate
        part_outputs = tuple(res.wire_labels[part.circuit.output]
                             for part, res in zip(self.pset.parts, self.part_results))
        self.agg_result = garble_full(agg.circuit, self.drbg, lam, part_outputs)
        input_labels = {}
        for local, r_bit in zip(agg.mask_inputs, self.masks):
            input_labels[str(local)] = self.agg_result.encode.label_for(local, r_bit).hex()
        for local, parent in zip(agg.passthrough_inputs, agg.passthrough_parents):
            input_labels[str(local)] = self.agg_result.encode.label_for(
                local, self.witness[parent]).hex()
        c, state = ot_sender_init(self.group, self.drbg)
        self.offers["xm"] = (state, self.agg_result.wire_labels[agg.agg_input])
        body = {
            **_aggregate_wiring(agg),
            "decode": self.agg_result.decode.to_lists(),
            "input_labels": input_labels,
            "ot_c": self._elem(c),
            "x1m": reduce(xor, self.masks, 0),
        }
        body.update(_tables_to_body(self.agg_result))
        self._post("aggregate_publish", body)
        self.phase = "answer"
        return "aggregate_setup"

    def _await_agg_output(self) -> str | None:
        recs = self._fetch("aggregate_output")
        if not recs:
            return None
        check_decode(self.agg_result.decode, recs[0])
        my_accept = int(self.f_value == self.params.y_claim)
        if read(recs[0], "accept") != my_accept:
            raise VerdictMismatch("aggregator view disagrees with the prover")
        self._post("final_verdict",
                   {"verdict": "accept" if my_accept else "reject"})
        self.done = True
        return "final"


class VerifierEngine(_Engine):
    role = "verifier"

    def __init__(self, params: SessionParams, index: int, repo: Repository):
        super().__init__(params, repo)
        self.index = index
        self.role = f"verifier-{index}"
        seed = _derive_seed(f"{params.verifier_seed_base}/verifier/{index}")
        self.drbg = HashDrbg(seed, context=f"{params.session_id}/verifier-{index}")
        self.r = self.drbg.randbit()
        self.salt = self.drbg.random_bytes(16)
        self.phase = "commit"
        self.ot_state = self.partition = self.labels = None

    def _commit(self) -> str:
        lam = read(self._session_init(), "lambda_h")
        self._post("mask_commit", {
            "part": self.index,
            "commitment": commit_bit(self.r, self.salt, lam),
        })
        self.phase = "await_partition"
        return "commit"

    def _await_partition(self) -> str | None:
        self.partition = first_by(self._fetch("garbled_partition"), "part").get(self.index)
        labels = first_by(self._fetch("prover_labels"), "part").get(self.index)
        if self.partition is None or labels is None:
            return None
        self.labels = read(labels, "labels")
        self._choose(f"mask-{self.index}", read(self.partition, "ot_c"), self.r)
        self.phase = "await_transfer"
        return "choose"

    def _await_transfer(self) -> str | None:
        mask_label = self._recover(f"mask-{self.index}")
        if mask_label is None:
            return None
        gc = _garbled(self.partition, read(self._session_init(), "lambda_h"))
        inputs = {**self.labels, read(self.partition, "mask_input"): mask_label}
        out_label = evaluate_garbled(gc, inputs)
        self._post("partition_output",
                   {"part": self.index, "label": out_label.hex()})
        self._post("mask_reveal", {
            "part": self.index, "r": self.r, "salt": self.salt.hex(),
        })
        self.done = True
        return "evaluate"


class AggregatorEngine(_Engine):
    role = "aggregator"

    def __init__(self, params: SessionParams, repo: Repository):
        super().__init__(params, repo)
        self.drbg = HashDrbg(params.aggregator_seed,
                             context=f"{params.session_id}/aggregator")
        self.x_m = self.drbg.randbit()
        self.phase = "await_publish"
        self.ot_state = self.publish = None

    def _await_publish(self) -> str | None:
        recs = self._fetch("aggregate_publish")
        if not recs:
            return None
        self.publish = recs[0]
        self._choose("xm", read(self.publish, "ot_c"), self.x_m)
        self.phase = "await_transfer"
        return "choose"

    def _await_transfer(self) -> str | None:
        xm_label = self._recover("xm")
        if xm_label is None:
            return None
        pub = self.publish
        init = self._session_init()
        lam = read(init, "lambda_h")
        gc = _garbled(pub, lam)
        mask_inputs, input_labels = read(pub, "mask_inputs"), read(pub, "input_labels")
        outputs = first_by(self._fetch("partition_output"), "part")
        inputs = {}
        for i, local in enumerate(read(pub, "part_inputs"), start=1):
            inputs[local] = read(outputs[i], "label")
            check_output(gc.tables, mask_inputs, input_labels, i, inputs[local])
        inputs.update(input_labels)
        inputs[read(pub, "agg_input")] = xm_label
        out_label = evaluate_garbled(gc, inputs)
        y = decode_output(DecodeInfo(read(pub, "decode"), lam), out_label)
        accept = self._decide(y, read(init, "y_claim"))
        self._post("aggregate_output",
                   {"label": out_label.hex(), "y": y, "accept": accept})
        self.done = True
        return "aggregate"

    def _decide(self, y: int, y_claim: int) -> int:
        return int(y == y_claim ^ self.x_m)


def run_session(params: SessionParams, statement_text: str, witness,
                repo: Repository | None = None,
                engine_overrides: dict | None = None) -> Transcript:
    """Drive one full session to its verdict.

    engine_overrides maps role names ("prover", "verifier-2", "aggregator")
    to engine classes, which is how tests inject misbehaving parties.
    """
    repo = repo if repo is not None else Repository()
    overrides = engine_overrides or {}
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    prover_cls = overrides.get("prover", ProverEngine)
    prover = prover_cls(params, statement_text, witness, repo)
    prover.bootstrap()
    timings["prover.bootstrap"] = time.perf_counter() - t0

    engines: list[_Engine] = [prover]
    for i in range(1, prover.m1 + 1):
        cls = overrides.get(f"verifier-{i}", VerifierEngine)
        engines.append(cls(params, i, repo))
    agg_cls = overrides.get("aggregator", AggregatorEngine)
    engines.append(agg_cls(params, repo))

    sid = params.session_id
    verdict_rec = None
    while verdict_rec is None:
        progress = False
        for engine in engines:
            if engine.done:
                continue
            t0 = time.perf_counter()
            phase = engine.step()
            if phase:
                key = f"{engine.role}.{phase}"
                timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
                progress = True
            verdict_rec = engine.verdict
            if verdict_rec is not None:
                break
        if verdict_rec is None and not progress:
            raise RuntimeError("session deadlocked without a verdict")

    return Transcript(
        session_id=sid,
        records=repo.fetch(session=sid),
        verdict=verdict_rec.body["verdict"],
        reason=verdict_rec.body.get("reason"),
        timings=timings,
    )


def run_simulation(statement: str, witness, y_claim: int,
                   n_verifiers: int | None = None, seed: int = 0,
                   group: str = "modp2048", lambda_h: int = 256,
                   board_path=None, session_id: str | None = None) -> Transcript:
    """Convenience wrapper: derive per-role seeds and run one session."""
    params = SessionParams.from_master(
        seed, y_claim=y_claim, n_verifiers=n_verifiers,
        group=group, lambda_h=lambda_h, session_id=session_id)
    return run_session(params, statement, witness, Repository(board_path))


# transcript replay

@dataclass
class ReplayReport:
    session: str
    verdict: str | None
    ok: bool
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


def _check(report: ReplayReport, name: str, ok: bool, detail: str = "") -> None:
    report.checks.append((name, ok, detail))
    if not ok:
        report.ok = False


def _verify(report: ReplayReport, name: str, check, *args):
    """Check `name` by `check(*args)`, returning what it returns: an error
    but MalformedRecord FAILs the check, and gives None."""
    try:
        result = check(*args)
    except MalformedRecord:
        raise
    except ZkFabricError as exc:
        _check(report, name, False, f"{type(exc).__name__}: {exc}")
        return None
    _check(report, name, True)
    return result


def replay_board(repo: Repository) -> list[ReplayReport]:
    """Re-validate the protocol of every session on a board, each of which
    the board opened with exactly one session_init."""
    return [_replay_session(init.session, repo.fetch(session=init.session))
            for init in repo.fetch(kind="session_init")]


def _circuits_differ(by_kind: dict[str, list[RepositoryRecord]]) -> str:
    """The first part and field where a garbled_partition or the
    aggregate_publish differs from what partition() derives from the
    committed circuit, or "" where none does.  Posted values are compared
    as they stand, not parsed, with the fields the prover would post."""
    commits = by_kind.get("statement_commit")
    if not commits:
        return "no statement_commit"
    try:
        pset = partition(read(commits[0], "circuit"))
    except DepthZero as exc:
        return f"statement_commit: DepthZero: {exc}"
    derived = {"aggregate_publish": _aggregate_wiring(pset.aggregate)}
    for i, part in enumerate(pset.parts, start=1):
        derived[f"garbled_partition part {i}"] = _part_wiring(part)
    for rec in by_kind.get("garbled_partition", []) + by_kind.get("aggregate_publish", []):
        where = (rec.kind if rec.kind == "aggregate_publish"
                 else f"{rec.kind} part {read(rec, 'part')}")
        if where not in derived:
            return f"{where}: no such part"
        for name, value in derived[where].items():
            if rec.body.get(name) != value:
                return f"{where}: {name}"
    return ""


def _ot_ids_differ(n_parts: int, by_kind: dict[str, list[RepositoryRecord]]) -> str:
    """Each OT id that the ot_choose or the ot_transfer records do not hold
    exactly as often as a settled session does, as "<id>: <count> <kind>":
    once for mask-1 ... mask-<n_parts> and xm, never for any other id.  The
    caller caps n_parts, which is as large as the poster likes, by the
    session's record count."""
    found = []
    wanted = {"xm"} | {f"mask-{i}" for i in range(1, n_parts + 1)}
    for kind in ("ot_choose", "ot_transfer"):
        counts = Counter(read(rec, "session_id") for rec in by_kind.get(kind, []))
        for ot_id in sorted(counts.keys() | wanted):
            if counts[ot_id] != int(ot_id in wanted):
                found.append(f"{ot_id}: {counts[ot_id]} {kind}")
    return "; ".join(found)


def _replay_session(sid: str, recs: list[RepositoryRecord]) -> ReplayReport:
    report = ReplayReport(session=sid, verdict=None, ok=True)
    by_kind: dict[str, list[RepositoryRecord]] = {}
    for rec in recs:
        by_kind.setdefault(rec.kind, []).append(rec)

    verdicts = by_kind.get("final_verdict", [])
    _check(report, "closes_with_verdict",
           len(verdicts) == 1 and recs[-1].kind == "final_verdict")
    if not verdicts:
        return report
    verdict_body = verdicts[0].body
    report.verdict = verdict_body.get("verdict")
    if report.verdict == "abort":
        _check(report, "abort_reason", bool(verdict_body.get("reason")))
    elif report.verdict in ("accept", "reject"):
        # any party may abort; only the prover settles accept or reject
        author = verdicts[0].author
        _check(report, "verdict_author", author == "prover",
               "" if author == "prover" else f"posted by {author}")

    init = recs[0]
    try:
        lam = read(init, "lambda_h")
        group = read(init, "group")

        if report.verdict in ("accept", "reject"):
            n_parts = read(init, "n_parts")
            found = []
            for kind in ("garbled_partition", "mask_commit", "mask_reveal"):
                parts = sorted(read(rec, "part") for rec in by_kind.get(kind, []))
                # lengths first: n_parts is as large as the poster likes
                if len(parts) != n_parts or parts != list(range(1, n_parts + 1)):
                    found.append(f"{kind} parts {parts}")
            _check(report, "parts_match_init", not found,
                   f"n_parts {n_parts}: " + "; ".join(found) if found else "")
            differ = _ot_ids_differ(min(n_parts, len(recs)), by_kind)
            _check(report, "ot_ids_match", not differ, differ)

        differ = _circuits_differ(by_kind)
        _check(report, "circuits_match_commit", not differ, differ)

        commits = first_by(by_kind.get("mask_commit", []), "part")
        masks = {}  # part -> the bit its first mask_reveal opens, as the prover reads
        for rec in by_kind.get("mask_reveal", []):
            part = read(rec, "part")
            masks.setdefault(part, _verify(report, f"commit_opens_part_{part}",
                                           check_reveal, commits.get(part), rec, lam))

        publishes = by_kind.get("aggregate_publish", [])
        ot_c = {f"mask-{part}": read(rec, "ot_c") for part, rec
                in first_by(by_kind.get("garbled_partition", []), "part").items()}
        ot_c.update(("xm", read(pub, "ot_c")) for pub in publishes[:1])
        for rec in by_kind.get("ot_choose", []):
            ot_id = read(rec, "session_id")
            _verify(report, f"ot_consistency_{ot_id}", check_choose, group,
                    ot_c.get(ot_id), read(rec, "y0"), read(rec, "y1"))

        for pub in publishes[:1]:
            # a first reveal that opens nothing has FAILED its commit check
            if masks and None not in masks.values():
                x1m, xored = read(pub, "x1m"), reduce(xor, masks.values())
                _check(report, "x1m_matches_reveals", x1m == xored,
                       "" if x1m == xored else f"x1m {x1m}, revealed masks XOR to {xored}")
            tables, mask_inputs = read(pub, "tables"), read(pub, "mask_inputs")
            input_labels = read(pub, "input_labels")
            for rec in by_kind.get("partition_output", []):
                part = read(rec, "part")
                _verify(report, f"partition_label_valid_{part}", check_output,
                        tables, mask_inputs, input_labels, part, read(rec, "label"))
            for rec in by_kind.get("aggregate_output", []):
                _verify(report, "aggregate_decode", check_decode,
                        DecodeInfo(read(pub, "decode"), lam), rec)
                if report.verdict in ("accept", "reject"):
                    _check(report, "verdict_matches_aggregator",
                           (report.verdict == "accept") == bool(read(rec, "accept")))
    except MalformedRecord as exc:
        _check(report, "well_formed", False, str(exc))
    return report
