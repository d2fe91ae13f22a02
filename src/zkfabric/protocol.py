"""Multi-party verification session over the public board.

Roles and their record traffic:

  prover      posts session_init and statement_commit, garbles every
              partition, answers transfer requests as the sender of all
              label transfers, garbles the aggregate circuit once the
              masks are revealed, and issues the final verdict.
  verifier i  commits to a random mask bit, receives its mask-wire label
              by transfer, evaluates partition i, posts the masked output
              label, then opens its commitment.
  aggregator  receives the label for its own random blind bit, translates
              the posted partition outputs into aggregate-circuit labels,
              evaluates, decodes, and posts its accept/reject view.

The prover accepts only when its own check (claimed value against the
witness evaluation) agrees with the aggregator's posted view; any
disagreement or failed validation aborts the session with a reason code
on the board.  Every engine is single-threaded and advances by polling
the board, so a whole session is a deterministic function of the seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .circuit import (
    LayeredCircuit,
    compile_expression,
    evaluate_plain,
    evaluate_wires,
    netlist,
    partition,
)
from .errors import (
    ArityMismatch,
    CommitMismatch,
    DecryptFailure,
    PartitionOutputInvalid,
    UnknownLabel,
    VerdictMismatch,
    ZkFabricError,
)
from .garble import (
    DecodeInfo,
    GarbledCircuit,
    GarbledGate,
    GarblingResult,
    TranslationTable,
    build_translation,
    decode_output,
    evaluate_garbled,
    garble_full,
)
from .hashing import HashDrbg, commit_bit, sha256
from .ot import (
    OTChoose,
    OTTransfer,
    group_by_name,
    in_subgroup,
    ot_receiver_choose,
    ot_receiver_recover,
    ot_sender_init,
    ot_sender_transfer,
)
from .repository import Repository, RepositoryRecord, _digest_fields
from .syntax import syn_gen


def parse_bits(value) -> tuple[int, ...]:
    if isinstance(value, str):
        if not value or any(ch not in "01" for ch in value):
            raise ArityMismatch(f"bad bit string {value!r}")
        return tuple(int(ch) for ch in value)
    return tuple(int(v) & 1 for v in value)


def _derive_seed(material: str) -> int:
    return int.from_bytes(sha256(material.encode())[:8], "big")


@dataclass(frozen=True)
class SessionParams:
    session_id: str
    y_claim: int
    lambda_h: int = 256
    label_bits: int = 128
    group: str = "modp2048"
    n_verifiers: int | None = None
    prover_seed: int = 0
    aggregator_seed: int = 0
    verifier_seed_base: int = 0
    verifier_seeds: tuple[int, ...] = ()

    def __post_init__(self):
        if self.lambda_h not in (128, 256):
            raise ValueError(f"lambda_h={self.lambda_h}")
        if self.label_bits != 128:
            raise ValueError("label width is fixed at 128 bits")
        if self.y_claim not in (0, 1):
            raise ValueError("y_claim must be a bit")

    def verifier_seed(self, index: int) -> int:
        if index - 1 < len(self.verifier_seeds):
            return self.verifier_seeds[index - 1]
        return _derive_seed(f"{self.verifier_seed_base}/verifier/{index}")

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
class ProverAudit:
    """Private session view kept by the prover for leak scanning in tests."""

    witness: tuple[int, ...]
    clause_texts: tuple[str, ...]
    f_value: int
    inactive_labels: tuple[str, ...]


@dataclass
class Transcript:
    session_id: str
    records: list[RepositoryRecord]
    verdict: str
    reason: str | None
    timings: dict[str, float]
    audit: ProverAudit | None = None


class _Engine:
    role = "?"

    def __init__(self, params: SessionParams, repo: Repository):
        self.params = params
        self.repo = repo
        self.done = False

    def _post(self, kind: str, body: dict) -> RepositoryRecord:
        return self.repo.publish(self.params.session_id, self.role, kind, body)

    def _abort(self, reason: str) -> None:
        self._post("final_verdict", {"verdict": "abort", "reason": reason})
        self.done = True

    def _fetch(self, kind: str) -> list[RepositoryRecord]:
        return self.repo.fetch(session=self.params.session_id, kind=kind)

    def _session_init(self) -> dict:
        return self._fetch("session_init")[0].body

    def step(self) -> str | None:
        raise NotImplementedError


def _tables_to_body(res: GarblingResult) -> dict:
    return {
        "tables": [[row.hex() for row in gate.rows] for gate in res.garbled.tables],
        "const_labels": [lab.hex() for lab in res.garbled.const_labels],
    }


def _garbled_from_body(body: dict, circuit: LayeredCircuit, digest_bits: int) -> GarbledCircuit:
    tables = tuple(
        GarbledGate(tuple(bytes.fromhex(row) for row in rows))
        for rows in body["tables"]
    )
    consts = tuple(bytes.fromhex(h) for h in body["const_labels"])
    return GarbledCircuit(circuit, tables, consts, digest_bits)


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
        self.commitments: dict[int, str] = {}
        self.part_results: list[GarblingResult] = []
        self.part_ot: dict[int, object] = {}
        self.transfers_sent: set[int] = set()
        self.masks: list[int] = []
        self.agg_result: GarblingResult | None = None
        self.agg_ot = None
        self.agg_transfer_sent = False
        self.posted_y: int | None = None

    def bootstrap(self) -> None:
        lam = self.params.lambda_h
        self._post("session_init", {
            "lambda_h": lam,
            "label_bits": self.params.label_bits,
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

    def step(self) -> str | None:
        if self.done:
            return None
        try:
            return getattr(self, "_" + self.phase)()
        except ZkFabricError as exc:
            self._abort(type(exc).__name__)
            return "abort"

    def _await_commits(self) -> str | None:
        for rec in self._fetch("mask_commit"):
            part = int(rec.body["part"])
            self.commitments.setdefault(part, str(rec.body["commitment"]))
        if set(self.commitments) < set(range(1, self.m1 + 1)):
            return None
        lam = self.params.lambda_h
        for i, part in enumerate(self.pset.parts, start=1):
            res = garble_full(part.circuit, self.drbg, lam)
            self.part_results.append(res)
            c, state = ot_sender_init(self.group, self.drbg)
            self.part_ot[i] = state
            body = {
                "part": i,
                "circuit": part.circuit.to_dict(),
                "parent_inputs": list(part.parent_inputs),
                "mask_input": part.mask_input,
                "ot_c": self._elem(c),
            }
            body.update(_tables_to_body(res))
            self._post("garbled_partition", body)
            labels = {
                str(local): res.encode.label_for(local, self.witness[parent]).hex()
                for local, parent in enumerate(part.parent_inputs)
            }
            self._post("prover_labels", {"part": i, "labels": labels})
        self.phase = "await_chooses"
        return "publish_partitions"

    def _elem(self, x: int) -> str:
        return x.to_bytes(self.group.element_bytes, "big").hex()

    def _await_chooses(self) -> str | None:
        chooses = {r.body["session_id"]: r.body for r in self._fetch("ot_choose")}
        progress = False
        for i in range(1, self.m1 + 1):
            if i in self.transfers_sent or f"mask-{i}" not in chooses:
                continue
            body = chooses[f"mask-{i}"]
            mask_wire = self.pset.parts[i - 1].mask_input
            pair = self.part_results[i - 1].wire_labels[mask_wire]
            self._send_transfer(f"mask-{i}", self.part_ot[i], body, pair)
            self.transfers_sent.add(i)
            progress = True
        if len(self.transfers_sent) == self.m1:
            self.phase = "await_outputs"
        return "ot_transfer" if progress else None

    def _send_transfer(self, ot_id: str, state, choose_body: dict,
                       pair: tuple[bytes, bytes]) -> None:
        y0 = int(choose_body["y0"], 16)
        y1 = int(choose_body["y1"], 16)
        tr = ot_sender_transfer(state, y0, y1, pair[0], pair[1], self.drbg)
        self._post("ot_transfer", {
            "session_id": ot_id,
            "c0": [self._elem(tr.c0[0]), tr.c0[1].hex()],
            "c1": [self._elem(tr.c1[0]), tr.c1[1].hex()],
        })

    def _await_outputs(self) -> str | None:
        outputs = {int(r.body["part"]): r.body for r in self._fetch("partition_output")}
        reveals = {int(r.body["part"]): r.body for r in self._fetch("mask_reveal")}
        wanted = set(range(1, self.m1 + 1))
        if set(outputs) < wanted or set(reveals) < wanted:
            return None
        lam = self.params.lambda_h
        self.masks = []
        self.part_out_labels: list[bytes] = []
        for i in range(1, self.m1 + 1):
            r_bit = int(reveals[i]["r"])
            salt = bytes.fromhex(reveals[i]["salt"])
            if commit_bit(r_bit, salt, lam) != self.commitments[i]:
                raise CommitMismatch(f"part {i} reveal does not open its commitment")
            out_wire = self.pset.parts[i - 1].circuit.output
            pair = self.part_results[i - 1].wire_labels[out_wire]
            label = bytes.fromhex(outputs[i]["label"])
            if label not in pair:
                raise PartitionOutputInvalid(f"part {i} posted a label outside its pair")
            self.masks.append(r_bit)
            self.part_out_labels.append(label)

        agg = self.pset.aggregate
        self.agg_result = garble_full(agg.circuit, self.drbg, lam)
        translations = {}
        for i in range(1, self.m1 + 1):
            up = self.part_results[i - 1].wire_labels[
                self.pset.parts[i - 1].circuit.output]
            down = self.agg_result.wire_labels[agg.part_inputs[i - 1]]
            translations[str(i)] = build_translation(up, down, lam).to_lists()
        input_labels = {}
        for local, r_bit in zip(agg.mask_inputs, self.masks):
            input_labels[str(local)] = self.agg_result.encode.label_for(local, r_bit).hex()
        for local, parent in zip(agg.passthrough_inputs, agg.passthrough_parents):
            input_labels[str(local)] = self.agg_result.encode.label_for(
                local, self.witness[parent]).hex()
        c, self.agg_ot = ot_sender_init(self.group, self.drbg)
        body = {
            "circuit": agg.circuit.to_dict(),
            "part_inputs": list(agg.part_inputs),
            "passthrough_inputs": list(agg.passthrough_inputs),
            "passthrough_parents": list(agg.passthrough_parents),
            "mask_inputs": list(agg.mask_inputs),
            "agg_input": agg.agg_input,
            "translations": translations,
            "decode": self.agg_result.decode.to_lists(),
            "input_labels": input_labels,
            "ot_c": self._elem(c),
            "x1m": _xor_all(self.masks),
        }
        body.update(_tables_to_body(self.agg_result))
        self._post("aggregate_publish", body)
        self.phase = "await_agg_choose"
        return "aggregate_setup"

    def _await_agg_choose(self) -> str | None:
        chooses = {r.body["session_id"]: r.body for r in self._fetch("ot_choose")}
        if "xm" not in chooses or self.agg_transfer_sent:
            return None
        pair = self.agg_result.wire_labels[self.pset.aggregate.agg_input]
        self._send_transfer("xm", self.agg_ot, chooses["xm"], pair)
        self.agg_transfer_sent = True
        self.phase = "await_agg_output"
        return "ot_transfer"

    def _await_agg_output(self) -> str | None:
        recs = self._fetch("aggregate_output")
        if not recs:
            return None
        body = recs[0].body
        label = bytes.fromhex(body["label"])
        y = decode_output(self.agg_result.decode, label)
        if y != int(body["y"]):
            raise VerdictMismatch("posted plaintext does not match the label")
        self.posted_y = y
        my_accept = int(self.f_value == self.params.y_claim)
        if int(body["accept"]) != my_accept:
            raise VerdictMismatch("aggregator view disagrees with the prover")
        self._post("final_verdict",
                   {"verdict": "accept" if my_accept else "reject"})
        self.done = True
        return "final"

    def build_audit(self) -> ProverAudit | None:
        """Collect every label the published run left inactive."""
        if self.posted_y is None or self.agg_result is None:
            return None
        inactive: list[str] = []

        def collect(res: GarblingResult, bits) -> None:
            values = evaluate_wires(res.garbled.circuit, bits)
            for wire, pair in enumerate(res.wire_labels):
                inactive.append(pair[1 - values[wire]].hex())

        for part, res, r_bit in zip(self.pset.parts, self.part_results, self.masks):
            local = tuple(self.witness[w] for w in part.parent_inputs) + (r_bit,)
            collect(res, local)
        agg = self.pset.aggregate
        x_m = self.posted_y ^ self.f_value
        part_bits = tuple(
            evaluate_plain(p.circuit,
                           tuple(self.witness[w] for w in p.parent_inputs) + (r,))
            for p, r in zip(self.pset.parts, self.masks))
        agg_bits = (part_bits
                    + tuple(self.witness[w] for w in agg.passthrough_parents)
                    + tuple(self.masks) + (x_m,))
        collect(self.agg_result, agg_bits)
        return ProverAudit(
            witness=self.witness,
            clause_texts=tuple(c.text for c in self.statement.clauses),
            f_value=self.f_value,
            inactive_labels=tuple(inactive),
        )


def _xor_all(bits) -> int:
    out = 0
    for b in bits:
        out ^= int(b)
    return out


class VerifierEngine(_Engine):
    role = "verifier"

    def __init__(self, params: SessionParams, index: int, repo: Repository):
        super().__init__(params, repo)
        self.index = index
        self.role = f"verifier-{index}"
        self.drbg = HashDrbg(params.verifier_seed(index),
                             context=f"{params.session_id}/verifier-{index}")
        self.r = self.drbg.randbit()
        self.salt = self.drbg.random_bytes(16)
        self.phase = "commit"
        self.ot_state = None

    def step(self) -> str | None:
        if self.done:
            return None
        try:
            return getattr(self, "_" + self.phase)()
        except ZkFabricError as exc:
            self._abort(type(exc).__name__)
            return "abort"

    def _commit(self) -> str:
        lam = int(self._session_init()["lambda_h"])
        self._post("mask_commit", {
            "part": self.index,
            "commitment": commit_bit(self.r, self.salt, lam),
        })
        self.phase = "await_partition"
        return "commit"

    def _my_partition_record(self) -> dict | None:
        for rec in self._fetch("garbled_partition"):
            if int(rec.body["part"]) == self.index:
                return rec.body
        return None

    def _await_partition(self) -> str | None:
        body = self._my_partition_record()
        labels = None
        for rec in self._fetch("prover_labels"):
            if int(rec.body["part"]) == self.index:
                labels = rec.body["labels"]
        if body is None or labels is None:
            return None
        group = group_by_name(self._session_init()["group"])
        c = int(body["ot_c"], 16)
        choose, self.ot_state = ot_receiver_choose(group, c, self.r, self.drbg)
        self._post("ot_choose", {
            "session_id": f"mask-{self.index}",
            "y0": choose.y0.to_bytes(group.element_bytes, "big").hex(),
            "y1": choose.y1.to_bytes(group.element_bytes, "big").hex(),
        })
        self.phase = "await_transfer"
        return "choose"

    def _await_transfer(self) -> str | None:
        transfer = None
        for rec in self._fetch("ot_transfer"):
            if rec.body["session_id"] == f"mask-{self.index}":
                transfer = rec.body
        if transfer is None:
            return None
        mask_label = ot_receiver_recover(self.ot_state, OTTransfer(
            (int(transfer["c0"][0], 16), bytes.fromhex(transfer["c0"][1])),
            (int(transfer["c1"][0], 16), bytes.fromhex(transfer["c1"][1])),
        ))
        body = self._my_partition_record()
        circuit = LayeredCircuit.from_dict(body["circuit"])
        lam = int(self._session_init()["lambda_h"])
        gc = _garbled_from_body(body, circuit, lam)
        labels_rec = None
        for rec in self._fetch("prover_labels"):
            if int(rec.body["part"]) == self.index:
                labels_rec = rec.body["labels"]
        inputs = {int(k): bytes.fromhex(v) for k, v in labels_rec.items()}
        inputs[int(body["mask_input"])] = mask_label
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
        self.ot_state = None

    def step(self) -> str | None:
        if self.done:
            return None
        try:
            return getattr(self, "_" + self.phase)()
        except ZkFabricError as exc:
            self._abort(type(exc).__name__)
            return "abort"

    def _publish_body(self) -> dict | None:
        recs = self._fetch("aggregate_publish")
        return recs[0].body if recs else None

    def _await_publish(self) -> str | None:
        body = self._publish_body()
        if body is None:
            return None
        group = group_by_name(self._session_init()["group"])
        choose, self.ot_state = ot_receiver_choose(
            group, int(body["ot_c"], 16), self.x_m, self.drbg)
        self._post("ot_choose", {
            "session_id": "xm",
            "y0": choose.y0.to_bytes(group.element_bytes, "big").hex(),
            "y1": choose.y1.to_bytes(group.element_bytes, "big").hex(),
        })
        self.phase = "await_transfer"
        return "choose"

    def _await_transfer(self) -> str | None:
        transfer = None
        for rec in self._fetch("ot_transfer"):
            if rec.body["session_id"] == "xm":
                transfer = rec.body
        if transfer is None:
            return None
        xm_label = ot_receiver_recover(self.ot_state, OTTransfer(
            (int(transfer["c0"][0], 16), bytes.fromhex(transfer["c0"][1])),
            (int(transfer["c1"][0], 16), bytes.fromhex(transfer["c1"][1])),
        ))
        body = self._publish_body()
        init = self._session_init()
        lam = int(init["lambda_h"])
        circuit = LayeredCircuit.from_dict(body["circuit"])
        gc = _garbled_from_body(body, circuit, lam)

        outputs = {int(r.body["part"]): bytes.fromhex(r.body["label"])
                   for r in self._fetch("partition_output")}
        inputs: dict[int, bytes] = {}
        for i, local in enumerate(body["part_inputs"], start=1):
            table = TranslationTable.from_lists(body["translations"][str(i)], lam)
            inputs[int(local)] = table.apply(outputs[i])
        for k, v in body["input_labels"].items():
            inputs[int(k)] = bytes.fromhex(v)
        inputs[int(body["agg_input"])] = xm_label
        out_label = evaluate_garbled(gc, inputs)
        y = decode_output(DecodeInfo.from_lists(body["decode"], lam), out_label)
        accept = self._decide(y, int(init["y_claim"]))
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
            verdicts = repo.fetch(session=sid, kind="final_verdict")
            if verdicts:
                verdict_rec = verdicts[0]
                break
        if verdict_rec is None and not progress:
            raise RuntimeError("session deadlocked without a verdict")

    return Transcript(
        session_id=sid,
        records=repo.fetch(session=sid),
        verdict=verdict_rec.body["verdict"],
        reason=verdict_rec.body.get("reason"),
        timings=timings,
        audit=prover.build_audit(),
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


def replay_board(records) -> list[ReplayReport]:
    """Re-validate everything an outside auditor can check from a board."""
    if isinstance(records, Repository):
        records = list(records)
    sessions: dict[str, list[RepositoryRecord]] = {}
    for rec in records:
        sessions.setdefault(rec.session, []).append(rec)
    return [_replay_session(sid, recs) for sid, recs in sessions.items()]


def _replay_session(sid: str, recs: list[RepositoryRecord]) -> ReplayReport:
    report = ReplayReport(session=sid, verdict=None, ok=True)
    by_kind: dict[str, list[RepositoryRecord]] = {}
    for rec in recs:
        by_kind.setdefault(rec.kind, []).append(rec)

    chain_ok = all(
        rec.digest == _digest_fields(rec.seq, rec.session, rec.author,
                                     rec.kind, rec.body)
        for rec in recs)
    _check(report, "record_digests", chain_ok)

    _check(report, "opens_with_init",
           bool(recs) and recs[0].kind == "session_init")
    verdicts = by_kind.get("final_verdict", [])
    _check(report, "closes_with_verdict",
           len(verdicts) == 1 and recs[-1].kind == "final_verdict")
    if not verdicts:
        return report
    verdict_body = verdicts[0].body
    report.verdict = verdict_body.get("verdict")
    if report.verdict == "abort":
        _check(report, "abort_reason", bool(verdict_body.get("reason")))

    init = by_kind.get("session_init", [None])[0]
    if init is None:
        return report
    lam = int(init.body["lambda_h"])
    group = group_by_name(init.body["group"])

    commits = {int(r.body["part"]): str(r.body["commitment"])
               for r in by_kind.get("mask_commit", [])}
    for rec in by_kind.get("mask_reveal", []):
        part = int(rec.body["part"])
        try:
            salt = bytes.fromhex(rec.body["salt"])
        except (TypeError, ValueError):
            _check(report, f"commit_opens_part_{part}", False,
                   f"mask_reveal.salt {rec.body['salt']!r} is not hex")
            continue
        opened = commit_bit(int(rec.body["r"]), salt, lam)
        _check(report, f"commit_opens_part_{part}",
               commits.get(part) == opened)

    ot_c: dict[str, int] = {}
    for rec in by_kind.get("garbled_partition", []):
        ot_c[f"mask-{int(rec.body['part'])}"] = int(rec.body["ot_c"], 16)
    for rec in by_kind.get("aggregate_publish", []):
        ot_c["xm"] = int(rec.body["ot_c"], 16)
    for rec in by_kind.get("ot_choose", []):
        ot_id = rec.body["session_id"]
        y0 = int(rec.body["y0"], 16)
        y1 = int(rec.body["y1"], 16)
        ok = (ot_id in ot_c
              and in_subgroup(group, y0) and in_subgroup(group, y1)
              and y0 * y1 % group.p == ot_c[ot_id])
        _check(report, f"ot_consistency_{ot_id}", ok)

    publishes = by_kind.get("aggregate_publish", [])
    if publishes:
        pub = publishes[0].body
        for rec in by_kind.get("partition_output", []):
            part = int(rec.body["part"])
            table = TranslationTable.from_lists(
                pub["translations"][str(part)], lam)
            label = bytes.fromhex(rec.body["label"])
            try:
                table.apply(label)
                ok = True
            except UnknownLabel:
                ok = False
            _check(report, f"partition_label_valid_{part}", ok)
        for rec in by_kind.get("aggregate_output", []):
            decode = DecodeInfo.from_lists(pub["decode"], lam)
            try:
                y = decode_output(decode, bytes.fromhex(rec.body["label"]))
                ok = y == int(rec.body["y"])
            except UnknownLabel:
                ok = False
            _check(report, "aggregate_decode", ok)
            if report.verdict in ("accept", "reject"):
                _check(report, "verdict_matches_aggregator",
                       (report.verdict == "accept") == bool(int(rec.body["accept"])))
    return report
