"""Per-layer tracing from the benchmark's own code.

A Tracer wraps the program's layer calls at the names their callers look
up (zkfabric.protocol imports syn_gen, compile_expression, partition,
garble_full, evaluate_garbled and the ot_* functions by name, so those are
wrapped in zkfabric.protocol; minimize is looked up in zkfabric.syntax;
Repository.publish and Repository.fetch on the class).  Each call records
a span (name, session, start, end and one count) in flat arrays that stay
in memory until the run ends.  Three counters sit at
single call sites: hashlib.sha256 as zkfabric.hashing calls it,
three-argument pow calls made from zkfabric.ot, and in_subgroup as
zkfabric.ot calls it.  Nothing is installed in an untraced run.
"""

from __future__ import annotations

import builtins
import hashlib
import statistics
import time
from array import array

import zkfabric.hashing
import zkfabric.ot
import zkfabric.protocol
import zkfabric.syntax
from zkfabric.repository import Repository, encode_record

# Transcript.timings keys, with every verifier-<i> summed under verifier.
PHASES = ("prover.bootstrap", "prover.publish_partitions", "prover.ot_transfer",
          "prover.aggregate_setup", "prover.final", "verifier.commit",
          "verifier.choose", "verifier.evaluate", "aggregator.choose",
          "aggregator.aggregate")

# name -> (unit, better); every per-layer metric a traced run emits
METRICS = {
    "syntax.syn_gen_ms": ("ms", "lower"),
    "syntax.minimize_ms": ("ms", "lower"),
    "syntax.implicants": ("count", "lower"),
    "circuit.compile_ms": ("ms", "lower"),
    "circuit.partition_ms": ("ms", "lower"),
    "circuit.gates": ("count", "lower"),
    "circuit.parts": ("count", "lower"),
    "garble.garble_us_per_gate": ("us", "lower"),
    "garble.evaluate_us_per_gate": ("us", "lower"),
    "garble.gates_garbled": ("count", "lower"),
    "hashing.sha256_calls": ("count", "lower"),
    "hashing.sha256_calls_per_audited_session": ("count", "lower"),
    "ot.transfers": ("count", "lower"),
    "ot.ms_per_transfer": ("ms", "lower"),
    "ot.modexp_per_transfer": ("count", "lower"),
    "ot.subgroup_checks_per_transfer": ("count", "lower"),
    "repository.publish_us_per_record": ("us", "lower"),
    "repository.fetch_calls": ("count", "lower"),
    "repository.fetch_us_per_call": ("us", "lower"),
    "repository.records_scanned_per_fetch": ("count", "lower"),
    "repository.fetch_share": ("%", "lower"),
    "repository.bytes_per_record": ("bytes", "lower"),
    "repository.load_us_per_record": ("us", "lower"),
    **{f"protocol.{phase}_ms": ("ms", "lower") for phase in PHASES},
    "protocol.unattributed_ms": ("ms", "lower"),
    "protocol.unattributed_share": ("%", "lower"),
    "protocol.replay_ms_per_session": ("ms", "lower"),
    "trace.session_ms_p50": ("ms", "lower"),
}

_OT_CALLS = ("ot_sender_init", "ot_receiver_choose", "ot_sender_transfer",
             "ot_receiver_recover")
SPAN_NAMES = ("syn_gen", "minimize", "compile_expression",
              "partition", "garble_full", "evaluate_garbled", *_OT_CALLS,
              "publish", "fetch")
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


def _records_past_since(args, kwargs, result):
    """Records a fetch has to look at: every one on the board past `since`."""
    since = kwargs.get("since", args[3] if len(args) > 3 else 0)
    return len(args[0]) - since


# span name -> the count recorded with it
_MEASURE = {
    "syn_gen": lambda args, kwargs, res: len(res[0].implicants),
    "compile_expression": lambda args, kwargs, res: len(res.gates),
    "partition": lambda args, kwargs, res: len(res.parts),
    "garble_full": lambda args, kwargs, res: len(args[0].gates),
    "evaluate_garbled": lambda args, kwargs, res: len(args[0].circuit.gates),
    "fetch": _records_past_since,
}


class _CountingHashlib:
    """Stands in for the hashlib module inside zkfabric.hashing."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def sha256(self, *args, **kwargs):
        self._tracer.sha256_calls += 1
        return hashlib.sha256(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(hashlib, name)


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.session = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count = array("l")
        self._session_no = -1
        self.sha256_calls = 0
        self.modexps = 0
        self.subgroup_checks = 0
        self._saved: list[tuple[object, str, object]] = []
        self.sessions: list[dict] = []
        self.audits: list[dict] = []
        self._audit_sha = 0

    # installing and removing the wrappers

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        protocol = zkfabric.protocol
        for attr in ("syn_gen", "compile_expression", "partition",
                     "garble_full", "evaluate_garbled", *_OT_CALLS):
            self._replace(protocol, attr, self._wrap(attr, getattr(protocol, attr)))
        self._replace(zkfabric.syntax, "minimize",
                      self._wrap("minimize", zkfabric.syntax.minimize))
        self._replace(Repository, "publish", self._wrap("publish", Repository.publish))
        self._replace(Repository, "fetch", self._wrap("fetch", Repository.fetch))
        self._replace(zkfabric.hashing, "hashlib", _CountingHashlib(self))
        self._replace(zkfabric.ot, "pow", self._counting_pow)
        in_subgroup = zkfabric.ot.in_subgroup

        def counted_in_subgroup(params, x):
            self.subgroup_checks += 1
            return in_subgroup(params, x)

        self._replace(zkfabric.ot, "in_subgroup", counted_in_subgroup)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def _counting_pow(self, base, exp, mod=None):
        if mod is None:
            return builtins.pow(base, exp)
        self.modexps += 1
        return builtins.pow(base, exp, mod)

    def _wrap(self, name: str, fn):
        name_id = _ID[name]
        measure = _MEASURE.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
            if measure is not None:
                self.count[idx] = measure(args, kwargs, result)
            return result

        return traced

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.session.append(self._session_no)
        self.count.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    # per-session and per-audit bookkeeping

    def begin_session(self) -> None:
        self._session_no = len(self.sessions)
        self._counts0 = (self.sha256_calls, self.modexps, self.subgroup_checks)

    def end_session(self, wall_s: float, transcript) -> None:
        self._session_no = -1
        if transcript is None:  # the session raised: keep its place, no figures
            self.sessions.append(None)
            return
        sha, modexp, subgroup = self._counts0
        record_bytes = [len(encode_record(r)) for r in transcript.records]
        self.sessions.append({
            "wall_s": wall_s,
            "timings": dict(transcript.timings),
            "sha256": self.sha256_calls - sha,
            "modexp": self.modexps - modexp,
            "subgroup": self.subgroup_checks - subgroup,
            "bytes_per_record": sum(record_bytes) / len(record_bytes),
        })

    def begin_audit(self) -> None:  # around each part of a round's audit
        self._audit_sha0 = self.sha256_calls

    def end_audit(self) -> None:
        self._audit_sha += self.sha256_calls - self._audit_sha0

    def close_audit(self, audit) -> None:  # once per round, after its parts
        sessions = len(audit.reports)
        self.audits.append({
            "load_us_per_record": audit.load_s * 1e6 / audit.records,
            "replay_ms_per_session": audit.replay_s * 1e3 / sessions,
            "sha256_per_session": self._audit_sha / sessions,
        })
        self._audit_sha = 0

    # the per-layer figures, computed from the spans once the run is over

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Medians over the sessions, and over the audits for the audit
        figures, as the end-to-end figures are taken."""
        n = len(self.sessions)
        time_in = [[0.0] * len(SPAN_NAMES) for _ in range(n)]
        calls = [[0] * len(SPAN_NAMES) for _ in range(n)]
        counted = [[0] * len(SPAN_NAMES) for _ in range(n)]
        for i in range(len(self.start)):
            s = self.session[i]
            if s < 0:
                continue
            k = self.name[i]
            time_in[s][k] += self.end[i] - self.start[i]
            calls[s][k] += 1
            counted[s][k] += self.count[i]

        values: dict[str, list[float]] = {name: [] for name in METRICS}
        for s, info in enumerate(self.sessions):
            if info is None:
                continue
            for name, value in self._session_figures(
                    info, time_in[s], calls[s], counted[s]).items():
                values[name].append(value)
        for name, key in (("repository.load_us_per_record", "load_us_per_record"),
                          ("protocol.replay_ms_per_session", "replay_ms_per_session"),
                          ("hashing.sha256_calls_per_audited_session",
                           "sha256_per_session")):
            values[name] = [audit[key] for audit in self.audits]
        return {name: (statistics.median(values[name]), unit)
                for name, (unit, _) in METRICS.items()}

    @staticmethod
    def _session_figures(info: dict, t: list, c: list, a: list) -> dict[str, float]:
        transfers = c[_ID["ot_sender_transfer"]]
        phases = dict.fromkeys(PHASES, 0.0)
        for key, seconds in info["timings"].items():
            role, _, phase = key.partition(".")
            if role.startswith("verifier-"):
                role = "verifier"
            if f"{role}.{phase}" in phases:
                phases[f"{role}.{phase}"] += seconds
        wall = info["wall_s"]
        unattributed = wall - sum(info["timings"].values())
        fetch = _ID["fetch"]
        return {
            "syntax.syn_gen_ms": t[_ID["syn_gen"]] * 1e3,
            "syntax.minimize_ms": t[_ID["minimize"]] * 1e3,
            "syntax.implicants": a[_ID["syn_gen"]],
            "circuit.compile_ms": t[_ID["compile_expression"]] * 1e3,
            "circuit.partition_ms": t[_ID["partition"]] * 1e3,
            "circuit.gates": a[_ID["compile_expression"]],
            "circuit.parts": a[_ID["partition"]],
            "garble.garble_us_per_gate":
                t[_ID["garble_full"]] * 1e6 / a[_ID["garble_full"]],
            "garble.evaluate_us_per_gate":
                t[_ID["evaluate_garbled"]] * 1e6 / a[_ID["evaluate_garbled"]],
            "garble.gates_garbled": a[_ID["garble_full"]],
            "hashing.sha256_calls": info["sha256"],
            "ot.transfers": transfers,
            "ot.ms_per_transfer":
                sum(t[_ID[name]] for name in _OT_CALLS) * 1e3 / transfers,
            "ot.modexp_per_transfer": info["modexp"] / transfers,
            "ot.subgroup_checks_per_transfer": info["subgroup"] / transfers,
            "repository.publish_us_per_record":
                t[_ID["publish"]] * 1e6 / c[_ID["publish"]],
            "repository.fetch_calls": c[fetch],
            "repository.fetch_us_per_call": t[fetch] * 1e6 / c[fetch],
            "repository.records_scanned_per_fetch": a[fetch] / c[fetch],
            "repository.fetch_share": 100 * t[fetch] / wall,
            "repository.bytes_per_record": info["bytes_per_record"],
            **{f"protocol.{p}_ms": phases[p] * 1e3 for p in PHASES},
            "protocol.unattributed_ms": unattributed * 1e3,
            "protocol.unattributed_share": 100 * unattributed / wall,
            "trace.session_ms_p50": wall * 1e3,
        }


_MISSING = object()
