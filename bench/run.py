"""Benchmark of whole zkfabric verification sessions, one workload per run.

    python3 bench/run.py --workload car_modp2048 --seed 1 --seconds 30 --trace 0

Workloads: car_modp2048, mixed_toy23, board_10k (see bench/README.md).
A run draws the workload's jobs from the seed and sets it up, then runs
whole rounds (every job once, and an audit of the boards the round
wrote) until --seconds have passed, and at least 2 rounds.  Every
session's verdict is checked against the benchmark's own oracle and every
audit against the board properties in workloads.audit_problems.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps
the program's layer calls and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every operation
passed its checks, 1 when one failed, 2 when the program cannot be found.
"""

import time

_START = time.perf_counter()  # set-up is timed from the script's first line

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SCRATCH = os.path.join(HERE, ".scratch")
WORKLOAD_NAMES = ("car_modp2048", "mixed_toy23", "board_10k")
MIN_ROUNDS = 2
MAX_PROBLEMS_SHOWN = 10


def import_program() -> None:
    """Import zkfabric from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import zkfabric
    except ImportError as exc:
        print(f"bench: cannot import zkfabric from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(zkfabric.__file__).startswith(SRC + os.sep):
        print(f"bench: zkfabric came from {zkfabric.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def measure(workload, seconds: float, tracer) -> dict:
    """Run whole rounds until the time is up; return the raw figures."""
    from zkfabric import run_session
    from zkfabric.repository import encode_record

    import oracle
    from workloads import Audit, audit_problems, session_problems

    jobs = workload.jobs
    session_s: list[list[float]] = [[] for _ in jobs]
    board_bytes: list[int] = [0] * len(jobs)
    # audit_s[k]: the seconds part k of the audit took, one value per round
    audit_s: list[list[float]] = []
    problems: list[str] = []
    clause_texts = {text for job in jobs
                    for text in oracle.split_statement(job.statement)[0]}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    rounds = 0

    def audit_part(step, audit: Audit, part_times: list[float]) -> bool:
        if tracer:
            tracer.begin_audit()
        try:
            elapsed = step(audit)
        except Exception:
            problems.append(f"audit of round {rounds}: {traceback.format_exc()}")
            return False
        if tracer:
            tracer.end_audit()
        if elapsed is not None:
            part_times.append(elapsed)
        return True

    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        workload.start_round()
        verdicts = workload.expected_sessions()
        audit = Audit()
        part_times: list[float] = []
        audit_ok = True
        for i, job in enumerate(jobs):
            repo = workload.board()
            attempted += 1
            if tracer:
                tracer.begin_session()
            t0 = time.perf_counter()
            try:
                transcript = run_session(job.params, job.statement, job.witness, repo)
            except Exception:
                transcript = None
                failed += 1
                problems.append(f"{job.params.session_id}: {traceback.format_exc()}")
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end_session(elapsed, transcript)
            if transcript is not None:
                session_s[i].append(elapsed)
                verdicts[transcript.session_id] = transcript.verdict
                board_bytes[i] = sum(len(encode_record(r)) + 1
                                     for r in transcript.records)
                found = session_problems(job, transcript)
                if found:
                    failed += 1
                    problems.extend(found)
            if audit_ok:
                audit_ok = audit_part(workload.audit_session, audit, part_times)

        attempted += 1  # the round's audit, whole or in parts, is one operation
        if audit_ok:
            audit_ok = audit_part(workload.audit_round, audit, part_times)
        if not audit_ok:
            failed += 1
            continue
        if tracer:
            tracer.close_audit(audit)
        if not audit_s:
            audit_s = [[] for _ in part_times]
        for times, elapsed in zip(audit_s, part_times):
            times.append(elapsed)
        found = audit_problems(audit, verdicts, clause_texts)
        if found:
            failed += 1
            problems.extend(found)
    return {"session_s": session_s, "audit_s": audit_s, "board_bytes": board_bytes,
            "attempted": attempted, "failed": failed, "problems": problems,
            "rounds": rounds}


def end_to_end(raw: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    sessions = [t for times in raw["session_s"] for t in times]
    return {
        "setup_s": (setup_s, "s"),
        "session_ms_p50": (statistics.median(sessions) * 1e3, "ms"),
        "session_ms_p90": (statistics.quantiles(sessions, n=10, method="inclusive")[8]
                           * 1e3, "ms"),
        "sessions_per_s": (len(sessions) / sum(sessions), "1/s"),
        # each part's median over the rounds, summed over a round's parts
        "audit_s": (sum(statistics.median(times) for times in raw["audit_s"]), "s"),
        "board_bytes_per_session": (statistics.mean(b for b in raw["board_bytes"] if b),
                                    "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    os.makedirs(SCRATCH, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SCRATCH)
    tracer = None
    try:
        workload.setup()
        setup_s = time.perf_counter() - _START
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        raw = measure(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        workload.close()

    if any(raw["session_s"]) and raw["audit_s"]:
        metrics = tracer.metrics() if tracer else end_to_end(raw, setup_s)
    else:
        metrics = {}
    for line in raw["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(raw['session_s'])} jobs, {raw['rounds']} rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.4f} {unit}")
    print(f"  attempted {raw['attempted']}  failed {raw['failed']}")
    correct = raw["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
