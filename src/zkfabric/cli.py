"""Command-line driver.

Exit codes: 0 for success (an accepted session), 1 for a rejected or
aborted session or a failed transcript check, 2 for usage errors.
Timing figures go to stderr so stdout stays byte-deterministic for a
fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .circuit import compile_expression, netlist
from .errors import ZkFabricError
from .garble import garble_circuit
from .protocol import replay_board, run_simulation
from .repository import Repository, encode_record
from .syntax import build_expression, expr_to_str, extract, syn_gen


def _statement_text(args) -> str:
    if args.statement_file:
        with open(args.statement_file, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return args.statement


def _board_path(args) -> str:
    path = args.board or os.environ.get("ZKFABRIC_BOARD")
    if not path:
        raise SystemExit(2)
    return path


def _cmd_parse(args) -> int:
    statement = extract(_statement_text(args), args.lambda_h)
    for i, clause in enumerate(statement.clauses):
        print(f"clause {i}: {clause.text}")
        print(f"  digest: {clause.digest.hex()}")
    ops = " ".join(op.value for op in statement.operators)
    print(f"operators: {ops if ops else '(none)'}")
    print(f"expression: {expr_to_str(build_expression(statement))}")
    return 0


def _cmd_minimize(args) -> int:
    reduced, statement = syn_gen(_statement_text(args), args.lambda_h)
    before = compile_expression(build_expression(statement))
    after = compile_expression(reduced)
    print(f"sop: {reduced.canonical()}")
    print(f"gates before: {len(before.gates)}")
    print(f"gates after: {len(after.gates)}")
    return 0


def _cmd_garble(args) -> int:
    reduced, _ = syn_gen(_statement_text(args), args.lambda_h)
    circuit = compile_expression(reduced)
    garbled, encode, decode = garble_circuit(circuit, args.seed, args.lambda_h)
    blob = {
        "n_inputs": circuit.n_inputs,
        "netlist": netlist(circuit),
        "tables": [[row.hex() for row in g.rows] for g in garbled.tables],
        "const_labels": [lab.hex() for lab in garbled.const_labels],
        "decode": decode.to_lists(),
    }
    if args.format == "records":
        print(json.dumps(blob, sort_keys=True, separators=(",", ":")))
    else:
        print(f"inputs: {circuit.n_inputs}")
        print(f"gates: {len(circuit.gates)}")
        for line in blob["netlist"]:
            print(f"  {line}")
        print(f"tables: {len(blob['tables'])} x 4 rows")
        print(f"decode entries: {len(blob['decode'])}")
    return 0


def _cmd_simulate(args) -> int:
    statement = _statement_text(args)
    board = args.board or os.environ.get("ZKFABRIC_BOARD")
    started = time.perf_counter()
    transcript = run_simulation(
        statement, args.witness, args.claim,
        n_verifiers=args.verifiers, seed=args.seed, group=args.group,
        lambda_h=args.lambda_h, board_path=board, session_id=args.session_id)
    wall = time.perf_counter() - started
    if args.format == "records":
        for rec in transcript.records:
            print(encode_record(rec).decode("ascii"))
    print(f"session: {transcript.session_id}")
    print(f"records: {len(transcript.records)}")
    verdict = transcript.verdict
    if transcript.reason:
        verdict += f" ({transcript.reason})"
    print(f"verdict: {verdict}")
    print(f"total: {wall * 1000:.1f} ms", file=sys.stderr)
    for key in sorted(transcript.timings):
        print(f"  {key}: {transcript.timings[key] * 1000:.1f} ms", file=sys.stderr)
    return 0 if transcript.verdict == "accept" else 1


def _cmd_inspect(args) -> int:
    repo = Repository(_board_path(args))
    for rec in repo:
        if args.format == "records":
            print(encode_record(rec).decode("ascii"))
        else:
            body = json.dumps(rec.body, sort_keys=True, separators=(",", ":"))
            if len(body) > 64:
                body = body[:61] + "..."
            print(f"[{rec.seq:3d}] {rec.session} {rec.author:<12} "
                  f"{rec.kind:<18} {body}")
    return 0


def _cmd_verify_transcript(args) -> int:
    repo = Repository(_board_path(args))
    all_ok = True
    for report in replay_board(repo):
        status = "ok" if report.ok else "FAILED"
        print(f"session {report.session}: verdict={report.verdict} checks={status}")
        for name, passed, detail in report.checks:
            if not passed or args.verbose:
                suffix = f" {detail}" if detail else ""
                print(f"  {'pass' if passed else 'FAIL'} {name}{suffix}")
        if not report.ok or report.verdict != "accept":
            all_ok = False
    return 0 if all_ok else 1


def _add_statement_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--statement", help="bracketed statement text")
    group.add_argument("--statement-file", help="read the statement from a file")
    parser.add_argument("--lambda-h", type=int, default=256, dest="lambda_h",
                        choices=(128, 256), help="digest truncation in bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zkfabric",
        description="compile, garble, and jointly verify composite statements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="split a statement into clauses and operators")
    _add_statement_args(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("minimize", help="minimize the statement's boolean function")
    _add_statement_args(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("garble", help="garble the compiled circuit")
    _add_statement_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_garble)

    p = sub.add_parser("simulate", help="run a full verification session")
    _add_statement_args(p)
    p.add_argument("--witness", required=True, help="bit string, one bit per clause")
    p.add_argument("--claim", type=int, required=True, choices=(0, 1),
                   help="claimed value of the statement")
    p.add_argument("--verifiers", type=int, default=None,
                   help="expected verifier count (must match the partition count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--group", default="modp2048", choices=("toy23", "modp2048"))
    p.add_argument("--board", default=None,
                   help="board file to append to (default: env ZKFABRIC_BOARD or memory)")
    p.add_argument("--session-id", default=None)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("inspect", help="list the records on a board file")
    p.add_argument("board", nargs="?", default=None,
                   help="board file (default: env ZKFABRIC_BOARD)")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("verify-transcript", help="replay and check a board file")
    p.add_argument("board", nargs="?", default=None,
                   help="board file (default: env ZKFABRIC_BOARD)")
    p.add_argument("--verbose", action="store_true",
                   help="print passing checks too")
    p.set_defaults(func=_cmd_verify_transcript)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZkFabricError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if exc.code == 2:
            print("error: no board path given (flag or ZKFABRIC_BOARD)",
                  file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
