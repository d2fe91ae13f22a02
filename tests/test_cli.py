import json

import pytest

from helpers import CAR_STATEMENT
from zkfabric.cli import main
from zkfabric.repository import decode_record


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_car(capsys):
    code, out, _ = run_cli(capsys, "parse", "--statement", CAR_STATEMENT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "clause 0: The car only starts"
    assert lines[1].startswith("  digest: ")
    assert len(lines[1].split(": ")[1]) == 64
    assert "operators: if and" in lines
    assert "expression: (~(v1 & v2) | v0)" in lines


def test_parse_single_clause(capsys):
    code, out, _ = run_cli(capsys, "parse", "--statement", "only me")
    assert code == 0
    assert "operators: (none)" in out
    assert "expression: v0" in out


def test_parse_lambda_128(capsys):
    code, out, _ = run_cli(capsys, "parse", "--statement", "A [and] B",
                           "--lambda-h", "128")
    assert code == 0
    digest = out.splitlines()[1].split(": ")[1]
    assert len(digest) == 32


def test_parse_statement_file(capsys, tmp_path):
    path = tmp_path / "statement.txt"
    path.write_text(CAR_STATEMENT + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "parse", "--statement-file", str(path))
    assert code == 0
    assert "clause 0: The car only starts" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "parse", "--statement", "A [nand] B")
    assert code == 2
    assert "error: UnknownOperator" in err


def test_minimize_car(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--statement", CAR_STATEMENT)
    assert code == 0
    assert out.splitlines() == [
        "sop: --0 + -0- + 1--",
        "gates before: 3",
        "gates after: 4",
    ]


def test_garble_text_output(capsys):
    code, out, _ = run_cli(capsys, "garble", "--statement", CAR_STATEMENT,
                           "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "inputs: 3"
    assert lines[1] == "gates: 4"
    assert "tables: 4 x 4 rows" in lines
    assert "decode entries: 2" in lines


def test_garble_records_output(capsys):
    code, out, _ = run_cli(capsys, "garble", "--statement", "A [and] B",
                           "--seed", "5", "--format", "records")
    assert code == 0
    blob = json.loads(out)
    assert blob["n_inputs"] == 2
    assert len(blob["tables"]) == 1
    assert len(blob["tables"][0]) == 4
    assert len(blob["decode"]) == 2


def test_garble_deterministic(capsys):
    first = run_cli(capsys, "garble", "--statement", "A [and] B",
                    "--seed", "7", "--format", "records")
    second = run_cli(capsys, "garble", "--statement", "A [and] B",
                     "--seed", "7", "--format", "records")
    other = run_cli(capsys, "garble", "--statement", "A [and] B",
                    "--seed", "8", "--format", "records")
    assert first[1] == second[1]
    assert first[1] != other[1]


def simulate_args(witness, claim, seed="7", group="toy23"):
    return ["simulate", "--statement", CAR_STATEMENT, "--witness", witness,
            "--claim", str(claim), "--seed", seed, "--group", group]


def test_simulate_accept(capsys):
    code, out, err = run_cli(capsys, *simulate_args("111", 1))
    assert code == 0
    assert "verdict: accept" in out
    assert "records: 21" in out
    assert "total:" in err


def test_simulate_reject(capsys):
    code, out, _ = run_cli(capsys, *simulate_args("011", 1))
    assert code == 1
    assert "verdict: reject" in out


def test_simulate_stdout_deterministic(capsys):
    first = run_cli(capsys, *simulate_args("111", 1))
    second = run_cli(capsys, *simulate_args("111", 1))
    assert first[1] == second[1]


def test_simulate_records_format(capsys):
    code, out, _ = run_cli(capsys, *simulate_args("111", 1),
                           "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("verdict:")
    record_lines = [ln for ln in lines if ln.startswith("{")]
    assert len(record_lines) == 21
    for ln in record_lines:
        decode_record(ln.encode("ascii"))


def test_simulate_usage_errors(capsys):
    code, _, err = run_cli(capsys, *simulate_args("11", 1))
    assert code == 2
    assert "ArityMismatch" in err
    with pytest.raises(SystemExit):
        main(["simulate", "--statement", CAR_STATEMENT, "--witness", "111"])
    with pytest.raises(SystemExit):
        main(["notacommand"])
    with pytest.raises(SystemExit):
        main(["parse", "--statement", "A", "--statement-file", "b.txt"])
    capsys.readouterr()


def test_simulate_writes_board(capsys, tmp_path):
    board = tmp_path / "board.jsonl"
    code, _, _ = run_cli(capsys, *simulate_args("111", 1),
                         "--board", str(board))
    assert code == 0
    assert board.exists()
    assert board.read_bytes().count(b"\n") == 21


def test_board_via_environment(capsys, tmp_path, monkeypatch):
    board = tmp_path / "board.jsonl"
    monkeypatch.setenv("ZKFABRIC_BOARD", str(board))
    code, _, _ = run_cli(capsys, *simulate_args("111", 1))
    assert code == 0
    code, out, _ = run_cli(capsys, "inspect")
    assert code == 0
    assert len(out.splitlines()) == 21


def test_inspect_text_format(capsys, tmp_path):
    board = tmp_path / "board.jsonl"
    run_cli(capsys, *simulate_args("111", 1), "--board", str(board))
    code, out, _ = run_cli(capsys, "inspect", str(board))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert "session_init" in lines[0]
    assert "final_verdict" in lines[-1]


def test_inspect_records_format(capsys, tmp_path):
    board = tmp_path / "board.jsonl"
    run_cli(capsys, *simulate_args("111", 1), "--board", str(board))
    code, out, _ = run_cli(capsys, "inspect", str(board),
                           "--format", "records")
    assert code == 0
    assert out.encode("ascii") == board.read_bytes()


def test_inspect_without_board_path(capsys, monkeypatch):
    monkeypatch.delenv("ZKFABRIC_BOARD", raising=False)
    code, _, err = run_cli(capsys, "inspect")
    assert code == 2
    assert "no board path" in err


def test_inspect_missing_file_is_empty_board(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "inspect", str(tmp_path / "nope.jsonl"))
    assert code == 0
    assert out == ""


def test_verify_transcript_accept(capsys, tmp_path):
    board = tmp_path / "board.jsonl"
    run_cli(capsys, *simulate_args("111", 1), "--board", str(board))
    code, out, _ = run_cli(capsys, "verify-transcript", str(board))
    assert code == 0
    assert "verdict=accept checks=ok" in out


def test_verify_transcript_verbose(capsys, tmp_path):
    board = tmp_path / "board.jsonl"
    run_cli(capsys, *simulate_args("111", 1), "--board", str(board))
    code, out, _ = run_cli(capsys, "verify-transcript", str(board),
                           "--verbose")
    assert code == 0
    assert "pass record_digests" in out
    assert "pass aggregate_decode" in out


def test_verify_transcript_reject_board(capsys, tmp_path):
    board = tmp_path / "board.jsonl"
    run_cli(capsys, *simulate_args("011", 1), "--board", str(board))
    code, out, _ = run_cli(capsys, "verify-transcript", str(board))
    assert code == 1
    assert "verdict=reject checks=ok" in out


def test_two_sessions_on_one_board(capsys, tmp_path):
    board = tmp_path / "board.jsonl"
    run_cli(capsys, *simulate_args("111", 1), "--board", str(board),
            "--session-id", "first")
    run_cli(capsys, *simulate_args("111", 1, seed="8"), "--board", str(board),
            "--session-id", "second")
    code, out, _ = run_cli(capsys, "verify-transcript", str(board))
    assert code == 0
    assert "session first:" in out
    assert "session second:" in out


def test_second_session_init_for_same_session_refused(capsys, tmp_path):
    """A rerun under the same session id (same seed) must not reuse the
    first run's verdict: it is refused before anything is written."""
    board = tmp_path / "board.jsonl"
    args = ["simulate", "--statement", "a [and] b [or] c", "--witness", "111",
            "--group", "toy23", "--seed", "7", "--board", str(board)]
    code, out, _ = run_cli(capsys, *args, "--claim", "1")
    assert code == 0
    assert "verdict: accept" in out
    raw = board.read_bytes()
    code, out, err = run_cli(capsys, *args, "--claim", "0")
    assert code == 2
    assert "verdict:" not in out
    assert "error: MalformedRecord" in err
    assert board.read_bytes() == raw
    code, out, _ = run_cli(capsys, "verify-transcript", str(board))
    assert code == 0
    assert "verdict=accept checks=ok" in out
