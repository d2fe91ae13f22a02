"""Run every workload, each several times with its own seed, one process
per run, and print each metric's median, quartiles and spread.

    python3 bench/suite.py                      # every workload once
    python3 bench/suite.py --runs 10 --trace 0  # the run-to-run spread

Run i uses seed i, for i from 1 to --runs.  --seconds defaults to
run_seconds in BENCHMARK.json, the run length the bounds were set from.

The spread is the distance between the first and third quartile of a
metric's values (statistics.quantiles(values, n=4)) as a share of their
median.  Each run's JSON result, and the summary, are written to
bench/.scratch/suite-<trace>.json.  The exit code is 1 when any run failed
an operation or did not finish, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("car_modp2048", "mixed_toy23", "board_10k")
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload} seed {seed}: no output, exit {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}", flush=True)
    return result


def summarize(results: list[dict]) -> dict[str, dict]:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else float("nan")}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    with open(BENCHMARK_JSON) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                ok = False
            if result is not None:
                results.append(result)
        if not results:
            continue
        summary = summarize(results)
        report[workload] = {"runs": results, "summary": summary}
        print(f"{workload}: {len(results)} runs, attempted "
              f"{sum(r['attempted'] for r in results)}, failed "
              f"{sum(r['failed'] for r in results)}")
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
        for name, s in summary.items():
            print(f"  {name:<44} {s['median']:12.4f} {s['q1']:12.4f} "
                  f"{s['q3']:12.4f} {s['spread']:7.3f}  {s['unit']}")
    os.makedirs(os.path.join(HERE, ".scratch"), exist_ok=True)
    with open(os.path.join(HERE, ".scratch", f"suite-{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
