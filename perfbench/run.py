"""Benchmark of the shifted-tableaux CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One client drives the CLI in a closed
loop, by calling shifted_tableaux.cli.main(argv) in process, one query
after another.  A run is a sequence of passes; each pass is a fresh
interpreter (so every lru_cache starts cold, as for a CLI user) with a
pinned hash seed, SHIFTED_TABLEAUX_JOBS unset and bytecode already
compiled.  Queries inside one pass share the process, as in a library
session.

--trace 0 runs set-up-only interpreters and then passes until --seconds
is used up, and reports the end-to-end metrics as medians over them.
Times are scaled to a reference machine speed measured during each pass
(see speed.py), because the speed of a shared machine drifts.
--trace 1 runs one untraced and one traced pass and reports the
per-layer metrics of the traced one; its spans are written under
.perfbench/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

import workloads  # noqa: E402  (beside this file)

SETUP_SAMPLES = 9
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def child_env() -> dict[str, str]:
    """A fixed environment: nothing is inherited but PATH."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.pathsep.join([SRC, BENCH]),
            "LC_ALL": "C.UTF-8"}


def run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} did not end in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics: set-up-only interpreters, then passes."""
    setups = [run_child([workload, str(seed), "setup"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(run_child([workload, str(seed), "pass"], deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    latencies_ms = [s * 1e3 for p in passes for s in p["latencies_s"]]
    metrics = {
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "query_p50_ms": (statistics.median(latencies_ms), "ms"),
        "query_p90_ms": (statistics.quantiles(
            latencies_ms, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    raw = statistics.median(p["raw_wall_s"] for p in passes)
    notes = [f"passes {len(passes)}, query samples {len(latencies_ms)}, "
             f"set-up samples {len(setups) + len(passes)}; "
             f"unscaled wall-clock median {raw:.3f} s"]
    return {"metrics": metrics, "passes": passes, "notes": notes}


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    """Per-layer metrics from one traced pass beside one untraced pass."""
    os.makedirs(OUT, exist_ok=True)
    plain = run_child([workload, str(seed), "pass"], deadline)
    spans = os.path.join(OUT, f"{workload}.spans")  # the last traced run's
    traced = run_child([workload, str(seed), "traced", spans], deadline)
    metrics = {name: tuple(value) for name, value in traced["per_layer"].items()}
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    notes = [f"spans written to {os.path.relpath(spans, ROOT)}.bin/.json"]
    return {"metrics": metrics, "passes": [plain, traced], "notes": notes}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    result = (measure_traced(workload, seed, deadline) if traced
              else measure(workload, seed, seconds, deadline))
    attempted = sum(p["attempted"] for p in result["passes"])
    failed = sum(p["failed"] for p in result["passes"])
    problems = [x for p in result["passes"] for x in p["problems"]]
    for line in result["notes"] + problems[:20]:
        print(f"# {workload}: {line}")
    print(f"# {workload}: error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} queries failed)")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload:12s} {name:32s} {value:>16.6f} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shifted_tableaux", "cli.py")):
        print(f"error: no shifted_tableaux sources under {SRC}", file=sys.stderr)
        return 2
    # compile before the first timed interpreter, so set-up excludes it
    for tree in (SRC, BENCH):
        if not compileall.compile_dir(tree, quiet=1):
            print(f"error: cannot compile {tree}", file=sys.stderr)
            return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
