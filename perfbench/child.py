"""One pass of a workload in a fresh interpreter, started by run.py.

    python3 child.py <workload> <seed> <mode> [<spans path>]

mode is "setup" (time the set-up only), "pass" (one untraced pass) or
"traced" (one pass with trace wrappers installed).  Prints one JSON object
with the pass's measurements; times are at reference speed (see
speed.py).  Set-up is timed first, before anything else imports the
modules the library needs.
"""

import sys
import time

import speed


def setup(probe: "speed.Probe") -> tuple[object, float]:
    """Import the CLI and build its parser, as a user's first call does.
    Returns the module and the set-up seconds at reference speed."""
    speed.kernel()
    probe.edge()
    start = time.perf_counter()
    from shifted_tableaux import cli
    cli.build_parser()
    end = time.perf_counter()
    probe.edge()
    return cli, probe.scaled(start, end)


def run_queries(main, queries: list[dict]) -> tuple[list, list[tuple]]:
    """Call main(argv) for each query, stdout and stderr captured in memory.
    Returns the outcomes and each query's (start, end) clock readings."""
    import contextlib
    import io
    outcomes, intervals = [], []
    clock = time.perf_counter
    for query in queries:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, error = main(query["argv"]), None
        except Exception as exc:  # a raising query counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        intervals.append((start, clock()))
        outcomes.append((code, out.getvalue(), error))
    return outcomes, intervals


def failures(queries: list[dict], outcomes: list, reference: dict) -> list[str]:
    import gate
    problems = []
    for query, (code, stdout, error) in zip(queries, outcomes):
        problem = gate.check(query, code, stdout, error, reference)
        if problem is not None:
            problems.append(f"{' '.join(query['argv'][2:4])}: {problem}")
    return problems


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    cli, setup_s = setup(speed.Probe())
    import json
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    import resource
    import gate
    import workloads
    queries = workloads.build(workload, seed)
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    with speed.Probe() as probe:
        outcomes, intervals = run_queries(cli.main, queries)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        tracer.write(argv[3])
    latencies = [probe.scaled(start, end) for start, end in intervals]
    problems = failures(queries, outcomes, gate.load_reference())
    result.update(wall_s=sum(latencies), latencies_s=latencies,
                  raw_wall_s=intervals[-1][1] - intervals[0][0],
                  peak_rss_mb=peak_kb / 1024, attempted=len(queries),
                  failed=len(problems), problems=problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
