"""Record the reference answers in reference.json.

    PYTHONPATH=src python3 perfbench/record.py

Runs every query of every workload for the default seed, plus the tiny
passes of the self-test, and stores each query's exit code, verdicts and
counts and the SHA-256 of its JSON report.  A query whose result fails
the independent checks is not recorded: the script stops instead.
"""

import json
import subprocess
import sys

import child
import gate
import workloads


def main() -> int:
    from shifted_tableaux import cli
    answers = {}
    for tiny in (True, False):
        for workload in workloads.WORKLOADS:
            queries = workloads.build(workload, workloads.DEFAULT_SEED, tiny)
            outcomes, _ = child.run_queries(cli.main, queries)
            for query, (code, stdout, error) in zip(queries, outcomes):
                if error is not None:
                    raise SystemExit(f"{query['argv']}: raised {error}")
                doc = json.loads(stdout)
                gate.independent(query, doc)
                answers[gate.key(query)] = gate.answer(query, code, doc)
            print(f"{workload}{' (tiny)' if tiny else ''}: "
                  f"{len(queries)} queries", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    with open(gate.REFERENCE, "w") as fh:
        json.dump({"commit": commit or "unknown",
                   "seed": workloads.DEFAULT_SEED, "answers": answers},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
