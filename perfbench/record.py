"""Record the report fields the benchmark checks, for a range of seeds.

    python3 perfbench/record.py WORKLOAD FIRST_SEED LAST_SEED

Writes perfbench/expected/WORKLOAD.json, keyed by seed. Record only from a
commit whose output is trusted: a later run of the benchmark fails every
run whose checked fields differ from these.
"""

from __future__ import annotations

import json
import sys
import time

from run import BENCH, check, checked_fields, child, setup_inputs, work_dir
from workloads import WORKLOADS


def dumps_by_seed(recorded: dict) -> str:
    """JSON with one line per seed, in seed order."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}"
             for k, v in sorted(recorded.items(), key=lambda kv: int(kv[0]))]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: list[str]) -> int:
    name, first, last = argv
    w = WORKLOADS[name]
    path = BENCH / "expected" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for seed in range(int(first), int(last) + 1):
        deadline = time.monotonic() + 600
        setup_inputs(w, seed, deadline, repeats=1)
        _, result, stderr = child("run", w, seed, False, deadline)
        if result is None:
            print(f"seed {seed}: run failed\n{stderr}", file=sys.stderr)
            return 1
        report = json.loads((work_dir(w) / "report.json").read_text())
        problems = check(report, w)
        if problems:
            print(f"seed {seed}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        recorded[str(seed)] = checked_fields(report)
        path.write_text(dumps_by_seed(recorded))
        print(f"seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
