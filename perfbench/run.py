"""cparm benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A closed loop with one client: each
pipeline run starts when the previous one has ended, and each runs in its
own child process, so the benchmark uses two processes and, with BLAS held
to one thread, two threads. Set-up (interpreter start, imports, input
generation) runs SETUP_REPEATS times in fresh processes; its median is
setup_s. Runs then repeat until S seconds have passed, at least one.

Every run's output is checked: its partitions, selected features, threshold
sweep and confusion counts must equal the values recorded in
perfbench/expected/ for the workload and seed (when that seed is recorded),
must agree across the runs of this invocation, and must satisfy the
invariants in check(). A run that raises, exits non-zero or fails the check
counts as failed; the timings of every run that finished are kept.

With --trace 0 the end-to-end metrics are medians over the runs. With
--trace 1 untraced and traced runs alternate; the per-layer metrics are
medians over the traced runs, and trace.overhead_s is the traced median
run_s minus the untraced one. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ENGINE_ORDER, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = BENCH / "_work"
SETUP_REPEATS = 3
# Budget for one invocation, which must end within 180 s.
BUDGET_S = 170.0

CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def work_dir(w: Workload) -> Path:
    return WORK_ROOT / w.name


def child(mode: str, w: Workload, seed: int, trace: bool, deadline: float):
    """Run child.py once. Returns (wall seconds, result dict or None, stderr)."""
    work = work_dir(w)
    for stale in ("result.json", "report.json"):
        (work / stale).unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), mode, w.name, str(seed), str(work),
           "1" if trace else "0"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past the {BUDGET_S:.0f} s budget") from None
    wall = time.perf_counter() - start
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return wall, None, proc.stderr
    return wall, json.loads(result_path.read_text()), proc.stderr


def checked_fields(report: dict) -> dict:
    """The report fields the check compares; timings and future keys stay out."""
    return {
        "partitions": report["partitions"],
        "selected_features": report["selected_features"],
        "threshold_sweep": report["threshold_sweep"],
        "confusion": {e: r["confusion"] for e, r in report["engines"].items()},
    }


def check(report: dict, w: Workload) -> list[str]:
    """Invariants any correct report for this workload satisfies."""
    problems = []
    if report["partitions"] != max(1, w.n_train // w.n_attributes):
        problems.append(f"partitions {report['partitions']}")
    selected = report["selected_features"]
    importances = [f["importance"] for f in selected]
    names = {f"f{i:02d}" for i in range(w.n_attributes)}
    if not 1 <= len(selected) <= w.num_features:
        problems.append(f"{len(selected)} selected features")
    if any(f["name"] not in names for f in selected):
        problems.append("selected an unknown feature")
    if importances != sorted(importances, reverse=True) or not all(0 < v <= 1 for v in importances):
        problems.append("importances not descending within (0, 1]")
    if [e["threshold"] for e in report["threshold_sweep"]] != list(w.thresholds):
        problems.append("threshold sweep does not match the configured thresholds")
    if list(report["engines"]) != [e for e in ENGINE_ORDER if e in w.engines]:
        problems.append(f"engines {list(report['engines'])}")
    for engine, result in report["engines"].items():
        cm, m = result["confusion"], result["metrics"]
        if cm["tp"] + cm["tn"] + cm["fp"] + cm["fn"] != w.n_test:
            problems.append(f"{engine}: confusion counts do not sum to {w.n_test} test rows")
        elif m["accuracy"] != (cm["tp"] + cm["tn"]) / w.n_test:
            problems.append(f"{engine}: accuracy disagrees with the confusion counts")
    return problems


def quality(report: dict, signal: list[str]) -> dict[str, float]:
    found = {f["name"] for f in report["selected_features"]}
    out = {"planted_recall": len(found & set(signal)) / len(signal)}
    for engine, result in report["engines"].items():
        out[f"accuracy.{engine}"] = result["metrics"]["accuracy"]
        out[f"far.{engine}"] = result["metrics"]["far"]
    return out


def load_expected(w: Workload, seed: int) -> dict | None:
    path = BENCH / "expected" / f"{w.name}.json"
    return json.loads(path.read_text()).get(str(seed)) if path.exists() else None


def setup_inputs(w: Workload, seed: int, deadline: float, repeats: int) -> tuple[list[float], dict]:
    """Set up ``repeats`` times from scratch; the last set-up's files stay."""
    walls = []
    for _ in range(repeats):
        shutil.rmtree(work_dir(w), ignore_errors=True)
        work_dir(w).mkdir(parents=True)
        wall, result, stderr = child("setup", w, seed, False, deadline)
        if result is None:
            raise BenchError(f"set-up failed:\n{stderr}")
        walls.append(wall)
    return walls, result


def measure(w: Workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    walls, versions = setup_inputs(w, seed, deadline, SETUP_REPEATS)
    signal = json.loads((work_dir(w) / "data.manifest.json").read_text())["signal_features"]
    expected = load_expected(w, seed)
    print(f"set-up: {' '.join(f'{s:.3f}' for s in walls)} s; "
          f"{'recorded values for this seed' if expected else 'no recorded values for this seed'}")

    runs = {False: [], True: []}  # traced? -> results of the runs that finished
    attempted = failed = 0
    first = None
    qualities = None
    end = time.monotonic() + seconds
    longest = 0.0
    while attempted < (2 if trace else 1) or time.monotonic() < end:
        if time.monotonic() + 1.5 * longest > deadline:
            break  # one more run would likely overrun the budget
        traced = trace and attempted % 2 == 1
        attempted += 1
        wall, result, stderr = child("run", w, seed, traced, deadline)
        longest = max(longest, wall)
        label = "traced" if traced else "untraced"
        if result is None:
            failed += 1
            last_line = (stderr.strip().splitlines() or ["no output"])[-1]
            print(f"run {attempted} ({label}): FAILED: {last_line}")
            continue
        runs[traced].append(result)
        report = json.loads((work_dir(w) / "report.json").read_text())
        fields = checked_fields(report)
        problems = check(report, w)
        if expected is not None and fields != expected:
            problems.append("output differs from the recorded values")
        if first is not None and fields != first:
            problems.append("output differs from the first run")
        first = first or fields
        qualities = qualities or quality(report, signal)
        status = f"FAILED: {'; '.join(problems)}" if problems else "ok"
        failed += bool(problems)
        print(f"run {attempted} ({label}): run_s={result['run_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} wall={wall:.3f} {status}")
    if not runs[False] or (trace and not runs[True]):
        raise BenchError("no run finished, so there is nothing to report")

    def median(key, rs):
        return statistics.median(r[key] for r in rs)

    metrics = {
        "run_s": median("run_s", runs[False]),
        "peak_rss_mb": median("peak_rss_mb", runs[False]),
        "setup_s": statistics.median(walls),
        "ok_share": (attempted - failed) / attempted,
        **qualities,
    }
    if trace:
        for name in runs[True][0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in runs[True])
        metrics["trace.overhead_s"] = median("run_s", runs[True]) - metrics["run_s"]
        print("spans of the last traced run (name, parent, calls, total_s, self_s):")
        for row in runs[True][-1]["spans"]:
            print(f"  {row['span']:<34} {str(row['parent']):<30} {row['calls']:>7} "
                  f"{row['total_s']:>9.4f} {row['self_s']:>9.4f}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "versions": versions}


def metadata(versions: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    src_lines = sum(
        p.read_text(encoding="utf-8").count("\n") for p in (ROOT / "src" / "cparm").rglob("*.py")
    )
    return {"git_sha": sha, "src_cparm_lines": src_lines, **versions, "nproc": os.cpu_count()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "cparm" / "__init__.py").is_file():
        print(f"error: no cparm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)

    print("meta " + json.dumps(metadata(out["versions"])))
    computed = out["metrics"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in computed.items():
        print(f"  {name:<28} {value} {units.get(name, 'share')}")
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"error: this workload does not produce {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
