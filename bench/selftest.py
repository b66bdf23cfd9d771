"""Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload with ``--scale tiny`` in both trace modes and checks
that the result line has exactly the contract's keys and every metric
BENCHMARK.json declares, with its unit; that the reference checks reject
wrong outputs; and that without the program's source the harness exits
non-zero and prints no result.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_harness(root: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / BENCH_DIR.name / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(declared: dict) -> None:
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = run_harness(ROOT, workload, trace)
            assert rc == 0, f"{workload} trace {trace}: exit {rc}\n" + "\n".join(lines)
            doc = json.loads(lines[-1])
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
            assert doc["correct"] is True and doc["failed"] == 0, doc
            assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {set(got.items()) ^ set(want.items())}"
            for name, m in doc["metrics"].items():
                value = m["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
                if key == "end_to_end":
                    assert value > 0, (workload, name, value)
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                  f"{doc['attempted']} operations")


def check_references() -> None:
    """Each reference check accepts the program's output and rejects a
    corrupted copy of it."""
    check = workloads.build("monte_carlo", 3, "tiny").invocations[1].check
    lines = b"".join(
        f"{label}: 20/20 realizations: dominance OK, permutation OK, inversion OK\n".encode()
        for label in workloads.COUPLING_LABELS)
    assert check(0, lines) is None
    assert check(1, lines) is not None
    assert check(0, lines.split(b"\n", 1)[1]) is not None
    assert check(0, lines.replace(b"inversion OK", b"inversion 1 failures", 1)) is not None

    ref = workloads.EXACT["tiny"]
    oracle_doc = {
        "strategies": [{"strategy": s, "exact_value": v}
                       for s, v in zip(workloads.CATALOG_LABELS, ref["values"])],
        "dp_optimal": ref["optimum"], "search_optimal": ref["optimum"],
        "decision_histories": ref["dp_states"],
        "search_decision_histories": ref["search_nodes"],
    }
    check = workloads.check_oracle(ref)
    assert check(0, json.dumps(oracle_doc).encode()) is None
    bad = dict(oracle_doc, dp_optimal="1/1")
    assert check(0, json.dumps(bad).encode()) is not None
    bad = dict(oracle_doc, strategies=oracle_doc["strategies"][::-1])
    assert check(0, json.dumps(bad).encode()) is not None
    assert check(0, b"not json") is not None

    row = {"reps": 10, "mean": 1.0, "stderr": 0.1, "ci_lo": 0.8, "ci_hi": 1.2,
           "paired_diff_vs_greedy": -0.5, "paired_stderr": 0.1}
    compare_doc = {
        "seed": 3, "ensemble_hash": "x",
        "rows": [dict(row, strategy=s) for s in workloads.CATALOG_LABELS],
        "value_by_stage": [{"mean_value": 0.5}] * (5 * 3),
    }
    compare_doc["rows"][0].update(paired_diff_vs_greedy=0.0, paired_stderr=0.0)
    check = workloads.check_compare(10, 3, None)
    assert check(0, json.dumps(compare_doc).encode()) is None
    assert workloads.check_compare(10, 3, "y")(0, json.dumps(compare_doc).encode()) is not None
    for mutate in (
        lambda d: d["rows"][1].update(mean=float("nan")),
        lambda d: d["rows"][2].update(reps=9),
        lambda d: d["rows"][0].update(paired_diff_vs_greedy=1e-12),
        lambda d: d["rows"][3].update(paired_diff_vs_greedy=0.5),
        lambda d: d.update(seed=4),
    ):
        doc = json.loads(json.dumps(compare_doc))
        mutate(doc)
        assert check(0, json.dumps(doc).encode()) is not None, doc
    print("ok  reference checks reject corrupted outputs")


def check_without_source() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    harness must fail without printing a result."""
    bare = ROOT / ".bench_run" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        rc, lines = run_harness(bare, "monte_carlo", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert rc != 0, rc
    assert not any(line.startswith("{") for line in lines), lines
    print(f"ok  without src/ the harness exits {rc} and prints no result")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_references()
    check_without_source()
    check_metrics(declared)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
