"""staged-select benchmark: the sampled and the exact path, run through the CLI.

    python3 bench/run.py --workload monte_carlo --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` in fresh processes, with ``STAGED_SELECT_THREADS=1`` and BLAS
threads pinned to 1.  The monte_carlo workload writes ``--seed`` into its
config files; the exact workload has no randomness.

``--trace 0`` measures the end-to-end metrics: set-up probes first (fresh
interpreter, import ``staged_select.cli``, parse the configs; median wall),
then whole workload passes until ``--seconds`` is used, reporting medians.
``--trace 1`` measures the per-layer metrics: one untraced pass at 1 thread,
one at 2 threads (outputs must be byte-identical), then traced passes
(``traced_cli.py``) until ``--seconds`` is used; the first traced pass
writes its spans to a file under ``.bench_run/spans/``.

Every output is checked against pinned references (``workloads.py``).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed check makes the exit code 1.  Without
``src/staged_select`` the harness prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODULES = ("core_model", "selection_engine", "alignment", "oracle", "experiments", "cli")
SETUP_PROBES = {0: 9, 1: 3}   # fresh-interpreter set-up probes per run, by --trace
RUN_LIMIT_S = 170.0           # every child is killed past this point of a run

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, end-to-end metric @ workload it should move).  A layer that
# does not run in a workload reports 0 there.  Counts marked exact must
# repeat across traced passes.
PER_LAYER = (
    ("core_model.sample_chunk.us_per_realization", "us", "items_per_s@monte_carlo"),
    ("core_model.sample_chunk.calls", "count", "-"),
    ("core_model.enumerate_paths.us_per_atom", "us", "items_per_s@certify_exact"),
    ("core_model.enumerate_paths.kb_per_atom", "KiB", "peak_rss_mb@certify_exact"),
    ("core_model.enumerate_paths.atoms", "count", "-"),
    ("core_model.PathEnsemble.from_increment_rows.us_per_call", "us", "items_per_s@monte_carlo"),
    ("core_model.PathEnsemble.from_increment_rows.calls", "count", "-"),
    ("selection_engine.StagewiseRun.advance.us_per_call", "us",
     "items_per_s@certify_exact,monte_carlo"),
    ("selection_engine.StagewiseRun.advance.calls", "count", "-"),
    ("selection_engine.run_selection.us_per_call", "us", "items_per_s@certify_exact"),
    ("selection_engine.run_selection.calls", "count", "-"),
    ("experiments.final_values_for_chunk.us_per_realization", "us", "items_per_s@monte_carlo"),
    ("experiments.final_values_for_chunk.realizations", "count", "-"),
    ("experiments.compare_strategies.self_s", "s", "items_per_s@monte_carlo"),
    ("alignment.build_alignment.us_per_call", "us", "items_per_s@monte_carlo,certify_exact"),
    ("alignment.build_alignment.calls", "count", "-"),
    ("alignment.check_block_permutation.us_per_call", "us",
     "items_per_s@monte_carlo,certify_exact"),
    ("alignment.check_block_permutation.calls", "count", "-"),
    ("alignment.invert_alignment.us_per_call", "us", "items_per_s@monte_carlo,certify_exact"),
    ("alignment.invert_alignment.calls", "count", "-"),
    ("alignment.check_pairwise_dominance.us_per_call", "us", "items_per_s@certify_exact"),
    ("alignment.check_pairwise_dominance.calls", "count", "-"),
    ("alignment.verify_exhaustive.self_s", "s", "items_per_s@certify_exact"),
    ("alignment.verify_mc.self_s", "s", "items_per_s@monte_carlo"),
    ("oracle.exact_expected_values.us_per_atom_strategy", "us", "items_per_s@certify_exact"),
    ("oracle.exact_expected_values.atom_strategies", "count", "-"),
    ("oracle.dp_optimal_value.states_per_s", "1/s", "items_per_s@certify_exact"),
    ("oracle.dp_optimal_value.states", "count", "-"),
    ("oracle.exhaustive_strategy_search.nodes_per_s", "1/s", "items_per_s@certify_exact"),
    ("oracle.exhaustive_strategy_search.nodes", "count", "-"),
    ("oracle.dp_merge_ratio", "ratio", "-"),
    ("cli.main.self_s", "s", "wall_s@all"),
    ("cli.import_s", "s", "setup_s@all"),
    *((f"layer.{m}.self_s", "s", "wall_s@all") for m in MODULES),
    ("process.minor_faults", "count", "cpu_s@monte_carlo"),
    ("process.sys_s", "s", "cpu_s@monte_carlo"),
    ("process.threads2.minor_faults", "count", "-"),
    ("process.threads2.sys_s", "s", "-"),
    ("process.threads2_speedup", "ratio", "-"),
    ("trace.overhead_ratio", "ratio", "-"),
    ("trace.uncovered_s", "s", "-"),
    ("repo.src_lines", "count", "-"),
)
EXACT_COUNTS = {n for n, u, _ in PER_LAYER if u == "count" and not n.startswith(("process.", "repo."))}


class HarnessError(Exception):
    """The harness itself cannot produce a result."""


@dataclass(frozen=True)
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    sys_s: float
    maxrss_mb: float
    minor_faults: int
    out: bytes


def _kill(proc: subprocess.Popen) -> None:
    try:
        proc.kill()
    except ProcessLookupError:
        pass


class Bench:
    def __init__(self, workload: workloads.Workload, workdir: Path, seconds: float):
        self.wl = workload
        self.workdir = workdir
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "STAGED_SELECT_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self.env = env
        self.configs = []
        for k, inv in enumerate(workload.invocations):
            path = workdir / f"config{k}.json"
            path.write_text(json.dumps(inv.config, indent=1), encoding="utf-8")
            self.configs.append(path)

    # -- processes ---------------------------------------------------------

    def run_child(self, argv: list[str], tag: str, threads: int = 1) -> ChildRun:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("run time limit reached")
        env = self.env if threads == 1 else {**self.env, "STAGED_SELECT_THREADS": str(threads)}
        out_path = self.workdir / f"{tag}.out"
        with open(out_path, "wb") as out, open(self.workdir / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(remaining, _kill, (proc,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                _kill(proc)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=ru.ru_utime + ru.ru_stime,
            sys_s=ru.ru_stime,
            maxrss_mb=ru.ru_maxrss * 1024 / 1e6,
            minor_faults=ru.ru_minflt,
            out=out_path.read_bytes(),
        )

    def record(self, tag: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{tag}: {reason}")

    def probe(self, k: int) -> tuple[float, float]:
        """(process wall, in-process import time) of one set-up probe."""
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *map(str, self.configs)]
        r = self.run_child(argv, f"probe{k}")
        try:
            import_s = float(json.loads(r.out)["import_s"]) if r.rc == 0 else None
        except (ValueError, KeyError):
            import_s = None
        self.record(f"probe{k}", None if import_s is not None
                    else f"exit code {r.rc}" if r.rc else "no timing line")
        return r.wall_s, import_s or 0.0

    def run_pass(self, tag: str, threads: int = 1, reference: list[bytes] | None = None,
                 trace_files: tuple[Path | None, Path] | None = None) -> list[ChildRun]:
        """Run every invocation of the workload once and check its output."""
        runs = []
        for k, inv in enumerate(self.wl.invocations):
            cli_args = [inv.subcommand, "--config", str(self.configs[k]), *inv.extra_args]
            if trace_files is None:
                argv = [sys.executable, "-m", "staged_select.cli", *cli_args]
            else:
                spans, summary_stem = trace_files
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                        "--summary", f"{summary_stem}.{k}.json",
                        "--run-id", f"{self.wl.name}.{tag}.{k}"]
                if spans is not None:
                    argv += ["--spans", str(spans)]
                argv += ["--", *cli_args]
            r = self.run_child(argv, f"{tag}.{k}", threads)
            reason = inv.check(r.rc, r.out)
            if reason is None and reference is not None and r.out != reference[k]:
                reason = "output bytes differ from the reference pass"
            self.record(f"{tag}.{k} {inv.subcommand}", reason)
            runs.append(r)
        return runs

    def in_time(self, start: float, last: list[ChildRun]) -> bool:
        """Whether another pass as long as `last` fits in --seconds."""
        elapsed = time.perf_counter() - start
        return not self.failures and elapsed + sum(r.wall_s for r in last) <= self.seconds

    # -- end-to-end --------------------------------------------------------

    def end_to_end(self) -> dict:
        setup = statistics.median(self.probe(k)[0] for k in range(SETUP_PROBES[0]))
        passes = []
        start = time.perf_counter()
        while True:
            runs = self.run_pass(f"pass{len(passes)}",
                                 reference=[r.out for r in passes[0]] if passes else None)
            passes.append(runs)
            if not self.in_time(start, runs):
                break
        n_inv = len(self.wl.invocations)
        walls = [sum(r.wall_s for r in p) for p in passes]
        series = {
            "setup_s": [setup],
            "wall_s": walls,
            "items_per_s": [self.wl.items / max(w - n_inv * setup, 1e-9) for w in walls],
            "cpu_s": [sum(r.cpu_s for r in p) for p in passes],
            "peak_rss_mb": [max(r.maxrss_mb for r in p) for p in passes],
        }
        for name, values in series.items():
            print(f"  {name:<14} median {statistics.median(values):.6g} "
                  f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")
        return {name: statistics.median(series[name]) for name, _ in END_TO_END}

    # -- per layer ---------------------------------------------------------

    def per_layer(self, spans: Path) -> dict:
        import_s = statistics.median(self.probe(k)[1] for k in range(SETUP_PROBES[1]))
        start = time.perf_counter()
        base = self.run_pass("threads1")
        reference = [r.out for r in base]
        two = self.run_pass("threads2", threads=2, reference=reference)
        passes = []
        while True:
            stem = self.workdir / f"summary{len(passes)}"
            runs = self.run_pass(f"traced{len(passes)}", reference=reference,
                                 trace_files=(None if passes else spans, stem))
            passes.append(layer_metrics(load_summaries(stem, len(runs)), runs, base))
            if not self.in_time(start, runs):
                break
        unstable = sorted(n for n in EXACT_COUNTS if len({p[n] for p in passes}) > 1)
        self.record("traced counts", f"{unstable} differ across traced passes"
                    if unstable else None)
        metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        base_wall = sum(r.wall_s for r in base)
        metrics.update({
            "cli.import_s": import_s,
            "process.minor_faults": sum(r.minor_faults for r in base),
            "process.sys_s": sum(r.sys_s for r in base),
            "process.threads2.minor_faults": sum(r.minor_faults for r in two),
            "process.threads2.sys_s": sum(r.sys_s for r in two),
            "process.threads2_speedup": base_wall / sum(r.wall_s for r in two),
            "repo.src_lines": src_lines(),
        })
        print(f"  traced passes: {len(passes)}; spans: {spans.relative_to(ROOT)}")
        return metrics


def load_summaries(stem: Path, count: int) -> dict:
    """Sum the per-invocation trace summaries of one pass."""
    agg = {"layers": defaultdict(lambda: defaultdict(int)), "edges": defaultdict(int),
           "counters": defaultdict(lambda: defaultdict(int)), "root_ns": 0}
    for k in range(count):
        path = Path(f"{stem}.{k}.json")
        if not path.exists():
            raise HarnessError(f"traced invocation {k} wrote no summary")
        doc = json.loads(path.read_text(encoding="utf-8"))
        for name, entry in doc["layers"].items():
            for key, v in entry.items():
                agg["layers"][name][key] += v
        for edge, n in doc["edges"].items():
            agg["edges"][edge] += n
        for name, entry in doc["counters"].items():
            for key, v in entry.items():
                agg["counters"][name][key] += v
        agg["root_ns"] += doc["root_ns"]
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, traced: list[ChildRun], base: list[ChildRun]) -> dict:
    layers, counters, edges = agg["layers"], agg["counters"], agg["edges"]

    def calls(name):
        return layers[name]["calls"]

    def incl_s(name):
        return layers[name]["incl_ns"] / 1e9

    def self_s(name):
        return layers[name]["self_ns"] / 1e9

    def us_per(name, count):
        return _ratio(incl_s(name) * 1e6, count)

    atoms = counters["core_model.enumerate_paths"]["atoms"]
    realizations = counters["core_model.sample_chunk"]["realizations"]
    chunk_rows = counters["experiments.final_values_for_chunk"]["realizations"]
    atom_strategies = edges["oracle.exact_expected_values>selection_engine.run_selection"]
    states = counters["oracle.dp_optimal_value"]["states"]
    nodes = counters["oracle.exhaustive_strategy_search"]["nodes"]
    traced_wall = sum(r.wall_s for r in traced)
    m = {
        "core_model.sample_chunk.us_per_realization": us_per("core_model.sample_chunk", realizations),
        "core_model.sample_chunk.calls": calls("core_model.sample_chunk"),
        "core_model.enumerate_paths.us_per_atom": us_per("core_model.enumerate_paths", atoms),
        "core_model.enumerate_paths.kb_per_atom": _ratio(
            counters["core_model.enumerate_paths"]["rss_growth_bytes"] / 1024, atoms),
        "core_model.enumerate_paths.atoms": atoms,
        "experiments.final_values_for_chunk.us_per_realization":
            us_per("experiments.final_values_for_chunk", chunk_rows),
        "experiments.final_values_for_chunk.realizations": chunk_rows,
        "experiments.compare_strategies.self_s": self_s("experiments.compare_strategies"),
        "alignment.verify_exhaustive.self_s": self_s("alignment.verify_exhaustive"),
        "alignment.verify_mc.self_s": self_s("alignment.verify_mc"),
        "oracle.exact_expected_values.us_per_atom_strategy":
            us_per("oracle.exact_expected_values", atom_strategies),
        "oracle.exact_expected_values.atom_strategies": atom_strategies,
        "oracle.dp_optimal_value.states_per_s": _ratio(states, incl_s("oracle.dp_optimal_value")),
        "oracle.dp_optimal_value.states": states,
        "oracle.exhaustive_strategy_search.nodes_per_s":
            _ratio(nodes, incl_s("oracle.exhaustive_strategy_search")),
        "oracle.exhaustive_strategy_search.nodes": nodes,
        "oracle.dp_merge_ratio": _ratio(nodes, states),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": _ratio(traced_wall, sum(r.wall_s for r in base)),
        "trace.uncovered_s": traced_wall - agg["root_ns"] / 1e9,
    }
    for name in ("core_model.PathEnsemble.from_increment_rows",
                 "selection_engine.StagewiseRun.advance", "selection_engine.run_selection",
                 "alignment.build_alignment", "alignment.check_block_permutation",
                 "alignment.invert_alignment", "alignment.check_pairwise_dominance"):
        m[f"{name}.us_per_call"] = us_per(name, calls(name))
        m[f"{name}.calls"] = calls(name)
    for module in MODULES:
        m[f"layer.{module}.self_s"] = sum(
            entry["self_ns"] for name, entry in layers.items()
            if name.startswith(f"{module}.")) / 1e9
    return m


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n")
               for p in sorted((ROOT / "src" / "staged_select").glob("*.py")))


def declared_units(key: str) -> dict | None:
    """Metric name -> unit as BENCHMARK.json declares them, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return {m["name"]: m["unit"] for m in json.loads(path.read_text(encoding="utf-8"))[key]}


def main() -> int:
    parser = argparse.ArgumentParser(description="staged-select benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the harness self-test only")
    args = parser.parse_args()

    if not (ROOT / "src" / "staged_select" / "cli.py").is_file():
        print(f"error: no staged-select source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.scale)
    run_dir = ROOT / ".bench_run"
    workdir = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    units = dict(END_TO_END) if args.trace == 0 else {n: u for n, u, _ in PER_LAYER}
    print(f"{args.workload}: {wl.items} items ({wl.item}), seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    try:
        bench = Bench(wl, workdir, args.seconds)
        if args.trace == 0:
            values = bench.end_to_end()
        else:
            spans = run_dir / "spans" / f"{args.workload}-seed{args.seed}.csv"
            spans.parent.mkdir(exist_ok=True)
            spans.unlink(missing_ok=True)
            values = bench.per_layer(spans)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_units("end_to_end" if args.trace == 0 else "per_layer")
    if declared is not None and declared != units:
        print("error: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared.items()) ^ set(units.items()))}", file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    failed = len(bench.failures)
    for reason in bench.failures:
        print(f"  FAILED {reason}")
    print(f"  error_rate = {failed / max(bench.attempted, 1):.6g} "
          f"({failed}/{bench.attempted} operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
