"""Run the staged-select CLI with span tracing around each module's public
functions.

    python3 bench/traced_cli.py --summary SUMMARY.json [--spans SPANS.csv] \
        --run-id ID -- <cli arguments>

The wrappers live here, not in the package: every module binding through
which a caller can reach a traced function is replaced, so a name imported
with ``from .core_model import enumerate_paths`` is traced as well as the
module attribute.  Spans (run id, span id, parent span id, name, start and
end on the monotonic clock in ns) are kept in memory and, with ``--spans``,
appended to the span file when the CLI returns.  The summary holds per-function call
counts, inclusive and self time, parent->child call counts and the work
counters read from arguments and results.  Output bytes and the exit code
are the CLI's own.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _count_rows(args, kwargs, result):
    return {"realizations": int(result.shape[0])}


def _count_atoms(args, kwargs, result):
    return {"atoms": len(result)}


def _count_states(args, kwargs, result):
    return {"states": len(result[1].entries)}


def _count_nodes(args, kwargs, result):
    return {"nodes": int(result.decision_histories)}


# (module, attribute path, counter, measure RSS growth around the call)
TRACED = (
    ("core_model", "sample_chunk", _count_rows, False),
    ("core_model", "enumerate_paths", _count_atoms, True),
    ("core_model", "PathEnsemble.from_increment_rows", None, False),
    ("selection_engine", "StagewiseRun.advance", None, False),
    ("selection_engine", "run_selection", None, False),
    ("alignment", "build_alignment", None, False),
    ("alignment", "check_pairwise_dominance", None, False),
    ("alignment", "check_block_permutation", None, False),
    ("alignment", "invert_alignment", None, False),
    ("alignment", "verify_exhaustive", None, False),
    ("alignment", "verify_mc", None, False),
    ("oracle", "exact_expected_values", None, False),
    ("oracle", "dp_optimal_value", _count_states, False),
    ("oracle", "exhaustive_strategy_search", _count_nodes, False),
    ("experiments", "compare_strategies", None, False),
    ("experiments", "final_values_for_chunk", _count_rows, False),
    ("cli", "main", None, False),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def wrap(self, fn, name: str, counter, rss: bool):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            rss0 = _rss_bytes() if rss else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if rss:
                counters[name]["rss_growth_bytes"] += _rss_bytes() - rss0
            if counter is not None:
                try:
                    for key, n in counter(args, kwargs, result).items():
                        counters[name][key] += n
                except (TypeError, AttributeError, IndexError):
                    pass  # the counter no longer fits the API: leave it at 0
            return result

        return traced

    def install(self) -> None:
        package_modules = [m for n, m in sys.modules.items()
                           if n == "staged_select" or n.startswith("staged_select.")]
        for module_name, attr_path, counter, rss in TRACED:
            module = importlib.import_module(f"staged_select.{module_name}")
            name = f"{module_name}.{attr_path}"
            owner_path, _, attr = attr_path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(owner, attr, type(raw)(self.wrap(raw.__func__, name, counter, rss)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, counter, rss))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, counter, rss)
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        name_of = {sid: name for sid, _, name, _, _ in self.spans}
        layers: dict[str, dict] = {}
        child_ns: dict[int, int] = defaultdict(int)
        edges: dict[str, int] = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            if parent in name_of:
                child_ns[parent] += end - start
                edges[f"{name_of[parent]}>{name}"] += 1
        root_ns = 0
        for sid, parent, name, start, end in self.spans:
            entry = layers.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["incl_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[sid]
            if parent == 0:
                root_ns += end - start
        return {
            "layers": layers,
            "edges": dict(edges),
            "counters": {k: dict(v) for k, v in self.counters.items()},
            "root_ns": root_ns,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="span CSV to append to")
    parser.add_argument("--summary", required=True, help="summary JSON to write")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import staged_select.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        if opts.spans is not None:
            new_file = not os.path.exists(opts.spans)
            with open(opts.spans, "a", encoding="utf-8") as fh:
                if new_file:
                    fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
                fh.writelines(f"{opts.run_id},{sid},{parent},{name},{start},{end}\n"
                              for sid, parent, name, start, end in tracer.spans)
        with open(opts.summary, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
