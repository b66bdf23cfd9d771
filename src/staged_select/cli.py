"""Command-line entry point.

Subcommands: validate, simulate, verify, oracle, lemma, compare, drift.
Configuration comes from a JSON document; command-line flags override
config values.  Exit codes are stable across subcommands:

* 0 success / verified
* 1 verification failure (a theorem check found a violation — a bug)
* 2 invalid configuration
* 3 an enumeration, search, chunk, replication or trace cap was exceeded
* 4 an oracle's independence hypothesis was violated

All outputs are reproducible byte for byte given the same config and seeds,
at any thread count.  The worker count comes from --threads, overridden by
the STAGED_SELECT_THREADS environment variable when set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import alignment, experiments, oracle
from .core_model import (
    DriftModel,
    ENUMERATION_CAP,
    _check_keys,
    model_from_config,
    model_to_config,
    sample_ensemble,
    schedule_from_config,
    schedule_to_config,
)
from .errors import (
    CapExceeded,
    ConfigInvalid,
    DimensionMismatch,
    IndependenceViolated,
    InvalidDimensions,
    InvalidReps,
    ScheduleInvalid,
    StagedSelectError,
    TraceTooLarge,
)
from .selection_engine import (
    TRACE_CSV_HEADER,
    full_catalog,
    run_selection,
    strategy_from_config,
    trace_to_csv_rows,
)


#: cap on the values (reps x N x (T+1)) of `simulate`'s traces, which it
#: holds as Python rows: peak RSS measured at ~300 B per value for CSV and
#: ~1 KiB for JSON (N=4, T from 5e4 to 2e5), ~1 GiB at the cap
TRACE_VALUE_CAP = 2 ** 20


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigInvalid(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ConfigInvalid("config root must be an object")
    return obj


def _parse_strategies(obj, path: str = "config.strategies"):
    if not isinstance(obj, list) or not obj:
        raise ConfigInvalid(f"{path}: expected a nonempty list")
    out = []
    for i, entry in enumerate(obj):
        if isinstance(entry, str):
            entry = {"name": entry}
        out.append(strategy_from_config(entry, path=f"{path}[{i}]"))
    return out


def _positive_int(obj: dict, key: str, path: str = "config", minimum: int = 0) -> int:
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ConfigInvalid(f"{path}.{key}: expected an integer >= {minimum}")
    return v


def _setting(override: int | None, cfg: dict, key: str, minimum: int = 0,
             default: int | None = None) -> int:
    """An integer setting: the command-line override when given, else the
    config value (checked by `_positive_int`), else `default`; without a
    default the key is required."""
    if override is not None:
        if override < minimum:
            raise ConfigInvalid(f"--{key}: expected an integer >= {minimum}")
        return override
    if key in cfg:
        return _positive_int(cfg, key, minimum=minimum)
    if default is None:
        raise ConfigInvalid(f"config.{key}: missing required key")
    return default


def _flag(cfg: dict, key: str) -> bool:
    v = cfg.get(key, False)
    if not isinstance(v, bool):
        raise ConfigInvalid(f"config.{key}: expected true or false")
    return v


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {out}: {exc.strerror or exc}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_text(doc) -> str:
    def default(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        raise TypeError(f"not JSON-serializable: {type(v).__name__}")

    return json.dumps(doc, indent=2, sort_keys=True, default=default) + "\n"


def _threads(args) -> int:
    env = os.environ.get("STAGED_SELECT_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigInvalid("STAGED_SELECT_THREADS must be an integer")
    if args.threads is not None:
        return max(1, args.threads)
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"model", "schedule"}, {"schedule"}, path="config")
    schedule = schedule_from_config(cfg["schedule"])
    doc = {"schedule": schedule_to_config(schedule), "ok": True}
    if "model" in cfg:
        doc["model"] = model_to_config(model_from_config(cfg["model"]))
    _write_text(_json_text(doc), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"model", "schedule", "strategy", "seed", "reps"},
                {"model", "schedule", "strategy", "seed"}, path="config")
    model = model_from_config(cfg["model"])
    schedule = schedule_from_config(cfg["schedule"])
    strategy = strategy_from_config(cfg["strategy"])
    seed = _setting(args.seed, cfg, "seed")
    reps = _setting(args.reps, cfg, "reps", minimum=1, default=1)
    values = reps * schedule.N * (schedule.T + 1)
    if values > TRACE_VALUE_CAP:
        raise TraceTooLarge(values, TRACE_VALUE_CAP)

    rows = []
    summaries = []
    for r in range(reps):
        x = sample_ensemble(model, schedule.N, schedule.T, seed + r)
        trace = run_selection(x, schedule, strategy)
        trace_rows = trace_to_csv_rows(trace, x, schedule)
        if reps == 1:
            rows.extend(trace_rows)
        else:
            rows.extend((r, *tr) for tr in trace_rows)
        summaries.append({
            "rep": r,
            "seed": seed + r,
            "final_index": trace.final_index,
            "final_value": float(trace.final_value),
            "survivors_per_stage": [list(rec.survivors) for rec in trace.stages],
        })
    header = TRACE_CSV_HEADER if reps == 1 else ("rep", *TRACE_CSV_HEADER)
    summary = {
        "model": model_to_config(model),
        "schedule": schedule_to_config(schedule),
        "strategy": strategy.describe(),
        "runs": summaries,
    }
    if args.format == "json":
        doc = dict(summary)
        doc["trace_header"] = list(header)
        doc["trace_rows"] = [list(row) for row in rows]
        _write_text(_json_text(doc), args.out)
    else:
        _write_text(_csv_text(header, rows), args.out)
        if args.out not in (None, "-"):
            sys.stdout.write(_json_text(summary))
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"model", "schedule", "strategy", "strategies", "mode",
                      "reps", "seed", "cap"},
                {"model", "schedule", "mode"}, path="config")
    model = model_from_config(cfg["model"])
    schedule = schedule_from_config(cfg["schedule"])
    mode = cfg["mode"]
    if mode not in ("exhaustive", "mc"):
        raise ConfigInvalid("config.mode: expected 'exhaustive' or 'mc'")
    cap = _positive_int(cfg, "cap") if "cap" in cfg else ENUMERATION_CAP
    if "strategies" in cfg:
        strategies = _parse_strategies(cfg["strategies"])
    elif "strategy" in cfg:
        strategies = [strategy_from_config(cfg["strategy"])]
    else:
        raise ConfigInvalid("config.strategy: missing required key")

    results = []
    for strat in strategies:
        if mode == "exhaustive":
            res = alignment.verify_exhaustive(model, schedule, strat, cap=cap)
        else:
            reps = _setting(args.reps, cfg, "reps", minimum=1)
            seed = _setting(args.seed, cfg, "seed")
            res = alignment.verify_mc(model, schedule, strat, reps, seed)
        results.append(res)

    lines = [f"{r.strategy}: {r.summary()}" for r in results]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if all(r.ok for r in results) else 1


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"model", "schedule", "strategies", "aux_seed", "cap",
                      "search", "decision_table_out"},
                {"model", "schedule"}, path="config")
    model = model_from_config(cfg["model"])
    schedule = schedule_from_config(cfg["schedule"])
    cap = _positive_int(cfg, "cap") if "cap" in cfg else ENUMERATION_CAP
    search = _flag(cfg, "search")
    if not isinstance(cfg.get("decision_table_out", ""), str):
        raise ConfigInvalid("config.decision_table_out: expected a path string")
    if "strategies" in cfg:
        strategies = _parse_strategies(cfg["strategies"])
    else:
        aux_seed = _positive_int(cfg, "aux_seed") if "aux_seed" in cfg else 2024
        strategies = full_catalog(aux_seed=aux_seed)

    values = oracle.exact_expected_values(model, schedule, strategies, cap=cap)
    optimum, table = oracle.dp_optimal_value(model, schedule, cap=cap)
    if "decision_table_out" in cfg:
        _write_text(_csv_text(("history", "chosen_values"), table.to_csv_rows()),
                    cfg["decision_table_out"])
    doc = {
        "instance": oracle.instance_label(model, schedule),
        "strategies": [
            {"strategy": v.strategy, "exact_value": str(v)} for v in values
        ],
        "dp_optimal": str(optimum),
        "decision_histories": len(table.entries),
    }
    bug = [v.strategy for v in values if v.value > optimum.value]
    if bug:
        doc["exceeds_optimum"] = bug  # impossible if the oracles are right
    if search:
        search_cap = cap if "cap" in cfg else oracle.SEARCH_CAP
        res = oracle.exhaustive_strategy_search(model, schedule, cap=search_cap)
        doc["search_optimal"] = str(res.best)
        doc["search_strategy_space"] = str(res.strategy_space_size)
        doc["search_decision_histories"] = res.decision_histories
        if res.best.value != optimum.value:
            bug.append("search_vs_dp_mismatch")
            doc["exceeds_optimum"] = bug
    _write_text(_json_text(doc), args.out)
    return 1 if bug else 0


def cmd_lemma(args) -> int:
    if args.k < 1 or args.trials < 1:
        raise ConfigInvalid("lemma needs k >= 1 and trials >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed))
    for trial in range(args.trials):
        k = int(rng.integers(1, args.k + 1))
        b = rng.normal(0, 10, k)
        a = b - np.abs(rng.normal(0, 5, k))
        c = rng.normal(0, 10, k)
        if not oracle.order_stat_lemma_check(list(a), list(b), list(c)):
            doc = {
                "counterexample": True,
                "trial": trial,
                "A": [repr(v) for v in a],
                "B": [repr(v) for v in b],
                "C": [repr(v) for v in c],
            }
            _write_text(_json_text(doc), args.out)
            return 1
    _write_text(_json_text({"counterexample": False, "trials": args.trials, "max_k": args.k}), args.out)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"model", "schedule", "strategies", "reps", "seed", "coupled"},
                {"model", "schedule", "strategies", "reps", "seed"}, path="config")
    model = model_from_config(cfg["model"])
    schedule = schedule_from_config(cfg["schedule"])
    strategies = _parse_strategies(cfg["strategies"])
    reps = _setting(args.reps, cfg, "reps")
    seed = _setting(args.seed, cfg, "seed")
    table = experiments.compare_strategies(
        model, schedule, strategies, reps, seed,
        threads=_threads(args), coupled=_flag(cfg, "coupled"),
    )
    _emit_comparison(args, table)
    if args.stage_out:
        _write_text(_csv_text(("strategy", "stage", "time", "mean_value"),
                              table.stage_rows), args.stage_out)
    return 0


def cmd_drift(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _check_keys(cfg, {"model", "schedule", "reps", "seed"}, set(), path="config")
    default_model, default_schedule = experiments.default_drift_experiment()
    model = model_from_config(cfg["model"]) if "model" in cfg else default_model
    if not isinstance(model, DriftModel):
        raise ConfigInvalid("config.model: drift experiment needs kind 'drift'")
    schedule = (schedule_from_config(cfg["schedule"])
                if "schedule" in cfg else default_schedule)
    reps = _setting(args.reps, cfg, "reps", default=100_000)
    seed = _setting(args.seed, cfg, "seed", default=7)
    report = experiments.dependent_model_experiment(
        model, schedule, reps, seed, threads=_threads(args)
    )
    if args.format == "json":
        doc = {
            "model": report.model_tag,
            "replications": report.replications,
            "seed": report.seed,
            "paired_diff_drift_aware_minus_greedy": report.paired_diff,
            "paired_stderr": report.paired_stderr,
            "rows": [_row_dict(r) for r in report.rows],
        }
        _write_text(_json_text(doc), args.out)
    else:
        _write_text(_csv_text(experiments.COMPARE_CSV_HEADER,
                              [_row_tuple(r) for r in report.rows]), args.out)
    return 0


def _row_tuple(r: experiments.ComparisonRow) -> tuple:
    return (r.strategy, r.replications, r.mean, r.stderr, r.ci_lo, r.ci_hi,
            r.paired_diff_vs_greedy, r.paired_stderr)


def _row_dict(r: experiments.ComparisonRow) -> dict:
    out = {
        "strategy": r.strategy,
        "reps": r.replications,
        "mean": r.mean,
        "stderr": r.stderr,
        "ci_lo": r.ci_lo,
        "ci_hi": r.ci_hi,
        "paired_diff_vs_greedy": r.paired_diff_vs_greedy,
        "paired_stderr": r.paired_stderr,
    }
    if r.coupled_violations is not None:
        out["coupled_violations"] = r.coupled_violations
    return out


def _emit_comparison(args, table: experiments.ComparisonTable) -> None:
    if args.format == "json":
        doc = {
            "seed": table.seed,
            "ensemble_hash": table.ensemble_hash,
            "rows": [_row_dict(r) for r in table.rows],
            "value_by_stage": [
                {"strategy": st, "stage": j, "time": t, "mean_value": v}
                for st, j, t, v in table.stage_rows
            ],
        }
        _write_text(_json_text(doc), args.out)
    else:
        _write_text(_csv_text(experiments.COMPARE_CSV_HEADER,
                              [_row_tuple(r) for r in table.rows]), args.out)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staged-select",
        description="simulate, verify, and certify staged elimination strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON configuration")
        p.add_argument("--out", default=None,
                       help="output path ('-' or omitted for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (results never depend on this)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--reps", type=int, default=None, help="override config reps")

    common(sub.add_parser("validate", help="check a config document"))
    common(sub.add_parser("simulate", help="run a strategy, export the trace"))
    common(sub.add_parser("verify", help="audit the coupling construction"))
    common(sub.add_parser("oracle", help="exact expectations and the optimum"))
    compare = sub.add_parser("compare", help="paired Monte Carlo comparison")
    common(compare)
    compare.add_argument("--stage-out", default=None,
                         help="also write a long-format value-vs-stage CSV here")
    common(sub.add_parser("drift", help="dependence counterexample experiment"),
           config_required=False)

    lemma = sub.add_parser("lemma", help="order-statistics inequality sweep")
    lemma.add_argument("--k", type=int, default=8, help="max vector length")
    lemma.add_argument("--trials", type=int, default=10_000)
    lemma.add_argument("--seed", type=int, default=0)
    lemma.add_argument("--out", default=None)
    lemma.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "lemma": cmd_lemma,
    "compare": cmd_compare,
    "drift": cmd_drift,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigInvalid, ScheduleInvalid, InvalidDimensions, DimensionMismatch,
            InvalidReps) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IndependenceViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except StagedSelectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
