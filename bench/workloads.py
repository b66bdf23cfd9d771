"""Workload definitions and reference checks for the staged-select benchmark.

A workload is a list of CLI invocations.  Each invocation carries the JSON
config the program receives and a check that compares the program's exit
code and stdout bytes against pinned references.  A check returns None when
the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

#: Seed at which the monte_carlo compare ensemble hash is pinned.
DEFAULT_SEED = 1

GAUSS = {"kind": "gaussian", "mean": 0, "stddev": 1}
GAUSS_SCHEDULE = {"N": 16, "T": 8, "times": [2, 4, 8], "sizes": [8, 4, 1]}
RANDOM_FIXED = {"name": "random_fixed", "aux_seed": 2024}
CATALOG = ["greedy", "anti_greedy", RANDOM_FIXED, "lagged_greedy", "drift_aware"]
CATALOG_LABELS = ["greedy", "anti_greedy", "random_fixed(aux_seed=2024)",
                  "lagged_greedy", "drift_aware"]
COUPLING_STRATEGIES = ["anti_greedy", RANDOM_FIXED, "drift_aware"]
COUPLING_LABELS = ["anti_greedy", "random_fixed(aux_seed=2024)", "drift_aware"]
RADEMACHER = {"kind": "rademacher", "scale": 1}

# Exact references per enumerated instance, in CATALOG order.  Instance D is
# the acceptance gate's rademacher(1), N=4, T=3, sizes [3,2,1]; instance A
# (N=3, T=2, sizes [2,1]) is the tiny stand-in the harness self-test uses.
EXACT = {
    "full": {
        "schedule": {"N": 4, "T": 3, "times": [1, 2, 3], "sizes": [3, 2, 1]},
        "atoms": 4096,
        "values": ["205/128", "-7/128", "0/1", "17/16", "205/128"],
        "optimum": "205/128",
        "dp_states": 297,
        "search_nodes": 6672,
    },
    "tiny": {
        "schedule": {"N": 3, "T": 2, "times": [1, 2], "sizes": [2, 1]},
        "atoms": 64,
        "values": ["17/16", "5/16", "0/1", "1/2", "17/16"],
        "optimum": "17/16",
        "dp_states": 24,
        "search_nodes": 104,
    },
}

# Ensemble hash of the full-size monte_carlo compare run at DEFAULT_SEED.
PINNED_ENSEMBLE_HASH = "bdd99cb0338ec055b934ee8c0320f9258fbc5bfa2acb926759c45c0f98c0a936"

# How many paired standard errors a strategy may sit above greedy before the
# Monte Carlo comparison counts as contradicting greedy's optimality.
PAIRED_SE_LIMIT = 4.0


Check = Callable[[int, bytes], "str | None"]


@dataclass(frozen=True)
class Invocation:
    subcommand: str
    config: dict
    extra_args: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    items: int              # units of work one pass performs
    item: str               # what one item is
    invocations: tuple[Invocation, ...]


class _Mismatch(Exception):
    pass


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise _Mismatch(f"stdout is not JSON: {exc}") from exc


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise _Mismatch(reason)


def _checked(fn: Callable[[bytes], None]) -> Check:
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            fn(out)
        except _Mismatch as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"unexpected output shape: {exc!r}"
        return None
    return check


def check_compare(reps: int, seed: int, pinned_hash: str | None) -> Check:
    def check(out: bytes) -> None:
        doc = _json(out)
        rows = doc.get("rows", [])
        _expect([r.get("strategy") for r in rows] == CATALOG_LABELS,
                f"rows are {[r.get('strategy') for r in rows]}")
        _expect(doc.get("seed") == seed, f"seed {doc.get('seed')} != {seed}")
        for r in rows:
            _expect(r["reps"] == reps, f"{r['strategy']}: reps {r['reps']} != {reps}")
            for key, v in r.items():
                if key not in ("strategy", "reps"):
                    _expect(isinstance(v, float) and math.isfinite(v),
                            f"{r['strategy']}.{key} = {v!r} is not a finite float")
            _expect(r["paired_diff_vs_greedy"] <= PAIRED_SE_LIMIT * r["paired_stderr"],
                    f"{r['strategy']} beats greedy by more than "
                    f"{PAIRED_SE_LIMIT} paired SE")
        greedy = rows[0]
        _expect(greedy["paired_diff_vs_greedy"] == 0.0 and greedy["paired_stderr"] == 0.0,
                "greedy's paired difference with itself is not exactly 0")
        stages = doc.get("value_by_stage", [])
        _expect(len(stages) == len(rows) * len(GAUSS_SCHEDULE["times"]),
                f"{len(stages)} value_by_stage entries")
        _expect(all(math.isfinite(e["mean_value"]) for e in stages),
                "non-finite value_by_stage mean")
        if pinned_hash is not None:
            _expect(doc.get("ensemble_hash") == pinned_hash,
                    f"ensemble_hash {doc.get('ensemble_hash')} != pinned {pinned_hash}")
    return _checked(check)


def check_verify_lines(expected: list[str]) -> Check:
    want = ("\n".join(expected) + "\n").encode()

    def check(out: bytes) -> None:
        _expect(out == want, f"verify printed {out[:200]!r}, wanted {want[:200]!r}")
    return _checked(check)


def check_oracle(ref: dict) -> Check:
    def check(out: bytes) -> None:
        doc = _json(out)
        got = [(e.get("strategy"), e.get("exact_value")) for e in doc.get("strategies", [])]
        _expect(got == list(zip(CATALOG_LABELS, ref["values"])),
                f"exact values {got}")
        for key, want in (("dp_optimal", ref["optimum"]),
                          ("search_optimal", ref["optimum"]),
                          ("decision_histories", ref["dp_states"]),
                          ("search_decision_histories", ref["search_nodes"])):
            _expect(doc.get(key) == want, f"{key} = {doc.get(key)!r}, wanted {want!r}")
        _expect("exceeds_optimum" not in doc, f"exceeds_optimum: {doc.get('exceeds_optimum')}")
    return _checked(check)


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload `name` with inputs made from `seed` at `scale`
    ("full" for measurement, "tiny" for the harness self-test)."""
    tiny = scale == "tiny"
    if name == "monte_carlo":
        reps = 5_000 if tiny else 100_000
        audits = 20 if tiny else 1_000
        pinned = PINNED_ENSEMBLE_HASH if not tiny and seed == DEFAULT_SEED else None
        compare_cfg = {"model": GAUSS, "schedule": GAUSS_SCHEDULE, "strategies": CATALOG,
                       "reps": reps, "seed": seed}
        verify_cfg = {"model": GAUSS, "schedule": GAUSS_SCHEDULE, "mode": "mc",
                      "strategies": COUPLING_STRATEGIES, "reps": audits, "seed": seed}
        lines = [f"{label}: {audits}/{audits} realizations: dominance OK, "
                 f"permutation OK, inversion OK" for label in COUPLING_LABELS]
        items = reps * len(CATALOG) + audits * len(COUPLING_STRATEGIES)
        return Workload(name, items, "realization x strategy evaluation or audit", (
            Invocation("compare", compare_cfg, ("--format", "json"),
                       check_compare(reps, seed, pinned)),
            Invocation("verify", verify_cfg, (), check_verify_lines(lines)),
        ))
    if name == "certify_exact":
        ref = EXACT[scale]
        atoms = ref["atoms"]
        oracle_cfg = {"model": RADEMACHER, "schedule": ref["schedule"], "search": True}
        verify_cfg = {"model": RADEMACHER, "schedule": ref["schedule"],
                      "strategy": {"name": "anti_greedy"}, "mode": "exhaustive"}
        line = (f"anti_greedy: {atoms}/{atoms} atoms: dominance OK, permutation OK, "
                f"pushforward OK, inversion OK")
        return Workload(name, atoms * len(CATALOG) + atoms, "atom x strategy evaluation", (
            Invocation("oracle", oracle_cfg, (), check_oracle(ref)),
            Invocation("verify", verify_cfg, (), check_verify_lines([line])),
        ))
    raise KeyError(name)


NAMES = ("monte_carlo", "certify_exact")
