"""Command-line interface: exit codes, output shapes, and reproducibility."""

import json
import os
import tracemalloc

import pytest

from staged_select.cli import main

INSTANCE_A = {
    "model": {"kind": "discrete", "support": [1, -1], "probs": ["1/2", "1/2"]},
    "schedule": {"times": [1, 2], "sizes": [2, 1], "N": 3, "T": 2},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main(args)


# --- validate ----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, INSTANCE_A)
    assert run(["validate", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["schedule"]["times"] == [1, 2]


def test_validate_missing_sizes_names_field(tmp_path, capsys):
    bad = {"model": INSTANCE_A["model"],
           "schedule": {"times": [1, 2], "N": 3, "T": 2}}
    cfg = write_config(tmp_path, bad)
    assert run(["validate", "--config", cfg]) == 2
    assert "schedule.sizes" in capsys.readouterr().err


def test_validate_unknown_key_rejected(tmp_path, capsys):
    bad = dict(INSTANCE_A)
    bad["extra"] = 1
    cfg = write_config(tmp_path, bad)
    assert run(["validate", "--config", cfg]) == 2
    assert "config.extra" in capsys.readouterr().err


def test_validate_schedule_violation_is_config_error(tmp_path, capsys):
    bad = {"schedule": {"times": [1, 2], "sizes": [2, 2], "N": 3, "T": 2}}
    cfg = write_config(tmp_path, bad)
    assert run(["validate", "--config", cfg]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert run(["validate", "--config", str(tmp_path / "nope.json")]) == 2


# --- simulate ----------------------------------------------------------------

def test_simulate_csv_shape(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["strategy"] = {"name": "greedy"}
    doc["seed"] = 7
    cfg = write_config(tmp_path, doc)
    assert run(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "stage,time,process_id,value,temporal_index,survived"
    assert len(out) == 1 + 3 * 3  # header + processes x time points


def test_simulate_greedy_final_is_max_over_survivors(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["strategy"] = {"name": "greedy"}
    doc["seed"] = 7
    cfg = write_config(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    runrec = payload["runs"][0]
    rows = payload["trace_rows"]
    final_survivor_values = [
        r[3] for r in rows if r[1] == 2 and r[2] in runrec["survivors_per_stage"][0]
    ]
    assert runrec["final_value"] == max(final_survivor_values)


def test_simulate_writes_file_and_summary(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["strategy"] = {"name": "anti_greedy"}
    doc["seed"] = 3
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "trace.csv"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "anti_greedy"
    assert out.read_text().startswith("stage,time,")


# --- verify -------------------------------------------------------------------

def test_verify_exhaustive_anti_greedy(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["strategy"] = {"name": "anti_greedy"}
    doc["mode"] = "exhaustive"
    cfg = write_config(tmp_path, doc)
    assert run(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "64/64 atoms" in out
    assert "dominance OK" in out and "pushforward OK" in out


def test_verify_mc_mode(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["model"] = {"kind": "gaussian", "mean": 0, "stddev": 1}
    doc["strategies"] = ["greedy", "lagged_greedy"]
    doc["mode"] = "mc"
    doc["reps"] = 200
    doc["seed"] = 5
    cfg = write_config(tmp_path, doc)
    assert run(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("200/200 realizations") == 2


# --- oracle -------------------------------------------------------------------

def test_oracle_full_catalog(tmp_path, capsys):
    cfg = write_config(tmp_path, INSTANCE_A)
    assert run(["oracle", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dp_optimal"] == "17/16"
    values = {row["strategy"]: row["exact_value"] for row in doc["strategies"]}
    assert values["greedy"] == "17/16"
    assert "exceeds_optimum" not in doc


def test_oracle_with_search(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["search"] = True
    cfg = write_config(tmp_path, doc)
    assert run(["oracle", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["search_optimal"] == "17/16"
    assert payload["search_strategy_space"] == str(3 ** 8 * 2 ** 96)


def test_oracle_drift_model_exits_4(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["model"] = {"kind": "drift", "base": {"kind": "rademacher", "scale": 1},
                    "drift_support": [1, -1], "drift_probs": ["1/2", "1/2"]}
    cfg = write_config(tmp_path, doc)
    assert run(["oracle", "--config", cfg]) == 4
    assert "independent increments" in capsys.readouterr().err


def test_oracle_cap_exceeded_exits_3(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["cap"] = 10
    cfg = write_config(tmp_path, doc)
    assert run(["oracle", "--config", cfg]) == 3
    assert "cap of 10" in capsys.readouterr().err


GAUSSIAN = {"kind": "gaussian", "mean": 0, "stddev": 1}
UNIFORM = {"kind": "uniform", "lo": -1, "hi": 1}
DRIFT = {"kind": "drift", "base": {"kind": "rademacher", "scale": 1},
         "drift_support": [1, -1], "drift_probs": ["1/2", "1/2"]}


@pytest.mark.parametrize("model", [GAUSSIAN, UNIFORM])
def test_oracle_continuous_model_exits_2(tmp_path, capsys, model):
    doc = dict(INSTANCE_A, model=model)
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 2
    assert "discrete-step model" in capsys.readouterr().err


@pytest.mark.parametrize("model", [GAUSSIAN, UNIFORM])
def test_verify_exhaustive_continuous_model_exits_2(tmp_path, capsys, model):
    doc = dict(INSTANCE_A, model=model, mode="exhaustive", strategy={"name": "greedy"})
    assert run(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert "discrete-step model" in capsys.readouterr().err


def test_verify_exhaustive_drift_model_exits_4(tmp_path, capsys):
    doc = dict(INSTANCE_A, model=DRIFT, mode="exhaustive", strategy={"name": "greedy"})
    assert run(["verify", "--config", write_config(tmp_path, doc)]) == 4
    assert "independent increments" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["big", True, False, -1, 1.5, None])
@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_bad_cap_exits_2(tmp_path, capsys, command, cap):
    doc = dict(INSTANCE_A, cap=cap)
    if command == "verify":
        doc.update(mode="exhaustive", strategy={"name": "greedy"})
    assert run([command, "--config", write_config(tmp_path, doc)]) == 2
    assert "config.cap" in capsys.readouterr().err


def test_verify_cap_exceeded_exits_3(tmp_path, capsys):
    doc = dict(INSTANCE_A, cap=10, mode="exhaustive", strategy={"name": "greedy"})
    assert run(["verify", "--config", write_config(tmp_path, doc)]) == 3
    assert "cap of 10" in capsys.readouterr().err


def test_oracle_search_honours_config_cap(tmp_path, capsys):
    # 64 paths and DP fit under 100, the search's 104 nodes do not
    doc = dict(INSTANCE_A, cap=100, search=True)
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 3
    assert "cap of 100" in capsys.readouterr().err
    doc["cap"] = 104
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["search_decision_histories"] == 104


# --- lemma --------------------------------------------------------------------

def test_lemma_sweep_passes(capsys):
    assert run(["lemma", "--k", "8", "--trials", "2000", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexample"] is False


def test_lemma_k_one(capsys):
    assert run(["lemma", "--k", "1", "--trials", "500", "--seed", "2"]) == 0
    capsys.readouterr()


def test_lemma_same_seed_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["lemma", "--trials", "500", "--seed", "9", "--out", str(a)]) == 0
    assert run(["lemma", "--trials", "500", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lemma_bad_args(capsys):
    assert run(["lemma", "--k", "0"]) == 2
    capsys.readouterr()


# --- compare / drift ------------------------------------------------------------

def compare_config(tmp_path):
    return write_config(tmp_path, {
        "model": {"kind": "gaussian", "mean": 0, "stddev": 1},
        "schedule": {"times": [2, 4, 8], "sizes": [8, 4, 1], "N": 16, "T": 8},
        "strategies": ["greedy", "anti_greedy", "drift_aware"],
        "reps": 2000,
        "seed": 11,
    })


def test_compare_csv_shape(tmp_path, capsys):
    cfg = compare_config(tmp_path)
    assert run(["compare", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("strategy,reps,mean,stderr,ci_lo,ci_hi,"
                        "paired_diff_vs_greedy,paired_stderr")
    assert len(lines) == 1 + 3


def test_compare_json_schema(tmp_path, capsys):
    cfg = compare_config(tmp_path)
    assert run(["compare", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {r["strategy"] for r in doc["rows"]} == {"greedy", "anti_greedy", "drift_aware"}
    assert len(doc["value_by_stage"]) == 3 * 3
    assert doc["ensemble_hash"]


def test_drift_default_config_rows(tmp_path, capsys):
    assert run(["drift", "--reps", "500", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert any(line.startswith("greedy,") for line in lines[1:])
    assert any(line.startswith("drift_aware,") for line in lines[1:])


def test_drift_rejects_non_drift_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "gaussian", "mean": 0, "stddev": 1},
        "reps": 10, "seed": 1,
    })
    assert run(["drift", "--config", cfg]) == 2
    capsys.readouterr()


# --- reproducibility -------------------------------------------------------------

COMMANDS = [
    ("oracle", {}),
    ("compare", {}),
]


def test_outputs_reproducible_across_threads(tmp_path, monkeypatch):
    cfg = compare_config(tmp_path)
    outs = []
    for threads in ("1", "8"):
        path = tmp_path / f"out_{threads}.csv"
        monkeypatch.setenv("STAGED_SELECT_THREADS", threads)
        assert run(["compare", "--config", cfg, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    monkeypatch.delenv("STAGED_SELECT_THREADS")
    assert outs[0] == outs[1]


def test_env_var_overrides_flag(tmp_path, monkeypatch):
    cfg = compare_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("STAGED_SELECT_THREADS", "2")
    assert run(["compare", "--config", cfg, "--threads", "7", "--out", str(a)]) == 0
    monkeypatch.delenv("STAGED_SELECT_THREADS")
    assert run(["compare", "--config", cfg, "--threads", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_byte_identical_reruns(tmp_path):
    doc = dict(INSTANCE_A)
    doc["strategy"] = {"name": "random_fixed", "aux_seed": 42}
    doc["seed"] = 5
    doc["reps"] = 3
    cfg = write_config(tmp_path, doc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert run(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_stage_out_long_csv(tmp_path, capsys):
    cfg = compare_config(tmp_path)
    stages = tmp_path / "stages.csv"
    assert run(["compare", "--config", cfg, "--stage-out", str(stages)]) == 0
    capsys.readouterr()
    lines = stages.read_text().strip().splitlines()
    assert lines[0] == "strategy,stage,time,mean_value"
    assert len(lines) == 1 + 3 * 3  # strategies x stages


def test_oracle_decision_table_export(tmp_path, capsys):
    doc = dict(INSTANCE_A)
    doc["decision_table_out"] = str(tmp_path / "table.csv")
    cfg = write_config(tmp_path, doc)
    assert run(["oracle", "--config", cfg]) == 0
    capsys.readouterr()
    lines = (tmp_path / "table.csv").read_text().strip().splitlines()
    assert lines[0] == "history,chosen_values"
    assert len(lines) > 1
    assert any("stage=1" in line for line in lines[1:])


# --- integer settings and model parameters ------------------------------------------

MC_DOC = dict(INSTANCE_A, model=GAUSSIAN, mode="mc", strategy={"name": "anti_greedy"},
              reps=20, seed=1)


@pytest.mark.parametrize("bad", [{"reps": True, "seed": True}, {"reps": True},
                                 {"seed": True}, {"reps": 0}, {"seed": -1},
                                 {"reps": "10"}, {"seed": 1.5}])
def test_verify_mc_bad_reps_or_seed_exits_2(tmp_path, capsys, bad):
    doc = dict(MC_DOC, **bad)
    assert run(["verify", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config.reps" in err or "config.seed" in err


def test_verify_mc_missing_reps_exits_2(tmp_path, capsys):
    doc = {k: v for k, v in MC_DOC.items() if k != "reps"}
    assert run(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert "config.reps" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"seed": True}, {"reps": True}, {"reps": 0}])
def test_simulate_bad_reps_or_seed_exits_2(tmp_path, capsys, bad):
    doc = dict(INSTANCE_A, strategy={"name": "greedy"}, seed=3)
    doc.update(bad)
    assert run(["simulate", "--config", write_config(tmp_path, doc)]) == 2
    capsys.readouterr()


def test_verify_mc_nan_model_parameter_exits_2(tmp_path, capsys):
    doc = dict(MC_DOC, model={"kind": "gaussian", "mean": float("nan"), "stddev": 1})
    assert run(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"reps": "10"}, {"seed": "7"}, {"reps": True}])
def test_drift_bad_reps_or_seed_exits_2(tmp_path, capsys, bad):
    assert run(["drift", "--config", write_config(tmp_path, bad)]) == 2
    err = capsys.readouterr().err
    assert "config.reps" in err or "config.seed" in err


@pytest.mark.parametrize("aux_seed", ["abc", 1.9])
def test_oracle_bad_aux_seed_exits_2(tmp_path, capsys, aux_seed):
    doc = dict(INSTANCE_A, strategies=[{"name": "random_fixed", "aux_seed": aux_seed}])
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 2
    assert "aux_seed" in capsys.readouterr().err
    doc = dict(INSTANCE_A, aux_seed=aux_seed)
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 2
    assert "config.aux_seed" in capsys.readouterr().err


# --- overflowing paths, boolean flags and output paths ------------------------

HUGE_GAUSSIAN = {"kind": "gaussian", "mean": -1e308, "stddev": 1e308}
HUGE_DRIFT = {"kind": "drift", "base": {"kind": "gaussian", "mean": 0, "stddev": 1},
              "drift_support": [1e308], "drift_probs": [1]}


@pytest.mark.parametrize("model", [HUGE_GAUSSIAN, HUGE_DRIFT,
                                   {"kind": "uniform", "lo": -1e308, "hi": 1e308}])
def test_verify_mc_overflowing_paths_exit_2(tmp_path, capsys, model):
    doc = dict(MC_DOC, model=model)
    assert run(["verify", "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("model", [HUGE_GAUSSIAN, HUGE_DRIFT])
def test_simulate_overflowing_paths_exit_2(tmp_path, capsys, model):
    doc = dict(INSTANCE_A, model=model, strategy={"name": "greedy"}, seed=3)
    assert run(["simulate", "--config", write_config(tmp_path, doc)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_compare_and_drift_overflowing_paths_exit_2(tmp_path, capsys):
    doc = dict(INSTANCE_A, model=HUGE_GAUSSIAN, strategies=["greedy", "anti_greedy"],
               reps=50, seed=1)
    assert run(["compare", "--config", write_config(tmp_path, doc)]) == 2
    assert run(["drift", "--config", write_config(tmp_path, {"model": HUGE_DRIFT})]) == 2
    capsys.readouterr()


WIDE_GAUSSIAN = {"kind": "gaussian", "mean": 0, "stddev": 1e200}


def test_compare_overflowing_statistics_exit_2(tmp_path, capsys):
    # the paths are finite, but their squared deviations overflow float64
    doc = dict(INSTANCE_A, model=WIDE_GAUSSIAN, strategies=["greedy", "anti_greedy"],
               reps=50, seed=1)
    for fmt in ("json", "csv"):
        assert run(["compare", "--config", write_config(tmp_path, doc), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model: Monte Carlo statistics overflow to non-finite values\n"


def test_drift_overflowing_statistics_exit_2(tmp_path, capsys):
    model = {"kind": "drift", "base": WIDE_GAUSSIAN, "drift_support": [1, -1],
             "drift_probs": ["1/2", "1/2"]}
    doc = dict(INSTANCE_A, model=model, reps=50, seed=1)
    assert run(["drift", "--config", write_config(tmp_path, doc), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


def test_compare_and_drift_finite_statistics_still_exit_0(tmp_path, capsys):
    doc = dict(INSTANCE_A, model={"kind": "gaussian", "mean": 0, "stddev": 1e100},
               strategies=["greedy", "anti_greedy"], reps=50, seed=1)
    assert run(["compare", "--config", write_config(tmp_path, doc), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(isinstance(r["stderr"], float) and r["stderr"] > 0 for r in rows)
    assert run(["drift", "--reps", "50", "--seed", "1", "--format", "json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_compare_coupled_must_be_boolean(tmp_path, capsys, value):
    doc = dict(INSTANCE_A, strategies=["greedy", "anti_greedy"], reps=50, seed=1,
               coupled=value)
    assert run(["compare", "--config", write_config(tmp_path, doc)]) == 2
    assert "config.coupled" in capsys.readouterr().err


def test_compare_coupled_boolean_accepted(tmp_path, capsys):
    doc = dict(INSTANCE_A, strategies=["greedy", "anti_greedy"], reps=50, seed=1)
    for value, present in ((True, True), (False, False)):
        cfg = write_config(tmp_path, dict(doc, coupled=value))
        assert run(["compare", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert all(("coupled_violations" in r) == present for r in rows)


@pytest.mark.parametrize("value", ["no", "yes", 1, None])
def test_oracle_search_must_be_boolean(tmp_path, capsys, value):
    doc = dict(INSTANCE_A, search=value)
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config.search" in captured.err


@pytest.mark.parametrize("value", [7, True, None, ["t.csv"]])
def test_oracle_decision_table_out_must_be_a_path(tmp_path, capsys, value):
    doc = dict(INSTANCE_A, decision_table_out=value)
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config.decision_table_out" in captured.err


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "x.json")
    assert run(["validate", "--config", write_config(tmp_path, INSTANCE_A),
                "--out", missing]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert run(["validate", "--config", write_config(tmp_path, INSTANCE_A),
                "--out", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err
    doc = dict(INSTANCE_A, decision_table_out=missing)
    assert run(["oracle", "--config", write_config(tmp_path, doc)]) == 2
    assert "cannot write" in capsys.readouterr().err
    cfg = compare_config(tmp_path)
    assert run(["compare", "--config", cfg, "--reps", "50", "--stage-out", missing]) == 2
    assert "cannot write" in capsys.readouterr().err


# --- the sampled-chunk cap ------------------------------------------------------

# 4096 x 100 x 10,000 values: a 30.5 GiB chunk, whatever the reps
HUGE_SCHEDULE = {"times": [5000, 10000], "sizes": [2, 1], "N": 100, "T": 10000}
RADEMACHER_DRIFT = {"kind": "drift", "base": {"kind": "rademacher", "scale": 1},
                    "drift_support": [1, -1], "drift_probs": ["1/2", "1/2"]}


@pytest.mark.parametrize("command,doc", [
    ("compare", dict(MC_DOC, schedule=HUGE_SCHEDULE, mode=None, strategy=None,
                     strategies=["greedy", "anti_greedy"], reps=2)),
    ("verify", dict(MC_DOC, schedule=HUGE_SCHEDULE, reps=2)),
    ("drift", {"model": RADEMACHER_DRIFT, "schedule": HUGE_SCHEDULE, "reps": 2, "seed": 1}),
], ids=["compare", "verify-mc", "drift"])
def test_oversized_sampled_chunk_exits_3_before_allocating(tmp_path, capsys, command, doc):
    # the smallest draw, a drift's (4096, 100) array, would be 3.2 MiB
    _assert_exits_3_before_allocating(tmp_path, capsys, command, doc, 16777216)


def _assert_exits_3_before_allocating(tmp_path, capsys, command, doc, cap):
    """Exit 3 with one error line naming the cap, no stdout, and a traced
    Python/numpy peak under 1 MiB."""
    doc = {k: v for k, v in doc.items() if v is not None}
    cfg = write_config(tmp_path, doc)
    tracemalloc.start()
    try:
        code = run([command, "--config", cfg, "--threads", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"exceeding the cap of {cap}" in captured.err
    assert peak < 2 ** 20, peak


# 10**12 replications: a 244M-entry plan, then days of sampling
@pytest.mark.parametrize("command,doc", [
    ("compare", dict(MC_DOC, mode=None, strategy=None, strategies=["greedy", "anti_greedy"],
                     reps=10 ** 12)),
    ("verify", dict(MC_DOC, reps=10 ** 12)),
    ("drift", {"model": RADEMACHER_DRIFT, "schedule": INSTANCE_A["schedule"],
               "reps": 10 ** 12, "seed": 1}),
], ids=["compare", "verify-mc", "drift"])
def test_replications_past_the_cap_exit_3_before_planning(tmp_path, capsys, command, doc):
    _assert_exits_3_before_allocating(tmp_path, capsys, command, doc, 10 ** 8)


@pytest.mark.parametrize("reps,schedule", [
    (None, {"times": [10 ** 9], "sizes": [1], "N": 2, "T": 10 ** 9}),  # 7.45 GiB of steps
    (2 ** 20, INSTANCE_A["schedule"]),   # 2**20 realizations of 9 values
], ids=["long", "many"])
def test_simulate_past_the_trace_cap_exits_3_before_drawing(tmp_path, capsys, reps, schedule):
    doc = dict(MC_DOC, mode=None, reps=reps, strategy={"name": "greedy"}, schedule=schedule)
    _assert_exits_3_before_allocating(tmp_path, capsys, "simulate", doc, 2 ** 20)
