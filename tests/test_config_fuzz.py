"""Config documents fuzzed for every subcommand: no input ends in a
traceback, and no input exits 1, the code reserved for a theorem-check
violation.  Half the documents are valid (small N and T); the other half
are valid ones with one key, at any depth, replaced by junk of any JSON
type, left out, or joined by an unknown key."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from staged_select.cli import main

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 50),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 4), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "name", "times"]), st.integers(0, 3), max_size=1),
)

STEP_MODELS = st.one_of(
    st.sampled_from([
        {"kind": "discrete", "support": [1, -1], "probs": ["1/2", "1/2"]},
        {"kind": "discrete", "support": [2, -1, 0], "probs": ["1/6", "1/3", "1/2"]},
        {"kind": "discrete", "support": ["1/2", "-1/3"], "probs": ["2/5", "3/5"]},
        {"kind": "rademacher", "scale": 1},
        {"kind": "rademacher", "scale": "1/2"},
    ]),
    st.builds(lambda m, sd: {"kind": "gaussian", "mean": m, "stddev": sd},
              st.floats(-3, 3), st.floats(0, 3)),
    st.builds(lambda lo, w: {"kind": "uniform", "lo": lo, "hi": lo + w},
              st.floats(-3, 3), st.floats(0.5, 3)),
)
MODELS = st.one_of(STEP_MODELS, STEP_MODELS.map(lambda base: {
    "kind": "drift", "base": base, "drift_support": [1, -1], "drift_probs": ["1/2", "1/2"]}))
SCHEDULES = st.sampled_from([
    {"times": [1, 2], "sizes": [2, 1], "N": 3, "T": 2},
    {"times": [2], "sizes": [1], "N": 2, "T": 2},
    {"times": [1], "sizes": [1], "N": 3, "T": 1},
    {"times": [1, 3], "sizes": [1, 1], "N": 2, "T": 3},
    {"times": [1, 2, 3], "sizes": [1, 1, 1], "N": 2, "T": 3},
])
STRATEGY = st.one_of(
    st.sampled_from(["greedy", "anti_greedy", "lagged_greedy", "drift_aware"]).map(
        lambda name: {"name": name}),
    st.integers(0, 9).map(lambda seed: {"name": "random_fixed", "aux_seed": seed}),
)
STRATEGIES = st.lists(st.one_of(STRATEGY, STRATEGY.map(lambda s: s["name"]).filter(
    lambda name: name != "random_fixed")), min_size=1, max_size=2)
COUNT = st.integers(2, 40)


def document(required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {})


VALID = {
    "validate": document({"schedule": SCHEDULES}, {"model": MODELS}),
    "simulate": document({"model": MODELS, "schedule": SCHEDULES, "strategy": STRATEGY,
                          "seed": COUNT}, {"reps": COUNT}),
    "verify": document({"model": MODELS, "schedule": SCHEDULES,
                        "mode": st.sampled_from(["exhaustive", "mc"]),
                        "strategies": STRATEGIES, "reps": COUNT, "seed": COUNT},
                       {"cap": st.sampled_from([10, 10 ** 6])}),
    "oracle": document({"model": MODELS, "schedule": SCHEDULES},
                       {"strategies": STRATEGIES, "aux_seed": COUNT,
                        "cap": st.sampled_from([10, 10 ** 6]), "search": st.booleans()}),
    "compare": document({"model": MODELS, "schedule": SCHEDULES, "strategies": STRATEGIES,
                         "reps": COUNT, "seed": COUNT}, {"coupled": st.booleans()}),
    # reps is always given: drift's default is 100,000 replications
    "drift": document({"reps": COUNT}, {"model": MODELS, "schedule": SCHEDULES,
                                        "seed": COUNT}),
}


@st.composite
def mutated(draw, documents):
    """A valid document with one key, at any depth, replaced by junk, left
    out, or joined by an unknown key."""
    doc = copy.deepcopy(draw(documents))
    target = doc
    while True:
        nested = sorted(k for k, v in target.items() if isinstance(v, dict))
        if not nested or draw(st.booleans()):
            break
        target = target[draw(st.sampled_from(nested))]
    key = draw(st.sampled_from(sorted(target) + ["bogus"]))
    if key in target and draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JUNK)
    return doc


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# derandomized, so a run checks the same documents every time
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(VALID)).flatmap(lambda command: st.tuples(
    st.just(command), st.one_of(VALID[command], mutated(VALID[command])))))
def test_fuzzed_config_never_tracebacks_or_exits_1(command_and_doc):
    command, doc = command_and_doc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = run_quietly([command, "--config", path, "--threads", "1"])
    assert code in (0, 2, 3, 4), (code, doc, err)
    assert (code == 0) == (err == ""), (code, doc, err)
    if code:
        assert err.startswith("error: ") and out == "", (doc, err)
