"""Every function the benchmark's span tracer wraps still exists.

`bench/traced_cli.py` replaces each `(module, attribute path)` of its
`TRACED` table with a timing wrapper; a renamed or deleted target would
make a traced run fail with an AttributeError.  This test only reads the
table.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def _traced():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(entry[0], entry[1]) for entry in module.TRACED]


@pytest.mark.parametrize("module_name,attr_path", _traced())
def test_traced_name_resolves(module_name, attr_path):
    target = importlib.import_module(f"staged_select.{module_name}")
    owner_path, _, attr = attr_path.rpartition(".")
    for part in filter(None, owner_path.split(".")):
        target = getattr(target, part)
    if owner_path:
        assert attr in vars(target)  # the tracer rebinds the class attribute
    assert callable(getattr(target, attr))
