"""Set-up probe: import the CLI and parse config files in a fresh interpreter.

    python3 bench/setup_probe.py CONFIG.json [CONFIG.json ...]

Prints one JSON line with the in-process import and parse times.  The
caller times the whole process as well, interpreter start included.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import staged_select.cli  # noqa: F401  (the import is what is timed)
    from staged_select import model_from_config, schedule_from_config, strategy_from_config
    t1 = time.perf_counter()
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        model_from_config(cfg["model"])
        schedule_from_config(cfg["schedule"])
        for entry in cfg.get("strategies", []):
            strategy_from_config({"name": entry} if isinstance(entry, str) else entry)
        if "strategy" in cfg:
            strategy_from_config(cfg["strategy"])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
