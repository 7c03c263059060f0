#!/usr/bin/env python3
"""Run every CLI command in sequence and print the consolidated report.

Outputs land under ./runs. Optional argument: the run seed (default 0).
"""

from __future__ import annotations

import sys
from pathlib import Path

from spdc_studio import fixtures
from spdc_studio.cli import main


def run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        sys.exit(code)


def entry() -> int:
    seed = sys.argv[1] if len(sys.argv) > 1 else "0"
    run(["simulate-jsa", "--seed", seed])
    run(["analyze-jsi", str(fixtures.measured_jsi_path())])
    run(["tomography", "--simulate", "reference-fixture", "--seed", seed])
    run(["visibility", "--seed", seed])
    run(["report"])
    print()
    print(Path("runs/report/report.md").read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(entry())
