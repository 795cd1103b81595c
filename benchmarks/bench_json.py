"""Shared writer for the sectioned ``BENCH_*.json`` files at the repo root.

Several benchmark tests record into one file, each under its own
section, so a run of one test must not clobber what another recorded.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def merge_bench(path: Path, section: str, payload: Any) -> None:
    """Write ``payload`` as ``section`` of the JSON object at ``path``,
    keeping its other sections (a missing or unreadable file starts
    empty)."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
