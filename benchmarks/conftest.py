"""Benchmark-suite helpers.

Every benchmark regenerates one paper artifact (table/figure); the
rendered report is written to ``benchmarks/out/<artifact>.txt`` and
— when the test passes structured rows — the machine-readable form to
``benchmarks/out/<artifact>.json``, so a full
``pytest benchmarks/ --benchmark-only`` run leaves the complete set of
reproduced tables behind as both text and data.  ``benchmarks/out/`` is
git-ignored: running the suite never rewrites tracked files, which
``test_hermetic.py`` checks after every other benchmark has run.  (The
richer ``BENCH_*.json`` timing records with environment fingerprints
come from ``python -m repro.bench``.)
"""

from __future__ import annotations

import json
import pathlib
import subprocess
from typing import Optional

import pytest

from repro.experiments.common import Scale, rows_document, to_jsonable

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "out"
HERMETIC_TEST = "test_hermetic.py"


def git_status() -> Optional[str]:
    """``git status --porcelain`` of the checkout, or ``None`` outside one."""
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=BENCH_DIR,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


# Taken at collection, before any benchmark runs.
STATUS_BEFORE = git_status()


@pytest.fixture
def git_status_change():
    """``(before, now)`` git status around the suite so far."""
    return STATUS_BEFORE, git_status()


def pytest_collection_modifyitems(session, config, items):
    """Run the hermeticity check right after the last benchmark."""
    check = [i for i in items if i.path.name == HERMETIC_TEST]
    rest = [i for i in items if i.path.name != HERMETIC_TEST]
    bench = [n for n, i in enumerate(rest) if BENCH_DIR in i.path.parents]
    at = bench[-1] + 1 if bench else len(rest)
    items[:] = rest[:at] + check + rest[at:]


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_report(results_dir):
    """Persist a rendered artifact report (and optionally its rows).

    ``_save(name, text)`` writes ``results/<name>.txt``;
    ``_save(name, text, rows)`` additionally writes
    ``results/<name>.json`` holding the structured rows the text table
    is a view over.
    """

    def _save(name: str, text: str, rows=None) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        if rows is not None:
            # The benchmark suite always regenerates at SMOKE scale.
            doc = rows_document(name, rows, scale=Scale.SMOKE)
            (results_dir / f"{name}.json").write_text(
                json.dumps(to_jsonable(doc), indent=2) + "\n"
            )

    return _save
