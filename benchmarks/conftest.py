"""Shared infrastructure for the benchmark suite.

Each module regenerates one paper artifact (table II, table III,
figures 4–7).  Saturation results are cached per (kernel, target,
limits) in :mod:`repro.experiments`, so artifacts that share runs (the
gemv figures) do not recompute them.  Rendered tables and CSVs are
written to ``benchmarks/out/``.

The files directly under ``benchmarks/out/`` are the *canonical*
full-suite reproductions of the paper's tables and figures and are
committed to the repo.  When any ``REPRO_*`` environment knob degrades
the run — ``REPRO_KERNELS`` restricting the kernel set (as the CI fast
tier does), or ``REPRO_STEP_LIMIT`` / ``REPRO_NODE_LIMIT`` /
``REPRO_TIME_LIMIT`` shrinking the saturation budget — artifacts go to
``benchmarks/out/subset/`` instead: a git-ignored scratch directory
whose ``MANIFEST.txt`` records the knobs, emptied whenever the knob
combination changes so it never presents stale files as products of
the current configuration.  Canonical data can therefore only be
overwritten by a genuine full-suite, default-budget run.

Environment knobs (see repro.experiments): ``REPRO_STEP_LIMIT``,
``REPRO_NODE_LIMIT``, ``REPRO_KERNELS``.
"""

from __future__ import annotations

import os
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
SUBSET_DIR = OUT_DIR / "subset"

PARTIAL_RUN_KNOBS = (
    "REPRO_KERNELS",
    "REPRO_STEP_LIMIT",
    "REPRO_NODE_LIMIT",
    "REPRO_TIME_LIMIT",
    "REPRO_SCHEDULER",
    "REPRO_RULE_PROFILE",
)


def artifact_dir() -> Path:
    """Where artifacts land: canonical out/, or out/subset/ whenever an
    environment knob makes the run anything less than the full paper
    reproduction."""
    knobs = {
        name: value
        for name in PARTIAL_RUN_KNOBS
        if (value := os.environ.get(name, "").strip())
    }
    if not knobs:
        OUT_DIR.mkdir(exist_ok=True)
        return OUT_DIR
    SUBSET_DIR.mkdir(parents=True, exist_ok=True)
    manifest = SUBSET_DIR / "MANIFEST.txt"
    content = (
        "Partial benchmark run — NOT the paper reproduction.\n"
        + "".join(f"{name}={value}\n" for name, value in sorted(knobs.items()))
        + "Canonical full-suite artifacts live one directory up.\n"
    )
    if not manifest.exists() or manifest.read_text() != content:
        # New knob combination: drop artifacts from previous partial
        # runs so the manifest describes every file present.
        for stale in SUBSET_DIR.iterdir():
            if stale != manifest:
                stale.unlink()
        manifest.write_text(content)
    return SUBSET_DIR


def write_artifact(name: str, content: str) -> Path:
    """Write a rendered table/CSV under the active artifact dir and echo it."""
    path = artifact_dir() / name
    path.write_text(content)
    print(f"\n[artifact] {path}\n{content}")
    return path
