"""Per-run manifests: make every table/figure reproducible-by-record.

A manifest captures everything needed to re-run (and trust) one
experiment: the configuration fingerprint, seeds, the simulation
profile snapshot, execution settings, span self times, the signal-quality
metrics collected during the run, library versions, and schema tags.
The experiment runner attaches one to every :class:`ExperimentResult`
and writes it as JSON next to the experiment's output, so a reviewer
holding a regenerated Table II also holds the exact recipe - and the
signal conditions - that produced it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..exec.cache import CHAIN_SCHEMA, fingerprint
from ..exec.context import get_execution_config
from .metrics import flatten

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = "run-manifest-v1"


def _versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def config_fingerprint(
    experiment_id: str, profile, seed: int, quick: bool
) -> str:
    """Stable digest of everything that determines an experiment's rows.

    Profile ``None`` (per-experiment default) hashes as None, which is
    correct: the default choice is a function of the experiment id.
    """
    return fingerprint(CHAIN_SCHEMA, experiment_id, profile, seed, quick)


def build_manifest(
    *,
    experiment_id: str,
    title: str = "",
    profile=None,
    seed: int = 0,
    quick: bool = True,
    rows=None,
    timings: Optional[Dict[str, float]] = None,
    metrics_snapshot: Optional[Dict[str, dict]] = None,
    elapsed_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict for one experiment run."""
    config = get_execution_config()
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "chain_schema": CHAIN_SCHEMA,
        "experiment": experiment_id,
        "title": title,
        "seed": seed,
        "quick": quick,
        "profile": dataclasses.asdict(profile) if profile is not None else None,
        "execution": {
            "jobs": config.jobs,
            "cache_enabled": config.cache_enabled,
            "cache_dir": config.cache_dir,
        },
        "config_fingerprint": config_fingerprint(
            experiment_id, profile, seed, quick
        )[:16],
        "generated_unix": round(time.time(), 3),
        "versions": _versions(),
    }
    if rows is not None:
        manifest["result_fingerprint"] = fingerprint(rows)[:16]
        manifest["n_rows"] = len(rows)
    if elapsed_s is not None:
        manifest["elapsed_s"] = round(elapsed_s, 3)
    if timings:
        manifest["timings_s"] = {
            name: round(seconds, 4) for name, seconds in sorted(timings.items())
        }
    if metrics_snapshot:
        manifest["metrics"] = flatten(metrics_snapshot)
    return manifest


def manifest_path(directory, experiment_id: str) -> Path:
    """Canonical manifest location for one experiment's output."""
    return Path(directory) / f"{experiment_id}.manifest.json"


def write_manifest(manifest: Dict[str, Any], path) -> Path:
    """Write a manifest as pretty JSON, atomically (rename into place)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-manifest-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def read_manifest(path) -> Dict[str, Any]:
    """Load a manifest written by :func:`write_manifest`."""
    with open(path) as handle:
        manifest = json.load(handle)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: manifest schema {manifest.get('schema')!r} != "
            f"{MANIFEST_SCHEMA!r}"
        )
    return manifest
