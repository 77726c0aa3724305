"""Run manifests.

Every command writes exactly one manifest.json into its output
directory: which subcommand ran, the resolved configuration, sha256
digests of the input files as raw bytes, and the list of files it
emitted. Reruns with identical inputs and seeds produce identical
manifests except for the `created` timestamp, which is isolated in that
single field so byte-level output comparison stays possible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .errors import DataError
from .tableio import write_json

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    version: str
    seed: int | None
    config: dict[str, object]
    inputs: dict[str, str]  # path as given -> sha256 of file bytes
    outputs: tuple[str, ...]  # file names relative to the output directory
    created: str  # ISO timestamp; the only run-dependent field


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None
    return digest.hexdigest()


def build_manifest(
    subcommand: str,
    config: Mapping[str, object],
    inputs: Sequence[str | Path],
    outputs: Sequence[str],
    seed: int | None = None,
) -> RunManifest:
    return RunManifest(
        subcommand=subcommand,
        version=__version__,
        seed=seed,
        config=dict(config),
        inputs={str(p): sha256_file(p) for p in inputs},
        outputs=tuple(sorted(outputs)),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def write_manifest(out_dir: str | Path, manifest: RunManifest) -> Path:
    path = Path(out_dir) / MANIFEST_NAME
    doc = asdict(manifest)
    doc["outputs"] = list(manifest.outputs)
    write_json(path, doc)
    return path


def read_manifest(out_dir: str | Path) -> RunManifest:
    path = Path(out_dir) / MANIFEST_NAME
    try:
        with open(path, "rt", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"no manifest found at {path}") from None
    return RunManifest(
        subcommand=doc["subcommand"],
        version=doc["version"],
        seed=doc["seed"],
        config=doc["config"],
        inputs=doc["inputs"],
        outputs=tuple(doc["outputs"]),
        created=doc["created"],
    )
