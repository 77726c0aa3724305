"""Run manifests.

Every command writes exactly one manifest.json into its output
directory: which subcommand ran, its ``--seed`` (null for a subcommand
without one, which has no randomness), the resolved configuration (the
value of every other flag it declares but ``--out``), sha256
digests of the input files as raw bytes, and every file it emitted,
mapped to the kind the subcommand gave it where it wrote the file (null
for a run diagnostic such as ``ingest_stats.txt``). ``report`` bundles
the files of its input directories that their manifests list with a
kind, and nothing else. Reruns with identical inputs and seeds produce
identical manifests except for the `created` timestamp, which is
isolated in that single field so byte-level output comparison stays
possible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from . import __version__
from .errors import DataError
from .tableio import open_text, write_json

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    version: str
    seed: int | None
    config: dict[str, object]
    inputs: dict[str, str]  # path as given -> sha256 of file bytes
    outputs: dict[str, str | None]  # file name in the output directory -> kind, None for diagnostics
    created: str  # ISO timestamp; the only run-dependent field


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except FileNotFoundError:
        raise DataError(f"{path}: input file not found") from None
    return digest.hexdigest()


def build_manifest(
    subcommand: str,
    config: Mapping[str, object],
    inputs: Mapping[str, str | None],
    outputs: Mapping[str, str | None],
    seed: int | None,
) -> RunManifest:
    return RunManifest(
        subcommand=subcommand,
        version=__version__,
        seed=seed,
        config=dict(config),
        inputs={str(p): digest or sha256_file(p) for p, digest in inputs.items()},
        outputs=dict(sorted(outputs.items())),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def write_manifest(out_dir: str | Path, manifest: RunManifest) -> Path:
    path = Path(out_dir) / MANIFEST_NAME
    write_json(path, asdict(manifest))
    return path


def read_manifest(out_dir: str | Path) -> RunManifest:
    """The manifest of `out_dir`; DataError ``<path>: <reason>`` if it is
    missing, not JSON, lacks a field or its outputs are not a mapping of
    bare file names to a kind or null."""
    path = Path(out_dir) / MANIFEST_NAME
    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise DataError(f"{path}: {exc}") from None
    names = [f.name for f in fields(RunManifest)]
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a JSON object")
    missing = [name for name in names if name not in doc]
    if missing:
        raise DataError(f"{path}: missing key {missing[0]!r}")
    outputs = doc["outputs"]
    if not isinstance(outputs, dict) or any(
        Path(name).name != name or not (kind is None or isinstance(kind, str)) for name, kind in outputs.items()
    ):
        raise DataError(f"{path}: outputs must map bare file names to a kind or null")
    return RunManifest(**{name: doc[name] for name in names})
