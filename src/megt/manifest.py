"""Run manifests: the reproducibility record of every CLI command.

A manifest captures the subcommand, software version, master seed, the
fully resolved configuration, checksums of any input files, and
checksums of every output file.  Re-running the same command from the
manifest must reproduce every listed output byte for byte.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunManifest", "sha256_file", "write_manifest", "load_manifest",
           "write_lines"]

# rows per formatting pass of write_lines
_LINES_PER_WRITE = 1 << 16


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    version: str
    seed: int
    config: dict
    outputs: dict[str, str] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def record_output(self, path, base_dir) -> None:
        name = str(Path(path).relative_to(base_dir))
        self.outputs[name] = sha256_file(path)


def write_lines(fh, line: str, columns: tuple) -> None:
    """Write one ``line % row`` per row of the equal-length ``columns``:
    each chunk of rows is formatted by one ``%`` on the repeated line,
    with the columns' Python values interleaved row by row."""
    for start in range(0, columns[0].size, _LINES_PER_WRITE):
        part = [c[start:start + _LINES_PER_WRITE].tolist() for c in columns]
        fh.write(line * len(part[0])
                 % tuple(itertools.chain.from_iterable(zip(*part))))


def _jsonable(value):
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def write_manifest(manifest: RunManifest, path) -> None:
    payload = {
        "command": manifest.command,
        "version": manifest.version,
        "seed": manifest.seed,
        "config": {k: _jsonable(v) for k, v in sorted(manifest.config.items())},
        "inputs": manifest.inputs,
        "outputs": manifest.outputs,
        "extra": manifest.extra,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> RunManifest:
    """Read a manifest, checking each field's JSON type: ``command`` a
    string, ``seed`` an integer, and ``config``, ``outputs``, ``inputs``
    and ``extra`` objects.  Raises ValueError naming the first bad or
    missing field."""
    with open(path, encoding="ascii") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    for key in ("command", "version", "seed", "config", "outputs"):
        if key not in payload:
            raise ValueError(f"{path}: manifest missing field {key!r}")
    payload.setdefault("inputs", {})
    payload.setdefault("extra", {})
    for key, kind, what in (("command", str, "a string"),
                            ("seed", int, "an integer"),
                            ("config", dict, "an object"),
                            ("outputs", dict, "an object"),
                            ("inputs", dict, "an object"),
                            ("extra", dict, "an object")):
        value = payload[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{path}: manifest field {key!r} must be "
                             f"{what}, got {type(value).__name__}")
    return RunManifest(**{key: payload[key] for key in (
        "command", "version", "seed", "config", "outputs", "inputs",
        "extra")})
