"""Output checks for one benchmark unit (one megt command).

Each check reads only the files a command wrote and raises ``CheckFailed``
naming the first problem.  ``check_manifest`` returns the output digests,
which the benchmark compares between runs of identical inputs to detect
nondeterminism.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    """A command's output is missing, corrupt or out of range."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _rows(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if not rows or tuple(rows[0]) != header:
        raise CheckFailed(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def _number(text: str, where: str, low: float, high: float) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None
    if not (math.isfinite(value) and low <= value <= high):
        raise CheckFailed(f"{where}: {value!r} outside [{low}, {high}]")
    return value


def check_manifest(outdir: Path) -> dict[str, str]:
    """Every output the manifest lists exists and matches its SHA-256."""
    try:
        manifest = json.loads((outdir / "manifest.json").read_text("ascii"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"manifest.json: {exc}") from None
    outputs = manifest.get("outputs") or {}
    if not outputs:
        raise CheckFailed("manifest.json lists no outputs")
    for name, digest in outputs.items():
        path = outdir / name
        if not path.is_file():
            raise CheckFailed(f"{name}: listed in the manifest but missing")
        if _sha256(path) != digest:
            raise CheckFailed(f"{name}: SHA-256 differs from the manifest")
    return dict(sorted(outputs.items()))


def check_density_csv(path: Path, columns: tuple[str, ...],
                      max_rounds: int) -> int:
    """A per-round series (``rho.csv`` or ``alpha.csv``): rounds count up
    from 0, there are at most ``max_rounds + 1`` of them, and every value
    is finite and in [0, 1].  Returns the row count."""
    rows = _rows(path, ("round",) + columns)
    if not rows:
        raise CheckFailed(f"{path.name}: no rows")
    if len(rows) > max_rounds + 1:
        raise CheckFailed(f"{path.name}: {len(rows)} rows exceed "
                          f"max_rounds + 1 = {max_rounds + 1}")
    for k, row in enumerate(rows):
        where = f"{path.name} row {k + 2}"
        if len(row) != 1 + len(columns) or row[0] != str(k):
            raise CheckFailed(f"{where}: expected round {k}, got {row}")
        for text in row[1:]:
            _number(text, where, 0.0, 1.0)
    return len(rows)


def check_grid_csv(path: Path, t_values: list[float],
                   s_values: list[float], replicas: int) -> None:
    """One row per (T, S) cell in row-major order, densities in [0, 1]."""
    rows = _rows(path, ("T", "S", "rho_mean", "rho_std", "replicas"))
    expected = [(t, s) for t in t_values for s in s_values]
    if len(rows) != len(expected):
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected "
                          f"{len(expected)}")
    for k, (row, (t, s)) in enumerate(zip(rows, expected)):
        where = f"{path.name} row {k + 2}"
        if len(row) != 5:
            raise CheckFailed(f"{where}: expected 5 fields")
        if not (math.isclose(float(row[0]), t, abs_tol=1e-12)
                and math.isclose(float(row[1]), s, abs_tol=1e-12)):
            raise CheckFailed(f"{where}: cell ({row[0]}, {row[1]}) is not "
                              f"({t}, {s})")
        _number(row[2], where, 0.0, 1.0)
        _number(row[3], where, 0.0, 0.5)
        if row[4] != str(replicas):
            raise CheckFailed(f"{where}: replicas {row[4]} != {replicas}")


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    z = math.exp(max(x, -700.0))
    return z / (1.0 + z)


def check_score(outdir: Path, zero_rating: int, duplicate: int,
                kept_devices: list[str], budget: float) -> int:
    """Rejection counts equal the planted ones, the ledger has one row per
    kept device, reputations are logistic squashes of the raw scores, and
    each mechanism pays out nonnegative amounts summing to at most the
    budget.

    ``rs_norm`` must lie in (0, 1) wherever float64 can hold the logistic
    strictly inside it (|rs_raw| < 36); beyond that the squash rounds to
    exactly 0 or 1, so there it is held to [0, 1] and to equality with the
    recomputed logistic.  Returns the number of such saturated ledger
    rows, so that a scoring change which alters saturation shows.
    """
    manifest = json.loads((outdir / "manifest.json").read_text("ascii"))
    planted = {"zero_rating": zero_rating, "duplicate": duplicate,
               "malformed": 0}
    found = manifest.get("extra", {}).get("rejections")
    if found != planted:
        raise CheckFailed(f"rejections {found} != planted {planted}")
    rows = _rows(outdir / "ledger.csv",
                 ("user_id", "rs_raw", "rs_norm", "gamma_emp",
                  "incentive_A", "incentive_B", "incentive_C"))
    users = [row[0] for row in rows]
    if users != sorted(kept_devices):
        raise CheckFailed(f"ledger.csv has {len(users)} rows, expected one "
                          f"per kept device ({len(kept_devices)})")
    payout_sums = [0.0, 0.0, 0.0]
    saturated = 0
    for k, row in enumerate(rows):
        where = f"ledger.csv row {k + 2}"
        raw = _number(row[1], where, -math.inf, math.inf)
        norm = _number(row[2], where, 0.0, 1.0)
        if abs(raw) < 36.0 and not 0.0 < norm < 1.0:
            raise CheckFailed(f"{where}: rs_norm {norm!r} not in (0, 1)")
        saturated += norm in (0.0, 1.0)
        if not math.isclose(norm, _logistic(raw), rel_tol=1e-12,
                            abs_tol=1e-300):
            raise CheckFailed(f"{where}: rs_norm {norm!r} is not "
                              f"logistic(rs_raw {raw!r})")
        for m in range(3):
            payout_sums[m] += _number(row[4 + m], where, 0.0, budget)
    for mech, total in zip("ABC", payout_sums):
        if total > budget * (1.0 + 1e-12):
            raise CheckFailed(f"mechanism {mech} pays {total!r} > budget "
                              f"{budget!r}")
    decisions = _rows(outdir / "decisions.csv",
                      ("date", "segment", "street", "event_type",
                       "confidence", "decision"))
    if not decisions:
        raise CheckFailed("decisions.csv: no rows")
    for k, row in enumerate(decisions):
        where = f"decisions.csv row {k + 2}"
        if len(row) != 6 or row[5] not in ("publish", "drop"):
            raise CheckFailed(f"{where}: malformed decision {row}")
        _number(row[4], where, 0.0, 1.0)
    return saturated
