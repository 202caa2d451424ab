"""Seeded input generators for the benchmark workloads.

These live in the benchmark, not in megt, so that a change to megt's own
``generate`` or ``synth`` cannot change what the benchmark feeds it.  They
use only the standard library and draw every random number through
``random.Random.random``, whose stream Python keeps stable across
releases: the same seed gives the same bytes.

``write_network`` writes a v1 ``.mplex`` file (two small-world layers over
half-normal social distances).  ``write_corpus`` writes a
Waze-schema report CSV with a known number of planted zero-rated and
duplicate rows, so the scorer's rejection counts can be checked exactly.
"""

from __future__ import annotations

import datetime as dt
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

REPORT_HEADER = ("object_id,generation_date,day_time,street,incident_type,"
                 "uuid,report_rating")
INCIDENT_TYPES = ("accident", "jam", "road_closure", "weather_hazard")
# jams dominate real traffic feeds; closures are rare
INCIDENT_WEIGHTS = (2, 5, 1, 1)
STREETS = tuple(f"{name} {kind}" for name in (
    "Alder", "Birch", "Cedar", "Dogwood", "Elm", "Fir", "Hazel", "Juniper",
    "Linden", "Maple", "Poplar", "Willow") for kind in ("Street", "Avenue"))
SEGMENTS_PER_DAY = 8
# rush-hour segments (06-09, 15-18) carry most reports, so peak windows
# hold over a thousand reports; weekends carry half the weekday load
SEGMENT_WEIGHTS = (1, 1, 12, 4, 4, 12, 4, 2)
WEEKEND_FACTOR = 0.5
START_DATE = dt.date(2019, 10, 7)  # a Monday
# network files: two small-world layers (ring degree 4, a tenth of the
# links rewired) over half-normal social distances of scale 1
LAYER_COUNT = 2
RING_DEGREE = 4
REWIRE = 0.1
SIGMA = 1.0


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"megtbench:{stream}:{seed}")


def _below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n)."""
    return int(rng.random() * n)


def _weighted(rng: random.Random, cumulative: list[float]) -> int:
    """Index drawn proportionally to the weights whose running sums are
    ``cumulative``."""
    return bisect_right(cumulative, rng.random() * cumulative[-1])


# ---------------------------------------------------------------------------
# multiplex network
# ---------------------------------------------------------------------------

def _small_world(rng: random.Random,
                 node_count: int) -> set[tuple[int, int]]:
    """Edges (i < j) of a Watts-Strogatz layer: a ring lattice of degree
    ``RING_DEGREE`` whose clockwise links are each rewired with
    probability ``REWIRE`` to a uniform non-neighbour."""
    nbrs = [set() for _ in range(node_count)]
    for offset in range(1, RING_DEGREE // 2 + 1):
        for i in range(node_count):
            j = (i + offset) % node_count
            nbrs[i].add(j)
            nbrs[j].add(i)
    for offset in range(1, RING_DEGREE // 2 + 1):
        for i in range(node_count):
            j = (i + offset) % node_count
            if j not in nbrs[i] or rng.random() >= REWIRE:
                continue
            target = _below(rng, node_count)
            while target == i or target in nbrs[i]:
                target = _below(rng, node_count)
            nbrs[i].discard(j)
            nbrs[j].discard(i)
            nbrs[i].add(target)
            nbrs[target].add(i)
    return {(min(i, j), max(i, j)) for i in range(node_count) for j in nbrs[i]}


def _centrality(node_count: int, edges) -> list[float]:
    """Max-normalised eigenvector centrality by power iteration on A + I."""
    nbrs: list[list[int]] = [[] for _ in range(node_count)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    vec = [1.0 / node_count] * node_count
    for _ in range(10000):
        nxt = [vec[i] + sum(vec[j] for j in nbrs[i])
               for i in range(node_count)]
        top = max(nxt)
        nxt = [x / top for x in nxt]
        if max(abs(a - b) for a, b in zip(nxt, vec)) <= 1e-10:
            return nxt
        vec = nxt
    raise RuntimeError("power iteration did not converge")


def write_network(path, seed: int, node_count: int = 200) -> dict:
    """Write a v1 multiplex file and return its shape.

    Every layer is a small-world graph from its own stream.  Near-regular
    degrees keep a sweep's work per seed steady: on scale-free layers the
    number of rounds to steady state varies by half between seeds.
    Each unordered pair gets a social distance ``|Normal(0, SIGMA)|``
    (Box-Muller); a link's weight is ``(c_i + c_j) / 2 / (1 + delta)``
    with ``c`` the layer's eigenvector centrality, as megt derives it.
    """
    delta_rng = _rng(seed, "delta")
    delta = {}
    for i in range(node_count):
        for j in range(i + 1, node_count):
            u1, u2 = delta_rng.random(), delta_rng.random()
            normal = (math.sqrt(-2.0 * math.log(1.0 - u1))
                      * math.cos(2.0 * math.pi * u2))
            delta[i, j] = abs(normal) * SIGMA
    lines = [f"multiplex v1 {node_count} {LAYER_COUNT}"]
    edge_count = 0
    for alpha in range(LAYER_COUNT):
        edges = sorted(_small_world(_rng(seed, f"layer{alpha}"), node_count))
        centrality = _centrality(node_count, edges)
        for i, j in edges:
            weight = (0.5 * (centrality[i] + centrality[j])
                      / (1.0 + delta[i, j]))
            lines.append(f"{alpha} {i} {j} {weight:.15g}")
        edge_count += len(edges)
    lines += [f"delta {i} {j} {value:.15g}"
              for (i, j), value in delta.items()]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"node_count": node_count, "layer_count": LAYER_COUNT,
            "edges": edge_count}


# ---------------------------------------------------------------------------
# report corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusPlan:
    """What ``write_corpus`` planted, for checking the scorer against."""

    rows: int
    zero_rating: int
    duplicate: int
    kept_devices: tuple[str, ...]

    @property
    def kept_rows(self) -> int:
        return self.rows - self.zero_rating - self.duplicate


def _rating(rng: random.Random, device_index: int, device_count: int) -> float:
    """Honest devices (first half) rate 4-5, selfish (next 30%) 3-4,
    malicious (last 20%) 1-2."""
    share = device_index / device_count
    low = 4 if share < 0.5 else 3 if share < 0.8 else 1
    return float(low + _below(rng, 2))


def write_corpus(path, seed: int, rows: int = 100_000,
                 device_count: int = 3000, day_count: int = 28,
                 zero_rating: int = 2000, duplicate: int = 3000) -> CorpusPlan:
    """Write a report CSV of exactly ``rows`` data rows and return the plan.

    ``rows - zero_rating - duplicate`` base rows have distinct
    (device, window, incident type) keys and nonzero ratings, so all of
    them survive ingest.  Planted zero-rated rows carry rating 0.  Each
    planted duplicate repeats a base row's key at the same or a later
    minute of the same 3-hour window, with a larger object id, so it
    sorts after its original and is rejected as a duplicate.  Device
    activity is heavy-tailed and windows peak at rush hour.
    """
    base_count = rows - zero_rating - duplicate
    if base_count < 1:
        raise ValueError("planted rows leave no base rows")
    rng = _rng(seed, "corpus")
    device_cum = list(accumulate(1.0 / (rank + 10) ** 0.8
                                 for rank in range(device_count)))
    window_weights = []
    for day in range(day_count):
        weekend = (START_DATE + dt.timedelta(days=day)).weekday() >= 5
        window_weights += [w * (WEEKEND_FACTOR if weekend else 1.0)
                           for w in SEGMENT_WEIGHTS]
    window_cum = list(accumulate(window_weights))
    kind_cum = list(accumulate(INCIDENT_WEIGHTS))
    dates = [(START_DATE + dt.timedelta(days=d)).isoformat()
             for d in range(day_count)]

    def draw_report(device: int):
        window = _weighted(rng, window_cum)
        kind = _weighted(rng, kind_cum)
        return device, window, kind

    base = []  # (device, window, kind, minute, street, rating)
    seen: set[tuple[int, int, int]] = set()
    while len(base) < base_count:
        key = draw_report(_weighted(rng, device_cum))
        if key in seen:
            continue
        seen.add(key)
        base.append((*key, _below(rng, 180), _below(rng, len(STREETS)),
                     _rating(rng, key[0], device_count)))
    planted = []
    for _ in range(zero_rating):
        device = device_count - 1 - _below(rng, device_count // 5)
        planted.append((*draw_report(device), _below(rng, 180),
                        _below(rng, len(STREETS)), 0.0))
    for _ in range(duplicate):
        device, window, kind, minute, _, rating = base[_below(rng, base_count)]
        later = minute + _below(rng, 180 - minute)
        planted.append((device, window, kind, later,
                        _below(rng, len(STREETS)), rating))

    records = []
    for serial, (device, window, kind, minute, street, rating) in enumerate(
            base + planted):
        day, segment = divmod(window, SEGMENTS_PER_DAY)
        hour, minute = divmod(segment * 180 + minute, 60)
        records.append((dates[day], f"{hour:02d}:{minute:02d}",
                        f"r{serial:07d}", STREETS[street],
                        INCIDENT_TYPES[kind], f"d{device:05d}",
                        f"{rating:.1f}"))
    records.sort()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REPORT_HEADER + "\n")
        for date, time, object_id, street, kind, device, rating in records:
            fh.write(f"{object_id},{date},{time},{street},{kind},{device},"
                     f"{rating}\n")
    kept = sorted({f"d{device:05d}" for device, *_ in base})
    return CorpusPlan(rows=rows, zero_rating=zero_rating,
                      duplicate=duplicate, kept_devices=tuple(kept))
