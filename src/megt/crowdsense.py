"""Crowdsensed-report scoring, publish decisions, and incentive payout.

The pipeline ingests Waze-schema report tables
(``object_id,generation_date,day_time,street,incident_type,uuid,
report_rating``), filters spam and duplicates, scores each device's
contributions into a composite reputation in (0, 1), decides per
spatio-temporal window which event type (if any) to publish, and splits
an incentive budget among positive-reputation contributors.

Space-time is discretised into windows of one calendar date times one of
eight 3-hour day segments.  A report's truthfulness is its rating mapped
to (0, 1); its contribution quality is the logit of that; a user's
reputation is the logistic of their cooperativeness-weighted quality
sum.  Cooperativeness comes in three flavours: mechanism A ignores it
(weight 1), mechanism B counts the fraction of windows with an
above-average-rated report, and mechanism C additionally up-weights
windows where cooperative reports are scarce.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "INCIDENT_TYPES",
    "REPORT_COLUMNS",
    "MECHANISMS",
    "ReportRecord",
    "ReportTable",
    "WindowIndex",
    "Rejection",
    "UserProfile",
    "IncentiveConfig",
    "parse_reports",
    "read_reports_csv",
    "write_reports_csv",
    "truthfulness",
    "qoc",
    "logistic",
    "CorpusStats",
    "compute_corpus_stats",
    "build_profiles",
    "decision_rows",
    "incentives",
    "ScoreResult",
    "score_corpus",
    "write_ledger_csv",
    "write_decisions_csv",
    "SynthSpec",
    "synth_corpus",
]

INCIDENT_TYPES = ("accident", "jam", "road_closure", "weather_hazard")
REPORT_COLUMNS = ("object_id", "generation_date", "day_time", "street",
                  "incident_type", "uuid", "report_rating")
MECHANISMS = ("A", "B", "C")
SEGMENTS_PER_DAY = 8


class ReportRecord(NamedTuple):
    """One validated report row: a row of a ReportTable."""

    object_id: str
    generation_date: dt.date
    day_time: dt.time
    street: str
    incident_type: str
    uuid: str
    report_rating: float


@dataclass(frozen=True, order=True)
class WindowIndex:
    """A spatio-temporal bucket: calendar date x 3-hour segment (0-7)."""

    date: dt.date
    segment: int


@dataclass(frozen=True)
class Rejection:
    """Why an input row was dropped; reasons are ``malformed``,
    ``zero_rating`` or ``duplicate``."""

    row_number: int
    reason: str
    detail: str


@dataclass(frozen=True)
class UserProfile:
    """Per-device scoring summary under one mechanism."""

    user_id: str
    report_count: int
    active_windows: tuple[WindowIndex, ...]
    coop_windows: tuple[WindowIndex, ...]
    gamma_emp: float
    rs_raw: float
    rs_norm: float


@dataclass(frozen=True)
class IncentiveConfig:
    """Scoring/DSS/incentive knobs.

    ``preference_factor`` weighs contributor quantity against quality in
    the publish confidence; ``positive_rs_threshold`` marks positive
    reputation (0.5 = the logistic's neutral point); ``epsilon`` clamps
    truthfulness away from {0, 1} and floors window densities.
    """

    budget: float = 100.0
    preference_factor: float = 0.5
    publish_threshold: float = 0.5
    positive_rs_threshold: float = 0.5
    mechanism: str = "C"
    epsilon: float = 0.01

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 <= self.budget < math.inf:
            raise ValueError(
                f"budget must be finite and >= 0, got {self.budget}")
        for name in ("preference_factor", "publish_threshold",
                     "positive_rs_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.mechanism not in MECHANISMS:
            raise ValueError(
                f"mechanism must be one of {MECHANISMS}, "
                f"got {self.mechanism!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(
                f"epsilon must lie in (0, 0.5), got {self.epsilon}")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _parse_row(fields, dates: dict, times: dict) -> tuple:
    """One raw row as a tuple in ReportRecord field order; ``dates`` and
    ``times`` memoise the parses of one ingest (a corpus repeats few
    distinct stamps)."""
    if len(fields) != len(REPORT_COLUMNS):
        raise ValueError(
            f"expected {len(REPORT_COLUMNS)} fields, got {len(fields)}")
    object_id, date_txt, time_txt, street, kind, uuid, rating_txt = [
        f.strip() for f in fields]
    if not object_id or not street or not uuid:
        raise ValueError("empty identifier field")
    if kind not in INCIDENT_TYPES:
        raise ValueError(f"unknown incident_type {kind!r}")
    date = dates.get(date_txt)
    if date is None:
        date = dates[date_txt] = dt.date.fromisoformat(date_txt)
    time = times.get(time_txt)
    if time is None:
        time = times[time_txt] = dt.time.fromisoformat(time_txt)
    rating = float(rating_txt)
    if not 0.0 <= rating <= 5.0:
        raise ValueError(f"report_rating {rating} outside [0, 5]")
    return object_id, date, time, street, kind, uuid, rating


def parse_reports(rows, first_row_number: int = 1
                  ) -> tuple[ReportTable, list[Rejection]]:
    """Validate and filter raw rows into a table of the kept reports plus
    a rejection log.

    Three filters apply in order: rows that do not parse are rejected as
    ``malformed`` (logged, never fatal); rows with rating exactly 0 are
    ``zero_rating`` spam; within a (user, window, incident_type) group
    only the first report survives, later ones are ``duplicate``.
    """
    kept: list[tuple] = []
    rejections: list[Rejection] = []
    seen: set[tuple[str, dt.date, int, str]] = set()
    dates: dict[str, dt.date] = {}
    times: dict[str, dt.time] = {}
    for offset, fields in enumerate(rows):
        row_number = first_row_number + offset
        try:
            row = _parse_row(fields, dates, times)
        except (ValueError, TypeError) as exc:
            rejections.append(Rejection(row_number, "malformed", str(exc)))
            continue
        object_id, date, time, _, kind, uuid, rating = row
        if rating == 0.0:
            rejections.append(Rejection(row_number, "zero_rating", object_id))
            continue
        # (user, window, incident_type), the window as its date and segment
        key = (uuid, date, time.hour // 3, kind)
        if key in seen:
            rejections.append(Rejection(row_number, "duplicate", object_id))
            continue
        seen.add(key)
        kept.append(row)
    return ReportTable(kept), rejections


def read_reports_csv(path) -> tuple[ReportTable, list[Rejection]]:
    """Read a Waze-schema CSV (header required, exact column order)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: row 1: empty file") from None
        if tuple(h.strip() for h in header) != REPORT_COLUMNS:
            raise ValueError(
                f"{path}: row 1: expected header "
                f"{','.join(REPORT_COLUMNS)!r}")
        return parse_reports(reader, first_row_number=2)


def write_reports_csv(rows, path) -> None:
    """Write raw report rows (sequences in schema order) with header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# report quality
# ---------------------------------------------------------------------------

def truthfulness(rating: float, epsilon: float = 0.01) -> float:
    """Rating mapped to (0, 1): ``clamp(rating / 5, eps, 1 - eps)``.

    The clamp keeps the subsequent logit finite at the rating extremes.
    """
    return min(max(rating / 5.0, epsilon), 1.0 - epsilon)


def qoc(tau: float) -> float:
    """Contribution quality: the logit ``ln(tau / (1 - tau))``."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"truthfulness must lie in (0, 1), got {tau}")
    return math.log(tau / (1.0 - tau))


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    z = math.exp(max(x, -700.0))
    return z / (1.0 + z)


# ---------------------------------------------------------------------------
# corpus statistics and cooperativeness mechanisms
# ---------------------------------------------------------------------------

def _running_sum(values) -> float:
    """Left-to-right float sum.  Builtin ``sum`` compensates on Python
    3.12+, ``np.sum`` is pairwise; scores keep one summation order on
    every Python and numpy."""
    total = 0.0
    for value in values:
        total += value
    return total


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct integer codes (by sorting: numpy 2's hashed
    ``np.unique`` is an order of magnitude slower on these arrays)."""
    codes = np.sort(codes)
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first]


def _factorise(values) -> tuple[list, np.ndarray]:
    """``(distinct, codes)``: the sorted distinct values and each value's
    index into them."""
    distinct = sorted(set(values))
    index = {value: code for code, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), np.intp,
                                 len(values))


class ReportTable:
    """A corpus of kept reports as columns, factorised once: the input of
    every scoring stage.

    ``ReportTable(rows)`` takes rows in ReportRecord field order (ingest
    passes its parsed tuples); iterating yields them back as
    ReportRecords, in input order.  Users, streets and kinds are coded
    in sorted order and windows chronologically (window id = (date
    ordinal - first ordinal) * 8 + segment), so code order is output
    order and ``np.bincount`` over codes adds floats in the same order
    as a loop over sorted keys.  The parts every mechanism shares
    (per-user window tuples, per-report quality) are memoised per
    instance.
    """

    def __init__(self, rows=()):
        # one tuple per ReportRecord field
        self._by_field = (tuple(zip(*rows))
                          or ((),) * len(ReportRecord._fields))
        (_, generation_dates, day_times, streets, kinds, uuids,
         ratings) = self._by_field
        self.users, self.user = _factorise(uuids)
        self.streets, self.street = _factorise(streets)
        self.kinds, self.kind = _factorise(kinds)
        self.ratings = np.array(ratings, dtype=float)
        values, self.rating = np.unique(self.ratings, return_inverse=True)
        self.rating_values = values.tolist()
        dates, date = _factorise(generation_dates)
        first = dates[0].toordinal() if dates else 0
        self.day_span = dates[-1].toordinal() - first + 1 if dates else 0
        day = np.array([d.toordinal() - first for d in dates],
                       dtype=np.intp)[date]
        hour = np.fromiter((t.hour for t in day_times), np.intp,
                           len(day_times))
        ids, self.window = np.unique(day * SEGMENTS_PER_DAY + hour // 3,
                                     return_inverse=True)
        days, segments = np.divmod(ids, SEGMENTS_PER_DAY)
        self.windows = [WindowIndex(dt.date.fromordinal(first + d), segment)
                        for d, segment in zip(days.tolist(),
                                              segments.tolist())]
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self.ratings)

    def __iter__(self):
        return map(ReportRecord._make, zip(*self._by_field))

    def quality(self, epsilon: float) -> np.ndarray:
        """Per-report ``qoc(truthfulness(rating))``, evaluated once per
        distinct rating."""
        key = ("quality", epsilon)
        if key not in self._memo:
            per_value = [qoc(truthfulness(v, epsilon))
                         for v in self.rating_values]
            self._memo[key] = np.array(per_value, dtype=float)[self.rating]
        return self._memo[key]

    def user_windows(self, above: float | None = None):
        """Distinct (user, window) pairs of all reports, or of those rated
        strictly above ``above``, sorted by user then window.

        Returns ``(pair_user, pair_window, per_user)`` with ``per_user``
        one tuple of WindowIndex per user, in user-code order.
        """
        key = ("windows", above)
        if key not in self._memo:
            codes = self.user * len(self.windows) + self.window
            if above is not None:
                codes = codes[self.ratings > above]
            pair_user, pair_window = np.divmod(_distinct(codes),
                                               len(self.windows))
            objects = [self.windows[w] for w in pair_window.tolist()]
            bounds = np.searchsorted(
                pair_user, np.arange(len(self.users) + 1)).tolist()
            per_user = [tuple(objects[a:b])
                        for a, b in zip(bounds, bounds[1:])]
            self._memo[key] = (pair_user, pair_window, per_user)
        return self._memo[key]


@dataclass(frozen=True)
class CorpusStats:
    """Window-level aggregates of a filtered corpus.

    ``total_window_count`` covers the full observed date span (days with
    no reports still count: it normalises per-user persistence over the
    whole campaign horizon).  ``coop_density`` and ``window_weight`` are
    defined on windows holding at least one kept report; the weights are
    inverse densities rescaled to mean 1 over those windows.
    """

    mean_rating: float
    total_window_count: int
    coop_density: dict[WindowIndex, float]
    window_weight: dict[WindowIndex, float]


def compute_corpus_stats(table: ReportTable,
                         epsilon: float = 0.01) -> CorpusStats:
    if not table:
        return CorpusStats(mean_rating=0.0, total_window_count=0,
                           coop_density={}, window_weight={})
    mean_rating = _running_sum(table.ratings.tolist()) / len(table)
    window_count = len(table.windows)
    reports = np.bincount(table.window, minlength=window_count)
    coop = np.bincount(table.window[table.ratings > mean_rating],
                       minlength=window_count)
    density = coop / reports
    raw_weight = 1.0 / np.maximum(density, epsilon)
    weight_mean = _running_sum(raw_weight.tolist()) / window_count
    return CorpusStats(
        mean_rating=mean_rating,
        total_window_count=table.day_span * SEGMENTS_PER_DAY,
        coop_density=dict(zip(table.windows, density.tolist())),
        window_weight=dict(zip(table.windows,
                               (raw_weight / weight_mean).tolist())))


def _empirical_gammas(table: ReportTable, mechanism: str,
                      stats: CorpusStats) -> np.ndarray:
    """Report-derived cooperativeness of every user, in user-code order.

    * A: neutral, always 1.
    * B: persistence — fraction of all campaign windows in which the
      user filed a cooperative (above-mean-rated) report.
    * C: as B, but each cooperative window counts with its inverse-
      cooperative-density weight, rewarding scarce cooperation.
    """
    if mechanism == "A":
        return np.ones(len(table.users))
    if stats.total_window_count < 1:
        raise ValueError("empty corpus: no windows to normalise against")
    if mechanism not in ("B", "C"):
        raise ValueError(f"mechanism must be one of {MECHANISMS}, "
                         f"got {mechanism!r}")
    pair_user, pair_window, _ = table.user_windows(stats.mean_rating)
    if mechanism == "B":
        counts = np.bincount(pair_user, minlength=len(table.users))
        return counts / stats.total_window_count
    weight = np.array([stats.window_weight[w] for w in table.windows])
    # pairs are sorted by window within a user: the canonical order
    sums = np.bincount(pair_user, weights=weight[pair_window],
                       minlength=len(table.users))
    return sums / stats.total_window_count


def build_profiles(table: ReportTable, config: IncentiveConfig, mechanism: str,
                   stats: CorpusStats | None = None,
                   gamma_override: dict[str, float] | None = None
                   ) -> dict[str, UserProfile]:
    """Score every contributing user under one mechanism.

    A user's ``rs_raw`` is the sum of ``gamma * qoc(truthfulness)`` over
    their kept reports, in input order, and ``rs_norm`` its logistic
    squash into (0, 1).

    ``gamma_override`` substitutes externally derived cooperativeness
    values (e.g. simulation-based honesty) for the report-derived ones,
    keyed by user id; users absent from the map fall back to the
    mechanism's empirical value.
    """
    if stats is None:
        stats = compute_corpus_stats(table, config.epsilon)
    users = table.users
    override = gamma_override or {}
    # _empirical_gammas raises (unknown mechanism, no windows) only for a
    # user who falls back on it
    if all(user in override for user in users):
        gammas = [override[user] for user in users]
    else:
        gammas = [override[user] if user in override else value
                  for user, value in zip(
                      users,
                      _empirical_gammas(table, mechanism, stats).tolist())]
    weighted = (np.array(gammas, dtype=float)[table.user]
                * table.quality(config.epsilon))
    # reports are in input order within each user
    raws = np.bincount(table.user, weights=weighted,
                       minlength=len(users)).tolist()
    counts = np.bincount(table.user, minlength=len(users)).tolist()
    active = table.user_windows()[2]
    coop = table.user_windows(stats.mean_rating)[2]
    return {user: UserProfile(user_id=user, report_count=count,
                              active_windows=act, coop_windows=cop,
                              gamma_emp=gamma, rs_raw=raw,
                              rs_norm=logistic(raw))
            for user, count, act, cop, gamma, raw in zip(
                users, counts, active, coop, gammas, raws)}


# ---------------------------------------------------------------------------
# decision support
# ---------------------------------------------------------------------------

def decision_rows(table: ReportTable, profiles, config: IncentiveConfig):
    """DSS log: one decision per (window, street) report group.

    Trust (the positive-reputation user set) is assessed over the whole
    window; support and competition among event types are within the
    street group.  An event type's confidence blends, by the preference
    factor, its quantity share (distinct contributors over the window's
    positive-reputation user count) and its quality share (their summed
    reputations over the total across the group's event types); with no
    positive-reputation user in the window it is 0.  Each row holds the
    most confident type, ties to the lexicographically first, published
    iff its confidence reaches ``publish_threshold``.  Rows come out
    sorted by date, segment, street.
    """
    if not table:
        return []
    user_count = len(table.users)
    rs_norm = np.array([profiles[user].rs_norm for user in table.users],
                       dtype=float)
    # distinct positive users per window
    pair_user, pair_window, _ = table.user_windows()
    positive = np.bincount(
        pair_window[rs_norm[pair_user] >= config.positive_rs_threshold],
        minlength=len(table.windows))
    # (window, street) groups, their (group, kind) cells, and each
    # cell's distinct contributors in sorted-uuid order
    groups, group = np.unique(
        table.window * len(table.streets) + table.street,
        return_inverse=True)
    cells, cell = np.unique(group * len(table.kinds) + table.kind,
                            return_inverse=True)
    cell_group, cell_kind = np.divmod(cells, len(table.kinds))
    contributors = _distinct(cell * user_count + table.user)
    contributor_cell, contributor = np.divmod(contributors, user_count)
    supporters = np.bincount(contributor_cell, minlength=len(cells))
    rs_agg = np.bincount(contributor_cell, weights=rs_norm[contributor],
                         minlength=len(cells))
    # kinds are sorted within a group: the canonical order
    rs_total = np.bincount(cell_group, weights=rs_agg,
                           minlength=len(groups))[cell_group]
    group_window, group_street = np.divmod(groups, len(table.streets))
    trusted = positive[group_window][cell_group]
    quantity = np.divide(supporters, trusted, out=np.zeros(len(cells)),
                         where=trusted > 0)
    quality = np.divide(rs_agg, rs_total, out=np.zeros(len(cells)),
                        where=rs_total > 0)
    nu = config.preference_factor
    conf = np.where(trusted > 0, nu * quantity + (1.0 - nu) * quality, 0.0)
    # the most confident kind of each group, ties to the first kind
    starts = np.searchsorted(cell_group, np.arange(len(groups)))
    best_value = np.maximum.reduceat(conf, starts)
    best = np.minimum.reduceat(
        np.where(conf == best_value[cell_group], np.arange(len(cells)),
                 len(cells)), starts)
    threshold = config.publish_threshold
    windows = table.windows
    return [(windows[w].date.isoformat(), windows[w].segment,
             table.streets[s], table.kinds[k], value,
             "publish" if value >= threshold else "drop")
            for w, s, k, value in zip(group_window.tolist(),
                                      group_street.tolist(),
                                      cell_kind[best].tolist(),
                                      conf[best].tolist())]


# ---------------------------------------------------------------------------
# incentives
# ---------------------------------------------------------------------------

def incentives(profiles: dict[str, UserProfile], budget: float,
               total_users: int,
               positive_rs_threshold: float = 0.5) -> dict[str, float]:
    """Split the budget pot among positive-reputation users.

    The pot is the budget discounted by the positive-user share,
    ``budget * |U+| / total_users``; within the pot each positive user
    receives their reputation share.  Everyone else gets 0; with no
    positive user the budget is untouched.
    """
    if total_users < 1:
        raise ValueError(f"total_users must be >= 1, got {total_users}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    positive = [u for u in sorted(profiles)
                if profiles[u].rs_norm >= positive_rs_threshold]
    out = {u: 0.0 for u in sorted(profiles)}
    if not positive:
        return out
    pot = budget * len(positive) / total_users
    rs_sum = _running_sum(profiles[u].rs_norm for u in positive)
    for u in positive:
        out[u] = profiles[u].rs_norm / rs_sum * pot
    return out


# ---------------------------------------------------------------------------
# end-to-end scoring
# ---------------------------------------------------------------------------

@dataclass
class ScoreResult:
    """Everything cmd-level consumers need from one scoring pass.

    ``phase_s`` holds the wall seconds of the ``stats``, ``profiles``,
    ``incentives`` and ``decisions`` stages (observability only: it
    never reaches an output file).
    """

    users: list[str]
    total_users: int
    stats: CorpusStats
    profiles: dict[str, dict[str, UserProfile]]
    payouts: dict[str, dict[str, float]]
    decisions: list[tuple]
    phase_s: dict[str, float] = field(default_factory=dict, compare=False)


def score_corpus(table: ReportTable, config: IncentiveConfig,
                 mechanisms=MECHANISMS,
                 total_users: int | None = None,
                 gamma_override: dict[str, float] | None = None
                 ) -> ScoreResult:
    """Run scoring, decisions and payouts for the given mechanisms.

    ``total_users`` defaults to the number of distinct contributing
    devices.  Decisions use the profiles of ``config.mechanism`` (when
    scored) so the published log matches the selected ledger.
    """
    import time  # the phase clock, off the import path

    if total_users is None:
        total_users = len(table.users)
    phase_s: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phase_s[phase] = now - mark
        mark = now

    stats = compute_corpus_stats(table, config.epsilon)
    lap("stats")
    profiles = {mech: build_profiles(table, config, mech, stats,
                                     gamma_override)
                for mech in mechanisms}
    lap("profiles")
    payouts = {mech: incentives(profiles[mech], config.budget, total_users,
                                config.positive_rs_threshold)
               for mech in mechanisms}
    lap("incentives")
    decision_mech = (config.mechanism if config.mechanism in profiles
                     else next(iter(mechanisms)))
    decisions = decision_rows(table, profiles[decision_mech], config)
    lap("decisions")
    return ScoreResult(users=table.users, total_users=total_users,
                       stats=stats, profiles=profiles, payouts=payouts,
                       decisions=decisions, phase_s=phase_s)


def write_ledger_csv(result: ScoreResult, path,
                     selected_mechanism: str = "C") -> None:
    """``user_id,rs_raw,rs_norm,gamma_emp,incentive_A,incentive_B,
    incentive_C`` rows, users sorted.

    The rs/gamma columns report the selected mechanism; each incentive
    column comes from its own mechanism's ledger (mechanisms not scored
    in this pass stay empty).
    """
    selected = result.profiles[selected_mechanism]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("user_id,rs_raw,rs_norm,gamma_emp,"
                 "incentive_A,incentive_B,incentive_C\n")
        for user in result.users:
            profile = selected[user]
            cells = [user, repr(profile.rs_raw), repr(profile.rs_norm),
                     repr(profile.gamma_emp)]
            for mech in MECHANISMS:
                if mech in result.payouts:
                    cells.append(repr(result.payouts[mech][user]))
                else:
                    cells.append("")
            fh.write(",".join(cells) + "\n")


def write_decisions_csv(result: ScoreResult, path) -> None:
    """``date,segment,street,event_type,confidence,decision`` rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("date,segment,street,event_type,confidence,decision\n")
        for date, segment, street, kind, value, decision in result.decisions:
            fh.write(f"{date},{segment},{street},{kind},{value!r},"
                     f"{decision}\n")


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

_STREETS = (
    "Alder Way", "Birch Street", "Cedar Avenue", "Dogwood Lane",
    "Elm Road", "Fir Court", "Hazel Boulevard", "Juniper Drive",
    "Linden Square", "Maple Crossing", "Poplar Row", "Willow Parkway",
)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic report corpus.

    Three behaviour archetypes: honest devices file top-rated reports in
    many windows; selfish devices contribute rarely with decent ratings;
    malicious devices flood low-quality reports, a share of which carry
    the server's zero rating (and will be filtered out downstream).
    """

    user_count: int = 300
    day_count: int = 7
    honest_fraction: float = 0.5
    selfish_fraction: float = 0.3
    start_date: dt.date = dt.date(2019, 10, 7)
    rng_seed: int = 0

    def __post_init__(self):
        if self.user_count < 1:
            raise ValueError(f"user_count must be >= 1, got {self.user_count}")
        if self.day_count < 1:
            raise ValueError(f"day_count must be >= 1, got {self.day_count}")
        if (self.honest_fraction < 0 or self.selfish_fraction < 0
                or self.honest_fraction + self.selfish_fraction > 1):
            raise ValueError("behaviour fractions must be nonnegative "
                             "and sum to at most 1")


def synth_corpus(spec: SynthSpec) -> list[list[str]]:
    """Deterministic Waze-schema rows (pre-filtering, header excluded).

    Honest devices report rating 5.0 in 10-14 distinct windows; selfish
    devices rating 4.0 in 1-3 windows; malicious devices 10-14 windows
    with ratings drawn from {0, 1, 2} (zero-rated rows are the spam the
    ingest filter exists for).  Rows come out sorted by time then id.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed))
    honest_count = round(spec.user_count * spec.honest_fraction)
    selfish_count = round(spec.user_count * spec.selfish_fraction)
    window_total = spec.day_count * SEGMENTS_PER_DAY
    rows = []
    serial = 0
    for index in range(spec.user_count):
        user = f"u{index:04d}"
        if index < honest_count:
            window_count = int(rng.integers(10, 15))
            ratings = [5.0] * window_count
        elif index < honest_count + selfish_count:
            window_count = int(rng.integers(1, 4))
            ratings = [4.0] * window_count
        else:
            window_count = int(rng.integers(10, 15))
            ratings = rng.choice([0.0, 1.0, 2.0], size=window_count,
                                 p=[0.4, 0.3, 0.3]).tolist()
        window_count = min(window_count, window_total)
        chosen = rng.choice(window_total, size=window_count, replace=False)
        for window_flat, rating in zip(chosen.tolist(), ratings):
            day, segment = divmod(window_flat, SEGMENTS_PER_DAY)
            date = spec.start_date + dt.timedelta(days=day)
            minute_in_segment = int(rng.integers(180))
            hour, minute = divmod(segment * 180 + minute_in_segment, 60)
            street = _STREETS[int(rng.integers(len(_STREETS)))]
            kind = INCIDENT_TYPES[int(rng.integers(len(INCIDENT_TYPES)))]
            rows.append([f"r{serial:06d}", date.isoformat(),
                         f"{hour:02d}:{minute:02d}", street, kind, user,
                         f"{rating:.1f}"])
            serial += 1
    rows.sort(key=lambda row: (row[1], row[2], row[0]))
    return rows
