import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megt import crowdsense
from megt.crowdsense import (INCIDENT_TYPES, MECHANISMS, CorpusStats,
                             IncentiveConfig, ReportRecord, ReportTable,
                             SynthSpec,
                             UserProfile, WindowIndex, build_profiles,
                             compute_corpus_stats, decision_rows,
                             incentives, logistic, parse_reports, qoc,
                             read_reports_csv, score_corpus, synth_corpus,
                             truthfulness, write_decisions_csv,
                             write_ledger_csv, write_reports_csv)

DAY = dt.date(2019, 10, 7)


def report(user="u1", rating=4.0, hour=9, minute=0, day=DAY,
           street="Alder Way", kind="jam", object_id=None):
    return ReportRecord(object_id=object_id or f"r-{user}-{hour}-{minute}",
                        generation_date=day,
                        day_time=dt.time(hour, minute),
                        street=street, incident_type=kind, uuid=user,
                        report_rating=rating)


def raw_row(user="u1", rating="4.0", date="2019-10-07", time="09:00",
            street="Alder Way", kind="jam", object_id="r1"):
    return [object_id, date, time, street, kind, user, rating]


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def window_segments(*times):
    records = [report(user=f"u{k}", hour=hour, minute=minute)
               for k, (hour, minute) in enumerate(times)]
    stats = compute_corpus_stats(ReportTable(records))
    return [window.segment for window in stats.coop_density]


def test_window_segments_partition_the_day():
    assert window_segments((0, 0), (4, 30), (23, 59)) == [0, 1, 7]
    assert window_segments(*((h, 0) for h in range(24))) == list(range(8))


def test_windows_group_and_sort():
    records = [report(user="a", hour=22), report(user="b", hour=1),
               report(user="c", hour=2)]
    table = ReportTable(records)
    keys = list(compute_corpus_stats(table).coop_density)
    assert keys == [WindowIndex(DAY, 0), WindowIndex(DAY, 7)]
    profiles = build_profiles(table, IncentiveConfig(), "A")
    assert [u for u, p in profiles.items()
            if p.active_windows == (keys[0],)] == ["b", "c"]


# ---------------------------------------------------------------------------
# ingestion filters
# ---------------------------------------------------------------------------

def test_zero_rating_rows_are_spam():
    kept, rejections = parse_reports([raw_row(rating="0.0")])
    assert list(kept) == []
    assert rejections[0].reason == "zero_rating"
    assert rejections[0].row_number == 1


def test_duplicate_keeps_only_the_first():
    rows = [raw_row(object_id="r1", time="09:00"),
            raw_row(object_id="r2", time="10:00"),  # same window (seg 3)
            raw_row(object_id="r3", time="13:00")]  # different window
    kept, rejections = parse_reports(rows)
    assert [r.object_id for r in kept] == ["r1", "r3"]
    assert [r.reason for r in rejections] == ["duplicate"]
    assert rejections[0].row_number == 2


def test_same_window_different_type_is_not_a_duplicate():
    rows = [raw_row(object_id="r1", kind="jam"),
            raw_row(object_id="r2", kind="accident")]
    kept, rejections = parse_reports(rows)
    assert len(kept) == 2 and not rejections


def test_malformed_rows_are_logged_not_fatal():
    rows = [raw_row(object_id="r1"),
            ["r2", "2019-13-40", "09:00", "s", "jam", "u1", "4"],
            ["r3", "2019-10-07", "09:00", "s", "earthquake", "u1", "4"],
            ["r4", "2019-10-07", "09:00", "s", "jam", "u1", "9.5"],
            ["too", "short"],
            raw_row(object_id="r6", kind="accident")]
    kept, rejections = parse_reports(rows)
    assert [r.object_id for r in kept] == ["r1", "r6"]
    assert [r.reason for r in rejections] == ["malformed"] * 4
    assert [r.row_number for r in rejections] == [2, 3, 4, 5]


def test_repeated_stamps_parse_alike():
    # an ingest parses each distinct date and time text once; a bad one
    # is rejected every time it appears
    rows = [raw_row(object_id="r1", user="a"),
            raw_row(object_id="r2", user="b", time="09:00:00"),
            ["r3", "2019-10-7", "09:00", "s", "jam", "c", "4"],
            ["r4", "2019-10-7", "09:00", "s", "jam", "d", "4"],
            raw_row(object_id="r5", user="a", time="12:30")]
    kept, rejections = parse_reports(rows)
    assert [(r.generation_date, r.day_time) for r in kept] == [
        (DAY, dt.time(9)), (DAY, dt.time(9)), (DAY, dt.time(12, 30))]
    assert [(r.row_number, r.reason) for r in rejections] == [
        (3, "malformed"), (4, "malformed")]
    assert rejections[0].detail == rejections[1].detail
    # same user, kind and window as r1, at another time: a duplicate
    assert parse_reports(rows + [raw_row(object_id="r6", user="a",
                                         time="10:30")])[1][-1].reason \
        == "duplicate"


def test_empty_input():
    kept, rejections = parse_reports([])
    assert list(kept) == [] and rejections == []


def test_csv_round_trip(tmp_path):
    path = tmp_path / "reports.csv"
    write_reports_csv([raw_row(object_id="r1"),
                       raw_row(object_id="r2", rating="0.0", time="14:00")],
                      path)
    kept, rejections = parse_and_check(path)
    assert [r.object_id for r in kept] == ["r1"]
    assert rejections[0].reason == "zero_rating"
    # rejection row numbers are 1-based file rows (header is row 1)
    assert rejections[0].row_number == 3


def parse_and_check(path):
    kept, rejections = read_reports_csv(path)
    return kept, rejections


def test_csv_header_is_mandatory(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="row 1"):
        read_reports_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_reports_csv(path)


# ---------------------------------------------------------------------------
# report quality
# ---------------------------------------------------------------------------

def test_truthfulness_is_a_clamped_rescale():
    assert truthfulness(2.5) == 0.5
    assert truthfulness(5.0) == 0.99
    assert truthfulness(0.01) == 0.01
    assert truthfulness(5.0, epsilon=0.001) == 0.999


def test_qoc_known_values():
    assert qoc(0.5) == 0.0
    assert qoc(0.99) == pytest.approx(math.log(99.0))
    assert qoc(0.99) == pytest.approx(4.59512, abs=1e-5)
    # logistic(-1) inverts back to -1
    assert qoc(0.2689414213699951) == pytest.approx(-1.0, abs=1e-12)


def test_qoc_antisymmetry():
    rng = np.random.default_rng(1)
    for tau in rng.uniform(0.01, 0.99, size=50):
        assert qoc(tau) == pytest.approx(-qoc(1.0 - tau), abs=1e-10)


def test_qoc_domain():
    with pytest.raises(ValueError):
        qoc(0.0)
    with pytest.raises(ValueError):
        qoc(1.0)


def test_extended_qoc_scales_linearly():
    # a one-report user's rs_raw is gamma * Q, gamma set by the override
    records = [report(user="a", rating=4.0)]
    quality = qoc(truthfulness(4.0))
    for gamma in (1.0, 0.0, 0.5, 2.0, -1.5):
        profile = build_profiles(ReportTable(records), IncentiveConfig(), "A",
                                 gamma_override={"a": gamma})["a"]
        assert profile.rs_raw == gamma * quality


def test_coop_flag_is_strict():
    # mean rating 3.0: the report rated exactly 3.0 does not cooperate
    records = [report(user="hi", rating=4.0, hour=0),
               report(user="lo", rating=2.0, hour=3),
               report(user="eq", rating=3.0, hour=6)]
    stats = compute_corpus_stats(ReportTable(records))
    assert stats.mean_rating == 3.0
    assert list(stats.coop_density.values()) == [1.0, 0.0, 0.0]
    profiles = build_profiles(ReportTable(records), IncentiveConfig(), "B",
                              stats)
    assert profiles["hi"].coop_windows == (WindowIndex(DAY, 0),)
    assert profiles["eq"].coop_windows == ()
    records = [report(user=f"u{k}", rating=4.0, hour=k) for k in range(5)]
    stats = compute_corpus_stats(ReportTable(records))
    assert set(stats.coop_density.values()) == {0.0}


def test_logistic_behaviour():
    assert logistic(0.0) == 0.5
    # saturates without overflowing in either direction
    assert logistic(1e6) == 1.0
    assert 0.0 < logistic(-1e6) < 1e-300
    assert logistic(2.0) + logistic(-2.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# cooperativeness mechanisms
# ---------------------------------------------------------------------------

def stub_stats(total_windows, weights=None):
    return CorpusStats(mean_rating=3.0, total_window_count=total_windows,
                       coop_density={}, window_weight=weights or {})


def test_mechanism_a_is_neutral():
    records = [report(user="a", rating=5.0), report(user="b", rating=1.0)]
    for stats in (None, stub_stats(0)):
        profiles = build_profiles(ReportTable(records), IncentiveConfig(),
                                  "A", stats)
        assert [p.gamma_emp for p in profiles.values()] == [1.0, 1.0]


def test_mechanism_b_counts_window_persistence():
    # cooperative (above 3.0) in three windows; the second kind in
    # window 0 does not count it twice
    records = [report(rating=5.0, hour=3 * k) for k in range(3)]
    records.append(report(rating=5.0, hour=1, kind="accident"))
    profiles = build_profiles(ReportTable(records), IncentiveConfig(), "B",
                              stub_stats(10))
    assert profiles["u1"].gamma_emp == pytest.approx(0.3)


def test_mechanism_c_uses_window_weights():
    windows = [WindowIndex(DAY, 0), WindowIndex(DAY, 1)]
    weights = {windows[0]: 0.5, windows[1]: 1.5}
    records = [report(rating=5.0, hour=0), report(rating=5.0, hour=3)]
    profiles = build_profiles(ReportTable(records), IncentiveConfig(), "C",
                              stub_stats(8, weights))
    assert profiles["u1"].gamma_emp == pytest.approx(2.0 / 8)


def test_unknown_mechanism_rejected():
    records = [report(user="a"), report(user="b", hour=13)]
    with pytest.raises(ValueError, match="mechanism must be one of"):
        build_profiles(ReportTable(records), IncentiveConfig(), "D")
    with pytest.raises(ValueError, match="empty corpus"):
        build_profiles(ReportTable(records), IncentiveConfig(), "B",
                       stub_stats(0))
    # only a user who falls back on the empirical value raises
    profiles = build_profiles(ReportTable(records), IncentiveConfig(), "D",
                              gamma_override={"a": 1.0, "b": 0.5})
    assert profiles["b"].gamma_emp == 0.5


def test_uniform_density_makes_b_and_c_agree():
    # every window holds one above-mean and one below-mean report
    records = []
    for segment in (0, 1):
        records.append(report(user="good", rating=5.0, hour=3 * segment))
        records.append(report(user="poor", rating=1.0, hour=3 * segment))
    config = IncentiveConfig()
    b = build_profiles(ReportTable(records), config, "B")
    c = build_profiles(ReportTable(records), config, "C")
    for user in ("good", "poor"):
        assert c[user].gamma_emp == pytest.approx(b[user].gamma_emp)
    assert b["good"].gamma_emp == pytest.approx(2.0 / 8)
    assert b["poor"].gamma_emp == 0.0


def test_scarce_cooperation_is_upweighted_by_c():
    # window 0: cooperation is common; window 1: one cooperator among
    # four low ratings
    records = [report(user=u, rating=5.0, hour=0) for u in "abcd"]
    records.append(report(user="x", rating=5.0, hour=3))
    records += [report(user=f"n{k}", rating=1.0, hour=3) for k in range(4)]
    config = IncentiveConfig()
    b = build_profiles(ReportTable(records), config, "B")
    c = build_profiles(ReportTable(records), config, "C")
    # densities 1.0 vs 0.2 -> weights 1/3 vs 5/3 after mean rescale
    assert c["x"].gamma_emp == pytest.approx(b["x"].gamma_emp * 5 / 3)
    assert c["a"].gamma_emp == pytest.approx(b["a"].gamma_emp / 3)
    assert c["x"].gamma_emp > b["x"].gamma_emp
    assert c["a"].gamma_emp < b["a"].gamma_emp


def test_stats_window_count_spans_silent_days():
    records = [report(day=DAY), report(day=DAY + dt.timedelta(days=6),
                                       hour=20)]
    stats = compute_corpus_stats(ReportTable(records))
    assert stats.total_window_count == 7 * 8
    assert len(stats.coop_density) == 2


def test_window_weights_average_to_one():
    rng = np.random.default_rng(3)
    records = [report(user=f"u{k}", rating=float(rng.integers(1, 6)),
                      hour=int(rng.integers(24)),
                      day=DAY + dt.timedelta(days=int(rng.integers(3))))
               for k in range(60)]
    stats = compute_corpus_stats(ReportTable(records))
    weights = list(stats.window_weight.values())
    assert np.mean(weights) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# composite reputation
# ---------------------------------------------------------------------------

def reputation(ratings, gamma=None):
    """``(rs_raw, rs_norm)`` of one user filing ``ratings`` in
    successive windows, scored under mechanism A (gamma 1) unless
    ``gamma`` overrides it."""
    records = [report(user="a", rating=r, hour=k)
               for k, r in enumerate(ratings)]
    override = None if gamma is None else {"a": gamma}
    profile = build_profiles(ReportTable(records), IncentiveConfig(), "A",
                             gamma_override=override)["a"]
    return profile.rs_raw, profile.rs_norm


def test_opposite_contributions_cancel():
    raw, norm = reputation([5 * logistic(1.0), 5 * logistic(-1.0)])
    assert raw == pytest.approx(0.0, abs=1e-12)
    assert norm == pytest.approx(0.5, abs=1e-12)


def test_rs_norm_tracks_rs_raw_sign():
    good, good_norm = reputation([5.0])
    bad, bad_norm = reputation([1.0])
    assert good > 0 and good_norm > 0.5
    assert bad < 0 and bad_norm < 0.5
    assert reputation([1.0], gamma=0.0) == (0.0, 0.5)


def test_rs_norm_is_monotone_in_raw():
    profiles = build_profiles(
        ReportTable([report(user=f"u{r}", rating=float(r), hour=r)
                     for r in range(1, 6)]),
        IncentiveConfig(), "A")
    raws = [p.rs_raw for p in profiles.values()]
    norms = [p.rs_norm for p in profiles.values()]
    assert raws == sorted(raws)
    assert norms == sorted(norms)
    assert all(0.0 < v < 1.0 for v in norms)


def test_profiles_report_windows_and_counts():
    records = [report(user="a", rating=5.0, hour=0),
               report(user="a", rating=5.0, hour=4),
               report(user="a", rating=1.0, hour=9),
               report(user="b", rating=1.0, hour=0)]
    profiles = build_profiles(ReportTable(records), IncentiveConfig(), "B")
    a = profiles["a"]
    assert a.report_count == 3
    assert len(a.active_windows) == 3
    assert len(a.coop_windows) == 2
    assert profiles["b"].coop_windows == ()


def test_gamma_override_hook():
    records = [report(user="a", rating=5.0), report(user="b", rating=5.0,
                                                    hour=13)]
    profiles = build_profiles(ReportTable(records), IncentiveConfig(), "A",
                              gamma_override={"a": 0.0})
    assert profiles["a"].gamma_emp == 0.0
    assert profiles["a"].rs_raw == 0.0
    assert profiles["b"].gamma_emp == 1.0
    assert profiles["b"].rs_raw > 0.0


# ---------------------------------------------------------------------------
# confidence and publishing
# ---------------------------------------------------------------------------

def stub_profile(user, rs_norm):
    from megt.crowdsense import UserProfile
    return UserProfile(user_id=user, report_count=1, active_windows=(),
                       coop_windows=(), gamma_emp=1.0, rs_raw=0.0,
                       rs_norm=rs_norm)


def decide(records, rs_norm, **config):
    """decision_rows over stub profiles with the given reputations."""
    profiles = {u: stub_profile(u, value) for u, value in rs_norm.items()}
    return decision_rows(ReportTable(records), profiles,
                         IncentiveConfig(**config))


def test_unanimous_single_type_confidence_is_one():
    reports = [report(user=f"u{k}", kind="jam") for k in range(10)]
    rows = decide(reports, {r.uuid: 0.9 for r in reports},
                  preference_factor=0.5)
    assert [row[3:5] for row in rows] == [("jam", pytest.approx(1.0))]


def test_pure_quantity_share():
    # five of the window's ten positive users file an accident on one
    # street; the other five a jam on another
    group = [report(user=f"u{k}", kind="accident") for k in range(5)]
    window = group + [report(user=f"u{k}", kind="jam",
                             street="Birch Street") for k in range(5, 10)]
    rows = decide(window, {r.uuid: 0.9 for r in window},
                  preference_factor=1.0)
    assert rows[0][2:5] == ("Alder Way", "accident", pytest.approx(0.5))


def test_pure_quality_share_splits_equal_types():
    window = [report(user="a", kind="jam"),
              report(user="b", kind="accident")]
    rows = decide(window, {"a": 0.8, "b": 0.8}, preference_factor=0.0)
    assert rows[0][3:5] == ("accident", pytest.approx(0.5))


def test_no_positive_users_blocks_publishing():
    reports = [report(user="a"), report(user="b", hour=10)]
    rows = decide(reports, {"a": 0.2, "b": 0.2}, publish_threshold=0.0)
    assert [row[3:] for row in rows] == [("jam", 0.0, "publish")]
    rows = decide(reports, {"a": 0.2, "b": 0.2})
    assert [row[3:] for row in rows] == [("jam", 0.0, "drop")]


def test_threshold_user_counts_as_positive():
    reports = [report(user="a", kind="jam")]
    rows = decide(reports, {"a": 0.5})
    assert rows[0][4] == pytest.approx(1.0)


def test_decide_publish_picks_argmax_over_threshold():
    # seven jam reporters against three accident reporters: pure quantity
    # gives jam 0.7
    reports = ([report(user=f"j{k}", kind="jam") for k in range(7)]
               + [report(user=f"a{k}", kind="accident") for k in range(3)])
    rs_norm = {r.uuid: 0.9 for r in reports}
    rows = decide(reports, rs_norm, preference_factor=1.0)
    assert rows[0][3:] == ("jam", pytest.approx(0.7), "publish")
    rows = decide(reports, rs_norm, preference_factor=1.0,
                  publish_threshold=0.8)
    assert rows[0][5] == "drop"
    # a confidence equal to the threshold publishes
    rows = decide(reports[:1], {"j0": 0.9}, publish_threshold=1.0)
    assert rows[0][4:] == (1.0, "publish")


def test_ties_break_lexicographically():
    reports = [report(user="a", kind="jam"),
               report(user="b", kind="accident")]
    rows = decide(reports, {"a": 0.7, "b": 0.7})
    assert rows[0][3:] == ("accident", pytest.approx(0.5), "publish")


def test_argmax_invariant_under_positive_rescaling():
    # the chosen kind depends on relative reputations only
    rng = np.random.default_rng(9)
    for _ in range(20):
        reports = [report(user=f"u{k}", kind=INCIDENT_TYPES[k % 4],
                          street=("Alder Way", "Birch Street")[k % 2],
                          hour=int(rng.integers(6)))
                   for k in range(int(rng.integers(4, 16)))]
        rs_norm = {r.uuid: float(rng.uniform(0.1, 1.0)) for r in reports}
        scale = float(rng.uniform(0.1, 10.0))
        rescaled = {user: value * scale for user, value in rs_norm.items()}
        kinds = [row[3] for row in decide(reports, rs_norm,
                                          positive_rs_threshold=0.0)]
        assert kinds == [row[3] for row in decide(
            reports, rescaled, positive_rs_threshold=0.0)]


def test_decision_rows_are_per_window_and_street():
    records = [report(user="a", street="Alder Way", hour=9, rating=5.0),
               report(user="b", street="Alder Way", hour=10, rating=5.0),
               report(user="c", street="Birch Street", hour=9, rating=5.0),
               report(user="d", street="Alder Way", hour=14, rating=5.0)]
    profiles = {u: stub_profile(u, 0.9) for u in "abcd"}
    rows = decision_rows(ReportTable(records), profiles, IncentiveConfig())
    assert [(row[1], row[2]) for row in rows] == [
        (3, "Alder Way"), (3, "Birch Street"), (4, "Alder Way")]
    assert all(row[5] in ("publish", "drop") for row in rows)


# ---------------------------------------------------------------------------
# incentives
# ---------------------------------------------------------------------------

def test_single_positive_user_payout():
    profiles = {"a": stub_profile("a", 0.9)}
    payout = incentives(profiles, budget=100.0, total_users=10)
    assert payout["a"] == pytest.approx(10.0)


def test_two_positive_users_split_by_reputation():
    profiles = {"a": stub_profile("a", 0.6), "b": stub_profile("b", 0.9)}
    payout = incentives(profiles, budget=100.0, total_users=2)
    assert payout["a"] == pytest.approx(40.0)
    assert payout["b"] == pytest.approx(60.0)


def test_no_positive_users_no_payout():
    profiles = {"a": stub_profile("a", 0.4), "b": stub_profile("b", 0.1)}
    payout = incentives(profiles, budget=100.0, total_users=2)
    assert payout == {"a": 0.0, "b": 0.0}


def test_budget_conservation_on_random_ledgers():
    rng = np.random.default_rng(17)
    for _ in range(20):
        users = int(rng.integers(2, 40))
        profiles = {f"u{k}": stub_profile(f"u{k}", float(rng.random()))
                    for k in range(users)}
        total = users + int(rng.integers(0, 10))
        budget = float(rng.uniform(10.0, 500.0))
        payout = incentives(profiles, budget, total)
        positive = sum(1 for p in profiles.values() if p.rs_norm >= 0.5)
        expected = budget * positive / total
        assert sum(payout.values()) == pytest.approx(expected, abs=1e-9)
        assert sum(payout.values()) <= budget + 1e-9
        assert all(v >= 0.0 for v in payout.values())


def test_incentives_validation():
    with pytest.raises(ValueError):
        incentives({}, budget=10.0, total_users=0)
    with pytest.raises(ValueError):
        incentives({}, budget=-1.0, total_users=5)


def test_incentive_config_validation():
    with pytest.raises(ValueError):
        IncentiveConfig(budget=-5.0)
    with pytest.raises(ValueError):
        IncentiveConfig(preference_factor=1.5)
    with pytest.raises(ValueError):
        IncentiveConfig(mechanism="Z")
    with pytest.raises(ValueError):
        IncentiveConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="positive_rs_threshold"):
        IncentiveConfig(positive_rs_threshold=1.5)
    with pytest.raises(ValueError, match="positive_rs_threshold"):
        IncentiveConfig(positive_rs_threshold=-0.1)
    assert IncentiveConfig(positive_rs_threshold=1.0).positive_rs_threshold \
        == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["budget", "preference_factor",
                                  "publish_threshold",
                                  "positive_rs_threshold", "epsilon"])
def test_incentive_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        IncentiveConfig(**{name: value})


# ---------------------------------------------------------------------------
# end-to-end scoring
# ---------------------------------------------------------------------------

def small_corpus():
    records = []
    for k in range(4):
        records.append(report(user=f"good{k}", rating=5.0, hour=3 * k,
                              street="Alder Way"))
        records.append(report(user=f"good{k}", rating=5.0, hour=3 * k + 1,
                              street="Alder Way", kind="accident"))
    records.append(report(user="bad", rating=1.0, hour=2))
    return ReportTable(records)


def test_score_corpus_covers_all_mechanisms():
    result = score_corpus(small_corpus(), IncentiveConfig())
    assert set(result.profiles) == set(MECHANISMS)
    assert set(result.payouts) == set(MECHANISMS)
    assert result.total_users == 5
    assert result.users == sorted(result.users)
    for mech in MECHANISMS:
        total = sum(result.payouts[mech].values())
        positive = sum(1 for p in result.profiles[mech].values()
                       if p.rs_norm >= 0.5)
        assert total == pytest.approx(100.0 * positive / 5, abs=1e-9)


def test_score_corpus_single_mechanism():
    result = score_corpus(small_corpus(), IncentiveConfig(),
                          mechanisms=("B",))
    assert set(result.profiles) == {"B"}


def test_ledger_csv_layout(tmp_path):
    result = score_corpus(small_corpus(), IncentiveConfig())
    path = tmp_path / "ledger.csv"
    write_ledger_csv(result, path, selected_mechanism="C")
    lines = path.read_text().splitlines()
    assert lines[0] == ("user_id,rs_raw,rs_norm,gamma_emp,"
                        "incentive_A,incentive_B,incentive_C")
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert first[0] == "bad"
    assert float(first[2]) == result.profiles["C"]["bad"].rs_norm


def test_ledger_csv_leaves_unscored_mechanisms_empty(tmp_path):
    result = score_corpus(small_corpus(), IncentiveConfig(),
                          mechanisms=("B",))
    path = tmp_path / "ledger.csv"
    write_ledger_csv(result, path, selected_mechanism="B")
    row = path.read_text().splitlines()[1].split(",")
    assert row[4] == "" and row[6] == ""
    assert row[5] != ""


def test_decisions_csv_layout(tmp_path):
    result = score_corpus(small_corpus(), IncentiveConfig())
    path = tmp_path / "decisions.csv"
    write_decisions_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "date,segment,street,event_type,confidence,decision"
    assert len(lines) > 1
    cells = lines[1].split(",")
    assert cells[0] == "2019-10-07"
    assert cells[3] in INCIDENT_TYPES


# ---------------------------------------------------------------------------
# exact reference scorer
# ---------------------------------------------------------------------------

def ref_window(record):
    return WindowIndex(record.generation_date, record.day_time.hour // 3)


def reference_stats(kept, epsilon):
    """CorpusStats from per-record loops and left-to-right sums."""
    if not kept:
        return CorpusStats(mean_rating=0.0, total_window_count=0,
                           coop_density={}, window_weight={})
    acc = 0.0
    for record in kept:
        acc += record.report_rating
    mean_rating = acc / len(kept)
    grouped = {}
    for record in kept:
        grouped.setdefault(ref_window(record), []).append(record)
    dates = [record.generation_date for record in kept]
    span_days = (max(dates) - min(dates)).days + 1
    coop_density = {}
    for window, rows in sorted(grouped.items()):
        coop = 0
        for record in rows:
            coop += record.report_rating > mean_rating
        coop_density[window] = coop / len(rows)
    raw_weight = {w: 1.0 / max(d, epsilon) for w, d in coop_density.items()}
    acc = 0.0
    for value in raw_weight.values():
        acc += value
    weight_mean = acc / len(raw_weight)
    return CorpusStats(
        mean_rating=mean_rating, total_window_count=span_days * 8,
        coop_density=coop_density,
        window_weight={w: v / weight_mean for w, v in raw_weight.items()})


def reference_profiles(kept, config, mechanism, stats, gamma_override):
    by_user = {}
    for record in kept:
        by_user.setdefault(record.uuid, []).append(record)
    profiles = {}
    for user in sorted(by_user):
        reports = by_user[user]
        active = sorted({ref_window(r) for r in reports})
        coop = sorted({ref_window(r) for r in reports
                       if r.report_rating > stats.mean_rating})
        if gamma_override is not None and user in gamma_override:
            gamma = gamma_override[user]
        elif mechanism == "A":
            gamma = 1.0
        elif mechanism == "B":
            gamma = len(coop) / stats.total_window_count
        else:
            acc = 0.0
            for window in coop:
                acc += stats.window_weight[window]
            gamma = acc / stats.total_window_count
        raw = 0.0
        for record in reports:
            raw += gamma * qoc(truthfulness(record.report_rating,
                                            config.epsilon))
        profiles[user] = UserProfile(
            user_id=user, report_count=len(reports),
            active_windows=tuple(active), coop_windows=tuple(coop),
            gamma_emp=gamma, rs_raw=raw, rs_norm=logistic(raw))
    return profiles


def reference_payouts(profiles, budget, total_users, threshold):
    positive = [u for u in sorted(profiles)
                if profiles[u].rs_norm >= threshold]
    out = {u: 0.0 for u in sorted(profiles)}
    if positive:
        pot = budget * len(positive) / total_users
        acc = 0.0
        for user in positive:
            acc += profiles[user].rs_norm
        for user in positive:
            out[user] = profiles[user].rs_norm / acc * pot
    return out


def reference_decisions(kept, profiles, config):
    grouped = {}
    for record in kept:
        grouped.setdefault(ref_window(record), []).append(record)
    rows = []
    for window, window_records in sorted(grouped.items()):
        positive = {r.uuid for r in window_records
                    if profiles[r.uuid].rs_norm
                    >= config.positive_rs_threshold}
        for street in sorted({r.street for r in window_records}):
            group = [r for r in window_records if r.street == street]
            kinds = sorted({r.incident_type for r in group})
            conf = {}
            if not positive:
                conf = {kind: 0.0 for kind in kinds}
            else:
                users = {kind: sorted({r.uuid for r in group
                                       if r.incident_type == kind})
                         for kind in kinds}
                rs_agg = {}
                for kind in kinds:
                    acc = 0.0
                    for user in users[kind]:
                        acc += profiles[user].rs_norm
                    rs_agg[kind] = acc
                total = 0.0
                for kind in kinds:
                    total += rs_agg[kind]
                nu = config.preference_factor
                for kind in kinds:
                    quantity = len(users[kind]) / len(positive)
                    quality = rs_agg[kind] / total if total > 0 else 0.0
                    conf[kind] = nu * quantity + (1.0 - nu) * quality
            kind = min(conf, key=lambda k: (-conf[k], k))
            value = conf[kind]
            decision = ("publish" if value >= config.publish_threshold
                        else "drop")
            rows.append((window.date.isoformat(), window.segment, street,
                         kind, value, decision))
    return rows


def assert_matches_reference(kept, config, total_users=None,
                             gamma_override=None):
    result = score_corpus(kept, config, total_users=total_users,
                          gamma_override=gamma_override)
    stats = reference_stats(kept, config.epsilon)
    assert result.stats == stats
    users = sorted({r.uuid for r in kept})
    assert result.users == users
    total = len(users) if total_users is None else total_users
    for mech in MECHANISMS:
        profiles = reference_profiles(kept, config, mech, stats,
                                      gamma_override)
        assert result.profiles[mech] == profiles, mech
        assert result.payouts[mech] == reference_payouts(
            profiles, config.budget, total, config.positive_rs_threshold)
        if mech == config.mechanism:
            assert result.decisions == reference_decisions(kept, profiles,
                                                           config)
    return result


def test_empty_corpus_matches_reference():
    result = assert_matches_reference(ReportTable(), IncentiveConfig(),
                                      total_users=1)
    assert result.decisions == [] and result.profiles["C"] == {}
    assert decision_rows(ReportTable(), {}, IncentiveConfig()) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_synthetic_corpora_match_reference(seed, mechanism):
    rows = synth_corpus(SynthSpec(user_count=80, day_count=4,
                                  rng_seed=seed))
    kept, _ = parse_reports(rows)
    assert_matches_reference(kept, IncentiveConfig(mechanism=mechanism))


def test_table_rebuilt_from_its_rows_scores_alike():
    table, _ = parse_reports(synth_corpus(SynthSpec(user_count=40,
                                                    day_count=3, rng_seed=8)))
    rebuilt = ReportTable(list(table))
    config = IncentiveConfig()
    assert score_corpus(rebuilt, config) == score_corpus(table, config)


def test_table_iterates_in_input_order():
    records = [report(user=u, rating=r, hour=h, object_id=f"r{k}")
               for k, (u, r, h) in enumerate([("b", 4.0, 22), ("a", 1.0, 1),
                                              ("b", 5.0, 2), ("c", 3.0, 9)])]
    table = ReportTable(records)
    assert len(table) == 4
    assert list(table) == records
    assert all(type(row) is ReportRecord for row in table)


def test_empty_table_has_no_rows():
    table = ReportTable()
    assert len(table) == 0 and not table
    assert list(table) == [] and table.users == []
    assert list(ReportTable([])) == []


def test_single_window_matches_reference():
    kept = [report(user=f"u{k}", rating=float(1 + k % 5), hour=9 + k % 3,
                   street=("Alder Way", "Birch Street")[k % 2],
                   kind=INCIDENT_TYPES[k % 4], object_id=f"r{k}")
            for k in range(12)]
    result = assert_matches_reference(ReportTable(kept), IncentiveConfig())
    assert len(result.stats.coop_density) == 1


def test_corpus_without_cooperation_matches_reference():
    # every rating equals the mean, so no report is cooperative
    kept = [report(user=f"u{k % 3}", rating=4.0, hour=k, object_id=f"r{k}")
            for k in range(10)]
    result = assert_matches_reference(ReportTable(kept),
                                      IncentiveConfig(mechanism="B"))
    assert set(result.stats.coop_density.values()) == {0.0}
    assert all(p.gamma_emp == 0.0 for p in result.profiles["C"].values())


def test_partial_gamma_override_matches_reference():
    kept, _ = parse_reports(synth_corpus(SynthSpec(user_count=20,
                                                   day_count=2, rng_seed=5)))
    override = {"u0000": 0.25, "u0003": 2, "nobody": 7.0}
    result = assert_matches_reference(kept, IncentiveConfig(),
                                      gamma_override=override)
    assert result.profiles["B"]["u0003"].gamma_emp == 2


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_extreme_publish_thresholds_match_reference(threshold):
    kept, _ = parse_reports(synth_corpus(SynthSpec(user_count=20,
                                                   day_count=2, rng_seed=6)))
    result = assert_matches_reference(
        kept, IncentiveConfig(publish_threshold=threshold))
    for row in result.decisions:
        assert (row[5] == "publish") == (row[4] >= threshold)
    if threshold == 0.0:
        assert {row[5] for row in result.decisions} == {"publish"}


def test_equal_confidence_kinds_break_to_the_first_kind():
    # two users file different kinds with equal reputations on one street
    kept = [report(user="a", rating=5.0, kind="weather_hazard"),
            report(user="b", rating=5.0, kind="jam")]
    result = assert_matches_reference(ReportTable(kept), IncentiveConfig())
    assert [row[3] for row in result.decisions] == ["jam"]


small_records = st.builds(
    report,
    user=st.sampled_from(["a", "b", "c", "d", "e"]),
    rating=st.one_of(st.sampled_from([0.5, 1.0, 2.5, 3.0, 4.0, 5.0]),
                     st.floats(0.01, 5.0)),
    hour=st.integers(0, 23),
    day=st.sampled_from([DAY, DAY + dt.timedelta(days=1),
                         DAY + dt.timedelta(days=3)]),
    street=st.sampled_from(["Alder Way", "Birch Street", "Cedar Avenue"]),
    kind=st.sampled_from(INCIDENT_TYPES))


@settings(max_examples=60, deadline=None)
@given(kept=st.lists(small_records, min_size=1, max_size=25),
       mechanism=st.sampled_from(MECHANISMS),
       preference=st.sampled_from([0.0, 0.5, 1.0, 0.3]),
       publish=st.sampled_from([0.0, 0.5, 1.0, 0.7]),
       positive=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_random_corpora_match_reference(kept, mechanism, preference,
                                        publish, positive):
    config = IncentiveConfig(mechanism=mechanism,
                             preference_factor=preference,
                             publish_threshold=publish,
                             positive_rs_threshold=positive)
    assert_matches_reference(ReportTable(kept), config)


def test_score_corpus_runs_each_stage_through_module_globals(monkeypatch):
    calls = {}

    def counted(name):
        original = getattr(crowdsense, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(crowdsense, name, wrapper)

    expected = score_corpus(small_corpus(), IncentiveConfig())
    for name in ("compute_corpus_stats", "build_profiles", "decision_rows",
                 "incentives"):
        counted(name)
    result = score_corpus(small_corpus(), IncentiveConfig())
    assert calls == {"compute_corpus_stats": 1, "build_profiles": 3,
                     "decision_rows": 1, "incentives": 3}
    assert result == expected


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def test_synthesis_is_deterministic():
    spec = SynthSpec(user_count=40, day_count=3, rng_seed=5)
    assert synth_corpus(spec) == synth_corpus(spec)
    other = synth_corpus(SynthSpec(user_count=40, day_count=3, rng_seed=6))
    assert other != synth_corpus(spec)


def test_synthetic_rows_parse_cleanly():
    rows = synth_corpus(SynthSpec(user_count=60, day_count=4, rng_seed=2))
    kept, rejections = parse_reports(rows)
    assert all(r.reason == "zero_rating" for r in rejections)
    assert len(kept) + len(rejections) == len(rows)
    dates = {r.generation_date for r in kept}
    assert max(dates) - min(dates) <= dt.timedelta(days=3)


def test_no_malicious_users_no_spam():
    spec = SynthSpec(user_count=30, day_count=3, honest_fraction=0.5,
                     selfish_fraction=0.5, rng_seed=1)
    rows = synth_corpus(spec)
    assert all(row[6] != "0.0" for row in rows)
    kept, rejections = parse_reports(rows)
    assert not rejections


def test_archetype_census():
    spec = SynthSpec(user_count=100, day_count=7, rng_seed=3)
    rows = synth_corpus(spec)
    by_user = {}
    for row in rows:
        by_user.setdefault(row[5], []).append(float(row[6]))
    assert len(by_user) == 100
    honest = [u for u, ratings in by_user.items()
              if set(ratings) == {5.0}]
    selfish = [u for u, ratings in by_user.items()
               if set(ratings) == {4.0}]
    assert len(honest) == 50
    assert len(selfish) == 30
    for user in selfish:
        assert 1 <= len(by_user[user]) <= 3
    for user in honest:
        assert 10 <= len(by_user[user]) <= 14


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(user_count=0)
    with pytest.raises(ValueError):
        SynthSpec(honest_fraction=0.8, selfish_fraction=0.4)
