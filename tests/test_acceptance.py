"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion NN ...: PASS/FAIL`` line (visible
under ``pytest -s`` and in failure output) and then asserts. The
simulation-based criteria pin master seeds so every figure reproduced
here is bit-stable across runs.
"""
from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from megt.comm import build_supra, matrix_exp
from megt.crowdsense import (
    IncentiveConfig,
    SynthSpec,
    incentives,
    qoc,
    read_reports_csv,
    score_corpus,
    synth_corpus,
    REPORT_COLUMNS,
)
from megt.equilibrium import EquilibriumTracker, nash_report
from megt.evolve import (
    SimulationConfig,
    replica_network,
    run,
    run_replicas,
)
from megt.games import COOPERATE, from_ts, pd_from_bc
from megt.metrics import behaviour_stats
from megt.netgen import LayerTopology, MultiplexSpec, build_multiplex

from conftest import megt_env
from oracles import fermi_probability

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def steady_rhos(game, topologies, layers, sigma, seed, replicas=10,
                max_rounds=5000, omega=0.5) -> np.ndarray:
    spec = MultiplexSpec(
        node_count=200,
        layer_count=layers,
        topologies=topologies,
        homophily_sigma=sigma,
        rng_seed=seed,
    )
    config = SimulationConfig(game=game, spec=spec, interlayer_strength=omega,
                              max_rounds=max_rounds, replicas=replicas,
                              rng_seed=seed)
    return np.array([r.trajectory.steady_rho for r in run_replicas(config)])


# ---------------------------------------------------------------------------
# 1. communicability oracle
# ---------------------------------------------------------------------------

def test_criterion_01_communicability_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst = 0.0
    worst_bound = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        spec = MultiplexSpec(
            node_count=n,
            layer_count=2,
            topologies=[LayerTopology.er(0.3)] * 2,
            homophily_sigma=3.0,
            rng_seed=int(rng.integers(0, 2**31)),
        )
        supra = build_supra(build_multiplex(spec), 0.3)

        # independent oracle: explicit 20-term Taylor sum of exp
        series = np.eye(len(supra))
        term = np.eye(len(supra))
        for k in range(1, 21):
            term = term @ supra / k
            series += term

        # soundness of the oracle itself: the truncation remainder of the
        # series after the 20th power is bounded well inside the tolerance
        norm = float(np.abs(supra).sum(axis=0).max())
        bound = norm ** 21 / math.factorial(21) / (1.0 - norm / 22.0)
        worst_bound = max(worst_bound, bound)

        worst = max(worst, float(np.abs(matrix_exp(supra) - series).max()))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-8 and worst_bound < 1e-9 and elapsed < 5.0
    announce(1, "communicability oracle", ok,
             f"max |exp - series| = {worst:.2e} over 20 multiplexes, "
             f"series remainder <= {worst_bound:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert worst_bound < 1e-9, "oracle itself out of tolerance"
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Fermi properties
# ---------------------------------------------------------------------------

def test_criterion_02_fermi_properties():
    equal_half = fermi_probability(2.5, 2.5, distance=1.3, selection_intensity=0.1)
    equal_scaled = fermi_probability(-1.0, -1.0, distance=0.4,
                                     selection_intensity=0.1, scaling=0.8)

    # payoff gaps kept inside the exponential's unsaturated region so the
    # 100 probabilities are all distinct floats
    gaps = np.linspace(-0.7, 0.7, 100)
    sweep = np.array([
        fermi_probability(g, 0.0, distance=1.0, selection_intensity=0.1)
        for g in gaps
    ])
    monotone = bool(np.all(np.diff(sweep) < 0))

    # fixed payoffs P_i < P_j: shrinking the pair distance sharpens the
    # probability of adopting the better strategy
    close = fermi_probability(0.0, 1.0, distance=0.5, selection_intensity=0.1)
    far = fermi_probability(0.0, 1.0, distance=2.0, selection_intensity=0.1)

    ok = equal_half == 0.5 and equal_scaled == 0.4 and monotone and close > far
    announce(2, "Fermi properties", ok,
             f"W(equal)={equal_half}, scaled={equal_scaled}, "
             f"monotone over 100 pts={monotone}, "
             f"W(d=0.5)={close:.6f} > W(d=2)={far:.6f}")
    assert equal_half == 0.5
    assert equal_scaled == 0.4
    assert monotone
    assert close > far


# ---------------------------------------------------------------------------
# 3. harmony-game total cooperation
# ---------------------------------------------------------------------------

def test_criterion_03_harmony_total_cooperation():
    started = time.perf_counter()
    hg = from_ts(0.5, 0.5)
    results = {}
    for label, topology in (
        ("sf", LayerTopology.sf(2)),
        ("er", LayerTopology.er(0.05)),
        ("sw", LayerTopology.ws(4, 0.1)),
    ):
        results[label] = steady_rhos(hg, [topology] * 2, 2, 1.0, seed=0)
    elapsed = time.perf_counter() - started

    mins = {label: float(r.min()) for label, r in results.items()}
    ok = all(m >= 0.95 for m in mins.values()) and elapsed < 600.0
    announce(3, "HG total cooperation", ok,
             f"min steady rho per topology {mins} over 10 replicas each, "
             f"{elapsed:.1f}s")
    for label, rhos in results.items():
        assert (rhos >= 0.95).all(), f"{label}: {rhos}"
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 4. homophily effect
# ---------------------------------------------------------------------------

def test_criterion_04_homophily_effect():
    pd = pd_from_bc(1.2, 0.2)
    tight = steady_rhos(pd, [LayerTopology.sf(2)] * 2, 2, sigma=1.0, seed=2024)
    loose = steady_rhos(pd, [LayerTopology.sf(2)] * 2, 2, sigma=8.0, seed=2024)
    margin = float(tight.mean() - loose.mean())

    ok = margin >= 0.05
    announce(4, "homophily effect", ok,
             f"mean rho sigma=1 {tight.mean():.4f} vs sigma=8 "
             f"{loose.mean():.4f}, margin {margin:+.4f} (need >= 0.05)")
    assert margin >= 0.05


# ---------------------------------------------------------------------------
# 5. layer effect
# ---------------------------------------------------------------------------

def test_criterion_05_layer_effect():
    sd = from_ts(1.6, 0.3)
    sparse = LayerTopology.er(4 / 199)
    two = steady_rhos(sd, [sparse] * 2, 2, sigma=1.0, seed=2024,
                      max_rounds=2500)
    seven = steady_rhos(sd, [sparse] * 7, 7, sigma=1.0, seed=2024,
                        max_rounds=2500)
    margin = float(seven.mean() - two.mean())

    ok = margin >= 0.05
    announce(5, "layer effect", ok,
             f"mean rho M=7 {seven.mean():.4f} vs M=2 {two.mean():.4f}, "
             f"margin {margin:+.4f} (need >= 0.05)")
    assert margin >= 0.05


# ---------------------------------------------------------------------------
# 6. topology ordering
# ---------------------------------------------------------------------------

def test_criterion_06_topology_ordering():
    pd = from_ts(1.2, -0.2)
    means = {}
    for label, topology in (
        ("sf", LayerTopology.sf(2)),          # <k> ~ 4
        ("er", LayerTopology.er(4 / 199)),    # <k> = 4
        ("sw", LayerTopology.ws(4, 0.1)),     # k = 4
    ):
        means[label] = float(
            steady_rhos(pd, [topology] * 2, 2, sigma=1.0, seed=2024).mean())

    ok = means["sf"] > means["sw"] and means["sf"] > means["er"]
    announce(6, "topology ordering", ok,
             f"mean rho at matched <k>=4: {means}")
    assert means["sf"] > means["sw"]
    assert means["sf"] > means["er"]


# ---------------------------------------------------------------------------
# 7. Nash suite
# ---------------------------------------------------------------------------

def plateau_windows(alphas: np.ndarray, length=50, drop=0.05,
                    level_tol=0.01, cap=10) -> list[tuple[int, float]]:
    """Windows of ``length`` rounds sitting wholly >= ``drop`` below the
    final alpha whose level changes by < ``level_tol`` across the window
    (first ``cap`` rounds vs last ``cap`` rounds)."""
    final = alphas[-1]
    hits = []
    for i in range(len(alphas) - length + 1):
        window = alphas[i : i + length]
        if window.max() <= final - drop and \
                abs(window[:cap].mean() - window[-cap:].mean()) < level_tol:
            hits.append((i, float(window.mean())))
    return hits


def test_criterion_07_nash_suite():
    # analytic halves on a fixed small multiplex
    net = build_multiplex(MultiplexSpec(
        node_count=8, layer_count=2,
        topologies=[LayerTopology.er(0.5)] * 2,
        homophily_sigma=1.0, rng_seed=5,
    ))
    all_c = np.full((2, 8), COOPERATE)
    alpha_hg = nash_report(all_c, net, from_ts(0.5, 0.5)).alpha
    alpha_pd = nash_report(all_c, net, from_ts(1.5, -0.5)).alpha

    # dynamic phase structure: defection-dominant run with a metastable
    # mixed phase before the terminal all-defect state
    seed = 1
    spec = MultiplexSpec(node_count=200, layer_count=2,
                         topologies=[LayerTopology.sf(2)] * 2,
                         homophily_sigma=1.0, rng_seed=seed)
    config = SimulationConfig(game=from_ts(1.4, -0.4), spec=spec,
                              max_rounds=3000, rng_seed=seed)
    network = replica_network(config)
    config = dataclasses.replace(config, spec=None, network=network)
    tracker = EquilibriumTracker(network, config.game)
    result = run(config, tracker=tracker)
    alphas = np.array([alpha for (_, alpha, _) in tracker.history])
    hits = plateau_windows(alphas)

    ok = alpha_hg == 1.0 and alpha_pd == 0.0 and result.trajectory.converged \
        and len(hits) > 0
    level = f"{hits[0][1]:.3f}" if hits else "n/a"
    announce(7, "Nash suite", ok,
             f"all-C HG alpha={alpha_hg}, all-C PD alpha={alpha_pd}; "
             f"run of {result.trajectory.rounds} rounds: {len(hits)} plateau "
             f"windows (first level {level}) below final "
             f"alpha={alphas[-1]:.3f}")
    assert alpha_hg == 1.0
    assert alpha_pd == 0.0
    assert result.trajectory.converged
    assert hits, "no >=50-round plateau >=0.05 below final alpha"


# ---------------------------------------------------------------------------
# 8. estimator identities
# ---------------------------------------------------------------------------

def test_criterion_08_estimator_identities():
    config = SimulationConfig(
        game=from_ts(1.4, 0.4),
        spec=MultiplexSpec(node_count=120, layer_count=2,
                           topologies=[LayerTopology.sf(2)] * 2,
                           homophily_sigma=1.0, rng_seed=9),
        max_rounds=800,
        rng_seed=9,
    )
    result = run(config)
    stats = behaviour_stats(result.state, result.network)
    gamma = np.asarray(stats.honesty)
    reputation = np.asarray(stats.reputation)

    in_range = bool(np.isfinite(gamma).all()
                    and (gamma >= 0.0).all() and (gamma <= 1.0).all())
    qoi_gap = abs(stats.quality - float(np.mean(gamma)))
    rep_gap = abs(float(np.mean(reputation)) - 1.0)

    ok = in_range and qoi_gap == 0.0 and stats.quality > 0 and rep_gap <= 1e-12
    announce(8, "estimator identities", ok,
             f"gamma in [0,1]={in_range}, |QoI - mean(gamma)|={qoi_gap:.1e}, "
             f"QoI={stats.quality:.4f}, |mean(R)-1|={rep_gap:.2e}")
    assert in_range
    assert qoi_gap == 0.0
    assert stats.quality > 0
    assert rep_gap <= 1e-12


# ---------------------------------------------------------------------------
# 9. crowdsense unit oracle
# ---------------------------------------------------------------------------

def test_criterion_09_crowdsense_oracle():
    zero = qoc(0.5)

    rng = np.random.default_rng(31)
    taus = rng.uniform(0.01, 0.99, size=50)
    anti = float(max(abs(qoc(t) + qoc(1.0 - t)) for t in taus))

    worst_gap = 0.0
    for ledger_index in range(20):
        user_count = int(rng.integers(5, 60))
        total = user_count + int(rng.integers(0, 40))
        budget = float(rng.uniform(10.0, 500.0))
        rs_norm = rng.uniform(0.0, 1.0, size=user_count)
        payouts = incentives(rs_norm, budget, total)
        positive = int(np.count_nonzero(rs_norm >= 0.5))
        expected = budget * positive / total
        worst_gap = max(worst_gap, abs(sum(payouts.tolist()) - expected))

    ok = zero == 0.0 and anti <= 1e-12 and worst_gap <= 1e-9
    announce(9, "crowdsense oracle", ok,
             f"qoc(0.5)={zero}, max |qoc(t)+qoc(1-t)|={anti:.1e} over 50 "
             f"draws, worst budget-conservation gap {worst_gap:.2e} over "
             f"20 ledgers")
    assert zero == 0.0
    assert anti <= 1e-12
    assert worst_gap <= 1e-9


# ---------------------------------------------------------------------------
# 10. mechanism differentiation on the bundled corpus
# ---------------------------------------------------------------------------

def test_criterion_10_mechanism_differentiation():
    started = time.perf_counter()
    bundled = DATA_DIR / "synthetic_reports.csv"

    # the bundled corpus must be exactly what the generator produces
    regenerated = ",".join(REPORT_COLUMNS) + "\n" + "".join(
        ",".join(row) + "\n" for row in synth_corpus(SynthSpec(rng_seed=0)))
    assert bundled.read_text() == regenerated, "bundled corpus drifted"

    kept, _ = read_reports_csv(bundled)
    contributing = {record.uuid for record in kept}
    result = score_corpus(kept, IncentiveConfig(),
                          mechanisms=("A", "B", "C"), total_users=300)

    counts = {
        mech: len({round(value, 9) for value in result.payouts[mech].tolist()})
        for mech in ("A", "B", "C")
    }
    densities = {round(d, 12) for d in result.stats.coop_density.tolist()}
    elapsed = time.perf_counter() - started

    ok = (len(contributing) == 300
          and counts["A"] < counts["B"] <= counts["C"]
          and counts["A"] <= 5
          and (len(densities) <= 1 or counts["C"] > counts["B"])
          and elapsed < 30.0)
    announce(10, "mechanism differentiation", ok,
             f"distinct payout levels {counts}, {len(contributing)}/300 users "
             f"contribute, {len(densities)} distinct window densities, "
             f"{elapsed:.2f}s")
    assert len(contributing) == 300
    assert counts["A"] < counts["B"] <= counts["C"], counts
    assert counts["A"] <= 5
    assert len(densities) > 1, "bundled corpus lost density variation"
    assert counts["C"] > counts["B"], counts
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 11. manifest replay determinism
# ---------------------------------------------------------------------------

BASE_CFG = """\
seed = 11
node_count = 24
layers = 2
topology = er
edge_probability = 0.15
game = ts
T = 1.3
S = 0.3
replicas = 2
max_rounds = 50
steady_window = 20
t_min = 0.5
t_max = 1.5
t_steps = 2
s_min = -0.5
s_max = 0.5
s_steps = 2
users = 40
days = 3
"""


def cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "megt.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=megt_env(),
    )


def test_criterion_11_replay_determinism(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(BASE_CFG)

    commands: dict[str, list[str]] = {
        "generate": ["generate", "--config", str(cfg)],
        "evolve": ["evolve", "--config", str(cfg)],
        "sweep": ["sweep", "--config", str(cfg)],
        "nash": ["nash", "--config", str(cfg)],
        "synth": ["synth", "--config", str(cfg)],
    }

    outcomes = {}
    for name, args in commands.items():
        outdir = tmp_path / name
        proc = cli([*args, "--outdir", str(outdir)], tmp_path)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"

    score_out = tmp_path / "score"
    proc = cli(["score", "--config", str(cfg), "--reports",
                str(tmp_path / "synth" / "reports.csv"),
                "--outdir", str(score_out)], tmp_path)
    assert proc.returncode == 0, f"score: {proc.stderr}"

    for name in [*commands, "score"]:
        manifest = tmp_path / name / "manifest.json"
        replay_dir = tmp_path / f"{name}_replay"
        proc = cli(["replay", str(manifest), "--outdir", str(replay_dir)],
                   tmp_path)
        outcomes[name] = (proc.returncode == 0
                          and "replay ok" in proc.stdout)
        assert proc.returncode == 0, f"replay {name}: {proc.stderr}"
        assert "replay ok" in proc.stdout, f"replay {name}: {proc.stdout}"

    ok = all(outcomes.values())
    announce(11, "replay determinism", ok,
             f"byte-identical replays for {sorted(outcomes)}")
    assert ok
