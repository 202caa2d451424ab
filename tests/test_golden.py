"""Golden-output gate: tiny seeded runs must reproduce recorded outputs.

Each case runs one megt command in process and compares the SHA-256 of
every output file with the digest recorded when the case was added.  A
change that alters any trajectory, grid or network file fails here; such
a change must be declared in CHANGES.md together with the new digests.
``manifest.json`` is not compared: it records absolute input paths.

The simulation cases run on the compiled kernel.  The small networks
of most cases take the eigh path to their communicability;
``nash_series`` takes the sparse series, in one thread and in three,
and once more with a kernel cache that cannot be written, where the
kernel is built in a private temporary directory.  With no compiler on
PATH the simulating commands exit 2 and write nothing, and the others
still give their digests.
"""
from __future__ import annotations

import shutil

import pytest

import megt.comm
from megt.cli import main
from megt.manifest import load_manifest, sha256_file

EVOLVE_CONFIG = """
node_count = 40
layers = 3
topology = er
edge_probability = 0.1
homophily_sigma = 1.0
game = sd
max_rounds = 200
steady_window = 40
replicas = 2
seed = 11
"""

GENERATE_CONFIG = """
node_count = 30
layers = 2
topology = ws
ring_degree = 4
rewire_probability = 0.2
homophily_sigma = 1.5
seed = 5
"""

SWEEP_CONFIG = """
network_file = {network}
t_min = 0.5
t_max = 1.5
t_steps = 2
s_min = -0.5
s_max = 0.5
s_steps = 2
replicas = 2
max_rounds = 150
steady_window = 30
seed = 13
"""

# the sweep's networks come from the spec, one per replica
SPEC_SWEEP_CONFIG = """
node_count = 30
layers = 2
topology = er
edge_probability = 0.15
homophily_sigma = 1.0
t_min = 0.5
t_max = 1.5
t_steps = 2
s_min = -0.5
s_max = 0.5
s_steps = 2
replicas = 2
max_rounds = 150
steady_window = 30
seed = 23
"""

NASH_CONFIG = """
node_count = 30
layers = 2
topology = sf
homophily_sigma = 1.0
game = sd
max_rounds = 200
steady_window = 40
seed = 17
"""

# two rings of 100 nodes: sparse enough that the communicability
# entries come from the series, not from eigh
NASH_SERIES_CONFIG = """
node_count = 100
layers = 2
topology = ws
ring_degree = 4
rewire_probability = 0.1
homophily_sigma = 1.0
game = sd
max_rounds = 150
steady_window = 30
seed = 19
"""

SYNTH_CONFIG = """
users = 30
days = 2
honest_fraction = 0.5
selfish_fraction = 0.3
seed = 7
"""

SCORE_CONFIG = """
budget = 50.0
seed = 7
"""

GOLDEN = {
    "evolve": {
        "metrics_rep00.csv":
            "fd6d953f88926a466010d01cde8528bff775ea8c82e9bcbe3f151698f578690b",
        "metrics_rep01.csv":
            "5b010aa84ddc7fc165fa8bc7558183954de1ae3752d84cb33904bd6447598fd6",
        "rho.csv":
            "6bd88e4d6cda4b974d063914afb357ff31d05c9ca7bc804fba9a8e7c56777469",
        "rho_rep00.csv":
            "d74526037ecf6879e5f95e9474cfe112e65e9f0320027478e01915b9e6fd987e",
        "rho_rep01.csv":
            "9bedf69856b0c00b80cfe4202237b39f99c3679dbce3c781200f7e4d3bef4735",
        "state_rep00.txt":
            "f371437bb1a1584c24bc5bb9c413e99bc1202fb53f846d556b1cf509fcc92e52",
        "state_rep01.txt":
            "2dd05981ea6b6c3e3abbf596b7b2ee02762bddf7a4b14cd93dbf61ca09778f0e",
    },
    "generate": {
        "net.mplex":
            "1dd22648e3fe5cf217e3b61eec559620fc2b72f9bffd5d4ba73b8ae19d45b219",
    },
    "sweep": {
        "grid.csv":
            "21e34aa429d4df2257b5e1cbc38006bef1747dc1f3857ab411b94d0be923a20e",
    },
    "spec_sweep": {
        "grid.csv":
            "88855e5fc237c8ef2bb5fe14ed9196c2077fb2483ba6d5671973c14869e71ef2",
    },
    "nash": {
        "alpha.csv":
            "661035fa724700cf551ae325544bd7f323d171d127d2813283ca8862fddb4923",
        "rho.csv":
            "ae99716fe9b81793f1640ea4d0ba15044f312c0e937affd8ee7096aa61915a06",
    },
    "nash_series": {
        "alpha.csv":
            "d576941024f71cdb353fce261765a8d4468190a6bdc1f8dbc3312bd2d38fc24c",
        "rho.csv":
            "b5307ab45693cabe7a8e5d9b2dc94aae5b6ff5470a6df5d49b49349489658b24",
    },
    "synth": {
        "reports.csv":
            "cf7547df86ab94abc881928eae159a6449658677fd60abdb39c12ad542673020",
    },
    "score": {
        "decisions.csv":
            "29a684d82a85ef00ce8418768eee2041d120b16a46676e251f7a404363ca0aab",
        "ledger.csv":
            "3976dbc6eeda4e9e0987c44bf5b5ded0f0bb11b0289c97d47c0b4e73abc3bcca",
    },
}


def _run(tmp_path, command, config_text, *extra):
    outdir = tmp_path / command
    config = tmp_path / f"{command}.cfg"
    config.write_text(config_text)
    assert main([command, "--config", str(config),
                 "--outdir", str(outdir), *extra]) == 0
    return outdir


def _digests(outdir):
    return {path.name: sha256_file(path)
            for path in sorted(outdir.iterdir())
            if path.name != "manifest.json"}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MEGT_SEED", raising=False)


@pytest.mark.parametrize("command, config_text", [
    ("evolve", EVOLVE_CONFIG),
    ("generate", GENERATE_CONFIG),
    ("nash", NASH_CONFIG),
    ("synth", SYNTH_CONFIG),
], ids=["evolve", "generate", "nash", "synth"])
def test_golden_outputs(tmp_path, command, config_text):
    assert _digests(_run(tmp_path, command, config_text)) == GOLDEN[command]


def test_golden_sweep_on_network_file(tmp_path):
    network = _run(tmp_path, "generate", GENERATE_CONFIG) / "net.mplex"
    assert sha256_file(network) == GOLDEN["generate"]["net.mplex"]
    outdir = _run(tmp_path, "sweep", SWEEP_CONFIG.format(network=network))
    assert _digests(outdir) == GOLDEN["sweep"]


def test_golden_sweep_on_a_spec(tmp_path):
    outdir = _run(tmp_path, "sweep", SPEC_SWEEP_CONFIG)
    assert _digests(outdir) == GOLDEN["spec_sweep"]


def test_golden_score_on_synth_corpus(tmp_path):
    reports = _run(tmp_path, "synth", SYNTH_CONFIG) / "reports.csv"
    assert sha256_file(reports) == GOLDEN["synth"]["reports.csv"]
    outdir = _run(tmp_path, "score", SCORE_CONFIG, "--reports", str(reports))
    assert _digests(outdir) == GOLDEN["score"]


@pytest.mark.parametrize("command", ["evolve", "nash", "sweep"])
def test_golden_simulations_without_a_compiler(tmp_path, command, capsys,
                                               without_cc):
    # the golden configs of the simulating commands exit 2, name the
    # missing compiler and write no output
    config = tmp_path / f"{command}.cfg"
    config.write_text({"evolve": EVOLVE_CONFIG, "nash": NASH_CONFIG,
                       "sweep": SWEEP_CONFIG.format(network="absent")
                       }[command])
    outdir = tmp_path / command
    assert main([command, "--config", str(config),
                 "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert f"{command} needs the compiled kernel" in err
    assert "no C compiler (cc) on PATH" in err
    assert not outdir.exists()


def test_golden_network_and_corpus_commands_without_a_compiler(tmp_path,
                                                               without_cc):
    network = _run(tmp_path, "generate", GENERATE_CONFIG) / "net.mplex"
    assert sha256_file(network) == GOLDEN["generate"]["net.mplex"]
    reports = _run(tmp_path, "synth", SYNTH_CONFIG) / "reports.csv"
    assert sha256_file(reports) == GOLDEN["synth"]["reports.csv"]
    outdir = _run(tmp_path, "score", SCORE_CONFIG, "--reports", str(reports))
    assert _digests(outdir) == GOLDEN["score"]


@pytest.mark.parametrize("cache", ["default", "unwritable-cache"])
def test_golden_nash_on_the_series_path(tmp_path, request, cache):
    if cache == "unwritable-cache":
        private = request.getfixturevalue("unwritable_cache")
    outdir = _run(tmp_path, "nash", NASH_SERIES_CONFIG)
    assert _digests(outdir) == GOLDEN["nash_series"]
    extra = load_manifest(outdir / "manifest.json").extra
    assert extra["communicability"]["method"] == "series"
    if cache == "unwritable-cache":
        # the private build directory is gone, library and all
        assert list(private.iterdir()) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_golden_nash_on_the_series_path_in_three_threads(tmp_path,
                                                          monkeypatch):
    # its 25 panels take one thread unless told otherwise
    monkeypatch.setattr(megt.comm, "_series_threads", lambda cpus, panels: 3)
    outdir = _run(tmp_path, "nash", NASH_SERIES_CONFIG)
    assert _digests(outdir) == GOLDEN["nash_series"]
    extra = load_manifest(outdir / "manifest.json").extra
    assert extra["communicability"]["threads"] == 3
