import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import megt
import megt.cli
import megt.comm
import megt.evolve
import megt.netgen
from megt.cli import _quartiles, build_parser, main
from megt.manifest import load_manifest, sha256_file

from conftest import megt_env

# RunResult.phase_s keys, copied into the evolve and nash manifests
PHASES = {"network", "communicability", "setup", "rounds"}

BASE_CONFIG = """
node_count = 20
layers = 2
topology = er
edge_probability = 0.2
homophily_sigma = 1.0
game = sd
max_rounds = 40
steady_window = 20
seed = 7
"""


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MEGT_SEED", raising=False)


def write_config(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(BASE_CONFIG + extra)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# parser-level behaviour
# ---------------------------------------------------------------------------

def test_no_subcommand_exits_2(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().out


def test_print_defaults_lists_keys(capsys):
    assert run_cli("--print-defaults") == 0
    out = capsys.readouterr().out
    for key in ("node_count", "homophily_sigma", "budget", "mechanism"):
        assert key in out


def test_version_subprocess():
    proc = subprocess.run([sys.executable, "-m", "megt.cli", "--version"],
                          capture_output=True, text=True, env=megt_env())
    assert proc.returncode == 0
    assert proc.stdout == f"megt {megt.__version__}\n"


def test_subprocess_imports_the_suites_megt(tmp_path):
    # Subprocess tests are only meaningful if the child runs the code
    # under test; check that from a directory where no relative path helps.
    proc = subprocess.run(
        [sys.executable, "-c", "import megt; print(megt.__file__)"],
        capture_output=True, text=True, cwd=tmp_path, env=megt_env())
    assert proc.returncode == 0, f"child could not import megt: {proc.stderr}"
    child = Path(proc.stdout.strip()).resolve()
    parent = Path(megt.__file__).resolve()
    assert child == parent, (
        f"child process imported {child}, the suite imported {parent}")


COMMANDS = ("generate", "evolve", "sweep", "nash", "score", "synth",
            "replay")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as stop:
        run_cli("--help")
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("    ") and line.split()[0] in COMMANDS]
    assert listed == list(COMMANDS)


def test_an_unknown_command_names_every_command(capsys):
    with pytest.raises(SystemExit) as stop:
        run_cli("nosuch")
    assert stop.value.code == 2
    choices = ", ".join(repr(name) for name in COMMANDS)
    assert (f"megt: error: argument subcommand: invalid choice: 'nosuch' "
            f"(choose from {choices})") in capsys.readouterr().err


def test_command_help_prints_its_usage(capsys, monkeypatch):
    built = []
    full = megt.cli.build_parser
    monkeypatch.setattr(megt.cli, "build_parser",
                        lambda command=None: built.append(command)
                        or full(command))
    with pytest.raises(SystemExit) as stop:
        run_cli("sweep", "--help")
    assert stop.value.code == 0
    assert built == ["sweep"]
    out = capsys.readouterr().out
    assert out.startswith("usage: megt sweep [-h] --config CONFIG")
    assert "at most JOBS runs at once" in out and "threads" in out


@pytest.mark.parametrize("argv", [
    ["generate", "--config", "c.cfg"],
    ["evolve", "--config", "c.cfg", "--jobs", "3", "--seed", "4"],
    ["sweep", "--config", "c.cfg", "--outdir", "out"],
    ["nash", "--config", "c.cfg"],
    ["score", "--reports", "r.csv", "--config", "c.cfg", "--mechanism", "B"],
    ["synth", "--config", "c.cfg"],
    ["replay", "manifest.json", "--jobs", "2"]], ids=COMMANDS)
def test_one_command_parser_parses_as_the_full_one(argv):
    # main builds only the named command's subparser
    one, full = build_parser(argv[0]), build_parser()
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
    assert one.format_usage() == full.format_usage()


def test_an_error_after_the_command_prints_the_full_usage(capsys):
    with pytest.raises(SystemExit) as stop:
        run_cli("sweep", "--config", "c.cfg", "extra")
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err == (build_parser().format_usage()
                   + "megt: error: unrecognized arguments: extra\n")


def test_rounds_quartiles_equal_numpy_percentile():
    rng = np.random.default_rng(31)
    for length in range(1, 61):
        for high in (2, 7, 100, 5000):
            values = rng.integers(0, high, length).tolist()
            assert (_quartiles(values)
                    == np.percentile(values, (25, 50, 75)).tolist())


CHILD_MAIN = """
import sys
from megt.cli import main
status = main(sys.argv[1:])
print(status, "numpy.ma" in sys.modules)
"""


def test_sweep_nash_and_score_do_not_import_numpy_ma(tmp_path):
    # np.percentile and a flagless np.unique import numpy.ma, 13-15 ms of
    # a small sweep
    cfg = write_config(tmp_path, "t_steps = 2\ns_steps = 2\n")
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "net")) == 0
    fixed = write_config(
        tmp_path, f"network_file = {tmp_path / 'net' / 'net.mplex'}\n"
                  "t_steps = 2\ns_steps = 2\n", name="fixed.cfg")
    reports = synth_corpus_file(tmp_path)
    for argv in (["sweep", "--config", fixed], ["nash", "--config", cfg],
                 ["score", "--reports", str(reports), "--config", cfg]):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_MAIN, *argv,
             "--outdir", str(tmp_path / argv[0])],
            capture_output=True, text=True, env=megt_env(), timeout=120)
        assert proc.stdout.split() == ["0", "False"], (argv[0], proc.stderr)


# ---------------------------------------------------------------------------
# configuration errors (exit 2, message names the key)
# ---------------------------------------------------------------------------

def test_unknown_config_key_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, "no_such_knob = 3\n")
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 2
    assert "no_such_knob" in capsys.readouterr().err


def test_bad_config_value_names_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "node_count = many\n")
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "node_count" in err and "many" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key, command", [
    ("selection_intensity", ["evolve"]),
    ("steady_tolerance", ["evolve"]),
    ("budget", ["score", "--reports", "absent.csv"]),
], ids=["selection_intensity", "steady_tolerance", "budget"])
def test_non_finite_config_float_names_the_key(tmp_path, capsys, key,
                                               command, value):
    # nan passes every <= check: it froze the dynamics, never converged,
    # or wrote nan incentives
    cfg = write_config(tmp_path, f"{key} = {value}\n")
    assert run_cli(*command, "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("generate", "--config", str(tmp_path / "absent.cfg"),
                   "--outdir", str(tmp_path / "out")) == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_topology_layer_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, "topology = er,er,er\n")
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 2
    assert "topology" in capsys.readouterr().err


def test_scale_free_layer_with_too_few_nodes_names_node_count(tmp_path,
                                                             capsys):
    # the default seed clique has attachment_count + 1 = 3 nodes
    cfg = write_config(tmp_path, "topology = sf\nnode_count = 2\n")
    for command in ("generate", "evolve"):
        assert run_cli(command, "--config", cfg,
                       "--outdir", str(tmp_path / command)) == 2
        err = capsys.readouterr().err
        assert "node_count=2" in err and "attachment_count=2" in err
        assert "seed_clique_size" not in err


def test_homophily_sigma_whose_distances_overflow_names_it(tmp_path,
                                                          capsys):
    # 1e308 is finite, but some of its |Normal(0, sigma)| draws overflow
    cfg = write_config(tmp_path, "homophily_sigma = 1e308\n")
    for command in ("generate", "evolve"):
        assert run_cli(command, "--config", cfg,
                       "--outdir", str(tmp_path / command)) == 2
        assert "homophily sigma 1e+308" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_invalid_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MEGT_SEED", "not-a-number")
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 2
    assert "MEGT_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "evolve"])
@pytest.mark.parametrize("source, name", [("config", "config key 'seed'"),
                                          ("env", "MEGT_SEED"),
                                          ("flag", "--seed")])
def test_negative_seed_is_a_config_error_naming_its_source(
        tmp_path, capsys, monkeypatch, command, source, name):
    cfg = write_config(tmp_path, "seed = -3\n" if source == "config" else "")
    flags = ("--seed", "-3") if source == "flag" else ()
    if source == "env":
        monkeypatch.setenv("MEGT_SEED", "-3")
    assert run_cli(command, "--config", cfg, "--outdir",
                   str(tmp_path / "out"), *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err and "-3" in err


@pytest.mark.parametrize("argv, jobs, mechanism", [
    (["generate"], 1, "all"), (["evolve"], None, "all"),
    (["evolve", "--jobs", "3"], 3, "all"),
    (["score", "--reports", "r.csv", "--mechanism", "B"], 1, "B"),
    (["score", "--reports", "r.csv"], 1, "all")])
def test_every_command_parses_jobs_and_mechanism(argv, jobs, mechanism):
    args = build_parser().parse_args([*argv, "--config", "c.cfg"])
    assert (args.jobs, args.mechanism) == (jobs, mechanism)
    replay = build_parser().parse_args(["replay", "manifest.json"])
    assert (replay.jobs, replay.mechanism) == (None, "all")


@pytest.mark.parametrize("command", ["evolve", "sweep", "replay"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(command, jobs, capsys):
    # a cap of no threads would otherwise run on every CPU
    first = "manifest.json" if command == "replay" else "--config=c.cfg"
    with pytest.raises(SystemExit) as stop:
        run_cli(command, first, "--jobs", jobs)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"megt {command}: error: argument --jobs: must be >= 1, " \
           f"got {jobs}" in err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_network_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("generate", "--config", cfg, "--outdir", str(outdir)) == 0
    net = outdir / "net.mplex"
    assert net.is_file()
    manifest = load_manifest(outdir / "manifest.json")
    assert manifest.command == "generate"
    assert manifest.seed == 7
    assert manifest.outputs["net.mplex"] == sha256_file(net)
    assert manifest.config["node_count"] == 20


def test_generate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    for name in ("a", "b"):
        assert run_cli("generate", "--config", cfg,
                       "--outdir", str(tmp_path / name)) == 0
    assert (tmp_path / "a/net.mplex").read_bytes() == \
        (tmp_path / "b/net.mplex").read_bytes()


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)  # config seed = 7

    def generate(outname, *extra):
        assert run_cli("generate", "--config", cfg,
                       "--outdir", str(tmp_path / outname), *extra) == 0
        return (tmp_path / outname / "net.mplex").read_bytes()

    from_config = generate("cfg_seed")
    monkeypatch.setenv("MEGT_SEED", "8")
    from_env = generate("env_seed")
    assert from_env != from_config
    # explicit flag outranks the environment
    from_flag = generate("flag_seed", "--seed", "7")
    assert from_flag == from_config
    manifest = load_manifest(tmp_path / "env_seed" / "manifest.json")
    assert manifest.seed == 8


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_single_replica_outputs(tmp_path):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("evolve", "--config", cfg, "--outdir", str(outdir)) == 0
    for name in ("rho.csv", "state.txt", "metrics.csv", "manifest.json"):
        assert (outdir / name).is_file()
    rho_lines = (outdir / "rho.csv").read_text().splitlines()
    assert rho_lines[0] == "round,rho"
    manifest = load_manifest(outdir / "manifest.json")
    assert len(manifest.extra["steady_rho"]) == 1
    assert len(manifest.extra["stop_reason"]) == 1
    assert set(manifest.outputs) == {"rho.csv", "state.txt", "metrics.csv"}


def test_evolve_replica_file_census(tmp_path):
    cfg = write_config(tmp_path, "replicas = 3\n")
    outdir = tmp_path / "out"
    assert run_cli("evolve", "--config", cfg, "--outdir", str(outdir)) == 0
    manifest = load_manifest(outdir / "manifest.json")
    expected = {"rho.csv"}
    for r in range(3):
        expected |= {f"rho_rep{r:02d}.csv", f"state_rep{r:02d}.txt",
                     f"metrics_rep{r:02d}.csv"}
    assert set(manifest.outputs) == expected
    assert len(manifest.extra["steady_rho"]) == 3
    # per replica: the adoptions counted and where the wall time went,
    # kept out of the checksummed outputs
    assert [type(count) for count in manifest.extra["adoptions"]] == [int] * 3
    assert all(count >= 0 for count in manifest.extra["adoptions"])
    assert len(manifest.extra["phase_s"]) == 3
    for phases in manifest.extra["phase_s"]:
        assert set(phases) == PHASES
        assert all(0.0 <= value < 60.0 for value in phases.values())
    assert "manifest.json" not in manifest.outputs


def test_evolve_jobs_flag_does_not_change_results(tmp_path):
    cfg = write_config(tmp_path, "replicas = 2\n")
    for name, jobs in (("seq", "1"), ("par", "2")):
        assert run_cli("evolve", "--config", cfg,
                       "--outdir", str(tmp_path / name), "--jobs", jobs) == 0
    for filename in ("rho.csv", "rho_rep00.csv", "rho_rep01.csv"):
        assert (tmp_path / "seq" / filename).read_bytes() == \
            (tmp_path / "par" / filename).read_bytes()
    for name, jobs in (("seq", 1), ("par", 2)):
        extra = load_manifest(tmp_path / name / "manifest.json").extra
        assert extra["run_threads"] == megt.evolve.run_threads(jobs, 2)


@pytest.mark.parametrize("extra", [
    "initial_coop_fraction = 0.0\n",  # absorbing from the first state
    "edge_probability = 0.0\n",  # no slot has a neighbour
])
def test_evolve_without_rounds_writes_missing_metrics(tmp_path, extra):
    cfg = write_config(tmp_path, extra)
    outdir = tmp_path / "out"
    assert run_cli("evolve", "--config", cfg, "--outdir", str(outdir)) == 0
    assert (outdir / "rho.csv").read_text().count("\n") == 2
    lines = (outdir / "metrics.csv").read_text().splitlines()
    assert lines == (["node,gamma,reputation"]
                     + [f"{node},," for node in range(20)] + ["qoi="])


def test_evolve_from_network_file(tmp_path):
    cfg = write_config(tmp_path)
    netdir = tmp_path / "net"
    assert run_cli("generate", "--config", cfg, "--outdir", str(netdir)) == 0
    net_path = netdir / "net.mplex"
    cfg2 = write_config(tmp_path, f"network_file = {net_path}\n",
                        name="fixed.cfg")
    outdir = tmp_path / "out"
    assert run_cli("evolve", "--config", cfg2, "--outdir", str(outdir)) == 0
    manifest = load_manifest(outdir / "manifest.json")
    assert str(net_path) in manifest.inputs
    assert manifest.inputs[str(net_path)] == sha256_file(net_path)


def test_evolve_corrupt_network_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "net.mplex"
    bad.write_text("multiplex v1 2 1\ngarbage\n")
    cfg = write_config(tmp_path, f"network_file = {bad}\n")
    assert run_cli("evolve", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    assert "line 2" in capsys.readouterr().err


def test_evolve_nan_weight_in_network_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "net.mplex"
    bad.write_text("multiplex v1 2 1\n0 0 1 nan\ndelta 0 1 0.5\n")
    cfg = write_config(tmp_path, f"network_file = {bad}\n")
    assert run_cli("evolve", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    assert "line 2: non-finite edge weight" in capsys.readouterr().err


def test_inflated_network_header_is_a_data_error(tmp_path):
    # the header claims 60,000 nodes and the body holds one edge: one
    # dense int8 layer alone would be 3.35 GiB, more than the child may map
    bad = tmp_path / "net.mplex"
    bad.write_text("multiplex v1 60000 2\n0 0 1 0.5\n")
    cfg = write_config(tmp_path, f"network_file = {bad}\n")

    def limit_address_space():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (4_000_000 * 1024,) * 2)

    proc = subprocess.run(
        [sys.executable, "-m", "megt.cli", "evolve", "--config", cfg,
         "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, env=megt_env(),
        preexec_fn=limit_address_space)
    assert proc.returncode == 3, proc.stderr
    assert "missing delta entry for pair (0, 1)" in proc.stderr
    assert "Traceback" not in proc.stderr


def _under_a_memory_limit(tmp_path, command, config):
    """Run megt in a child process that may map about 1 GB."""
    def limit_address_space():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1_000_000 * 1024,) * 2)

    return subprocess.run(
        [sys.executable, "-m", "megt.cli", command, "--config", config,
         "--outdir", str(tmp_path / command)],
        capture_output=True, text=True, env=megt_env(),
        preexec_fn=limit_address_space)


def test_a_network_file_too_large_for_memory_is_a_data_error(tmp_path):
    # a valid file of two nodes on 10^8 layers: the edge CSR alone has
    # 2 * 10^8 + 1 row pointers (1.6 GB)
    big = tmp_path / "net.mplex"
    big.write_text("multiplex v1 2 100000000\ndelta 0 1 0.5\n")
    cfg = write_config(tmp_path, f"network_file = {big}\n")
    proc = _under_a_memory_limit(tmp_path, "evolve", cfg)
    assert proc.returncode == 3, proc.stderr
    assert f"{big}: not enough memory\n" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, extra, message", [
    # delta alone would take 80 GB
    ("generate", "node_count = 100000\n",
     "'node_count' = 100000, 'layers' = 2\n"),
    ("evolve", "node_count = 100000\n",
     "'node_count' = 100000, 'layers' = 2, 'max_rounds' = 40\n"),
    # the run's history buffers would take 16 GB
    ("evolve", "max_rounds = 1000000000\n",
     "'node_count' = 20, 'layers' = 2, 'max_rounds' = 1000000000\n"),
    # 10^10 grid cells
    ("sweep", "t_steps = 100000\ns_steps = 100000\n",
     "'node_count' = 20, 'layers' = 2, 'max_rounds' = 40, "
     "'t_steps' = 100000, 's_steps' = 100000\n"),
], ids=["generate-nodes", "evolve-nodes", "evolve-rounds", "sweep-grid"])
def test_too_large_for_memory_is_a_config_error(tmp_path, command, extra,
                                                message):
    cfg = write_config(tmp_path, extra)
    proc = _under_a_memory_limit(tmp_path, command, cfg)
    assert proc.returncode == 2, proc.stderr
    assert "not enough memory for config keys " + message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_no_command_builds_dense_layers(tmp_path, monkeypatch):
    def dense(network):
        raise AssertionError("a command built the dense adjacency view")

    monkeypatch.setattr(megt.netgen.MultiplexNetwork, "adjacency",
                        property(dense))
    cfg = write_config(tmp_path, "t_steps = 2\ns_steps = 2\nreplicas = 2\n")
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "net")) == 0
    fixed = write_config(
        tmp_path, f"network_file = {tmp_path / 'net' / 'net.mplex'}\n"
                  "t_steps = 2\ns_steps = 2\nreplicas = 2\n",
        name="fixed.cfg")
    for command in ("evolve", "sweep", "nash"):
        assert run_cli(command, "--config", fixed,
                       "--outdir", str(tmp_path / command)) == 0
    assert run_cli("nash", "--config", cfg,
                   "--outdir", str(tmp_path / "nash-spec")) == 0


def test_manifests_time_the_network_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "t_steps = 2\ns_steps = 1\n")
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "net")) == 0
    fixed = write_config(
        tmp_path, f"network_file = {tmp_path / 'net' / 'net.mplex'}\n"
                  "t_steps = 2\ns_steps = 1\n", name="fixed.cfg")
    for command in ("evolve", "sweep", "nash"):
        spec_dir, file_dir = tmp_path / command, tmp_path / f"{command}-file"
        assert run_cli(command, "--config", cfg,
                       "--outdir", str(spec_dir)) == 0
        assert "network_file_s" not in load_manifest(
            spec_dir / "manifest.json").extra
        assert run_cli(command, "--config", fixed,
                       "--outdir", str(file_dir)) == 0
        seconds = load_manifest(file_dir / "manifest.json").extra[
            "network_file_s"]
        assert type(seconds) is float and seconds >= 0.0
        # the manifest is not among the checksummed outputs
        assert run_cli("replay", str(file_dir / "manifest.json"),
                       "--outdir", str(tmp_path / f"{command}-replay")) == 0
        assert "replay ok" in capsys.readouterr().out


def test_overflowing_communicability_is_a_config_error(tmp_path, capsys):
    # a coupling of 1000 puts the largest supra-matrix eigenvalue past
    # float64's exp range
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(BASE_CONFIG.replace("seed = 7",
                                       "seed = 7\ninterlayer_strength = 1000"))
    for command in ("evolve", "sweep", "nash"):
        assert run_cli(command, "--config", str(cfg),
                       "--outdir", str(tmp_path / command)) == 2
        assert "overflows" in capsys.readouterr().err


# seeds at which layer 0 of the first network realised is an ER layer
# near its percolation threshold, N=300 and p=1/N, that splits into
# components with nearly equal leading eigenvalues: its centrality's
# power iteration never settles.  generate realises the config's seed;
# the simulations realise a seed spawned from it for cell 0, replica 0.
@pytest.mark.parametrize("command, seed", [
    ("generate", 65), ("evolve", 109), ("sweep", 109), ("nash", 109)])
def test_centrality_that_does_not_converge_is_a_config_error(
        tmp_path, capsys, command, seed):
    cfg = tmp_path / "percolating.cfg"
    cfg.write_text("node_count = 300\nlayers = 1\ntopology = er\n"
                   "edge_probability = 0.0033333333333333335\n"
                   f"seed = {seed}\nt_steps = 1\ns_steps = 1\n")
    assert run_cli(command, "--config", str(cfg),
                   "--outdir", str(tmp_path / command)) == 2
    err = capsys.readouterr().err
    assert "layer 0: eigenvector centrality: power iteration did not " \
        "converge" in err


@pytest.mark.parametrize("strength", ["1e12", "1.7e308"])
def test_huge_coupling_is_an_overflow_without_a_term_count(
        tmp_path, capsys, monkeypatch, strength):
    # the term count takes about e * bound steps: a coupling this strong
    # must go straight to eigh and its overflow error
    def refuse(bound):
        raise AssertionError(f"counted Taylor terms for a bound of {bound}")

    monkeypatch.setattr(megt.comm, "_series_terms", refuse)
    cfg = write_config(tmp_path, f"interlayer_strength = {strength}\n")
    for command in ("evolve", "sweep", "nash"):
        assert run_cli(command, "--config", cfg,
                       "--outdir", str(tmp_path / command)) == 2
        assert "overflows" in capsys.readouterr().err


def test_overflowing_communicability_of_a_network_file_is_a_data_error(
        tmp_path, capsys):
    cfg = write_config(tmp_path)
    netdir = tmp_path / "net"
    assert run_cli("generate", "--config", cfg, "--outdir", str(netdir)) == 0
    net_path = netdir / "net.mplex"
    cfg2 = write_config(tmp_path, f"network_file = {net_path}\n"
                                  "interlayer_strength = 1000\n",
                        name="fixed.cfg")
    assert run_cli("evolve", "--config", cfg2,
                   "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "overflows" in err and str(net_path) in err


# ---------------------------------------------------------------------------
# sweep / nash
# ---------------------------------------------------------------------------

def test_sweep_grid_rows(tmp_path):
    cfg = write_config(tmp_path, "t_steps = 3\ns_steps = 3\n"
                                 "max_rounds = 30\nsteady_window = 15\n")
    outdir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--outdir", str(outdir)) == 0
    lines = (outdir / "grid.csv").read_text().splitlines()
    assert lines[0] == "T,S,rho_mean,rho_std,replicas"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert (float(first[0]), float(first[1])) == (0.0, -1.0)


def test_sweep_jobs_flag_does_not_change_results(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "t_steps = 2\ns_steps = 2\nreplicas = 2\n"
                                 "max_rounds = 30\nsteady_window = 15\n")
    monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: 3)
    for name, jobs in (("seq", ["--jobs", "1"]), ("par", ["--jobs", "2"]),
                       ("three", ["--jobs", "3"]), ("uncapped", [])):
        assert run_cli("sweep", "--config", cfg,
                       "--outdir", str(tmp_path / name), *jobs) == 0
        extra = load_manifest(tmp_path / name / "manifest.json").extra
        assert extra["run_threads"] == (int(jobs[1]) if jobs else 3)
        assert (tmp_path / "seq" / "grid.csv").read_bytes() == \
            (tmp_path / name / "grid.csv").read_bytes()


def test_sweep_manifest_totals_do_not_depend_on_jobs(tmp_path):
    cfg = write_config(tmp_path, "t_steps = 2\ns_steps = 2\nreplicas = 2\n"
                                 "max_rounds = 30\nsteady_window = 15\n")
    extras = []
    for name, jobs in (("seq", "1"), ("par", "2")):
        assert run_cli("sweep", "--config", cfg,
                       "--outdir", str(tmp_path / name), "--jobs", jobs) == 0
        extras.append(load_manifest(tmp_path / name / "manifest.json").extra)
    sequential, parallel = extras
    assert sequential["adoptions"] == parallel["adoptions"] > 0
    assert sequential["communicability"] == parallel["communicability"]
    assert sum(record["runs"] for record in
               sequential["communicability"]) == 8
    for extra in extras:
        assert set(extra["phase_s"]) == PHASES
        assert all(seconds >= 0.0 for seconds in extra["phase_s"].values())


def test_sweep_names_the_cells_whose_runs_ran_out_of_rounds(tmp_path,
                                                           capsys):
    # a 3x3 grid inside the snowdrift region, where runs on 100 nodes
    # coexist, so a tolerance this tight leaves most runs to the budget
    cfg = write_config(tmp_path, "t_steps = 3\ns_steps = 3\n"
                                 "max_rounds = 220\nsteady_window = 100\n"
                                 "steady_tolerance = 1e-9\n"
                                 "node_count = 100\nedge_probability = 0.05\n"
                                 "t_min = 1.5\nt_max = 1.9\n"
                                 "s_min = 0.5\ns_max = 0.9\n")
    outdir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--outdir", str(outdir)) == 0
    extra = load_manifest(outdir / "manifest.json").extra
    reasons = extra["stop_reasons"]
    assert sum(reasons.values()) == 9
    assert reasons.get("budget", 0) > 0
    cells = extra["budget_cells"]
    assert 0 < len(cells) <= reasons["budget"]
    grid = {(float(row["T"]), float(row["S"])) for row in
            csv.DictReader((outdir / "grid.csv").open())}
    assert {tuple(cell) for cell in cells} <= grid
    q1, median, q3 = extra["rounds_quartiles"]
    assert 0 <= q1 <= median <= q3 == 220
    assert extra["run_threads"] == megt.evolve.run_threads(None, 9)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"sweep: {reasons['budget']} of 9 runs used "
                             f"all 220 rounds")
    first = ", ".join(f"({t!r}, {s!r})" for t, s in cells[:3])
    assert first in err[0]
    # none of it goes into the checksummed output
    assert (outdir / "grid.csv").read_text().splitlines()[0] == \
        "T,S,rho_mean,rho_std,replicas"


def test_a_converged_sweep_prints_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, "t_steps = 2\ns_steps = 2\n"
                                 "max_rounds = 1000\n")
    assert run_cli("sweep", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 0
    extra = load_manifest(tmp_path / "out" / "manifest.json").extra
    assert "budget" not in extra["stop_reasons"]
    assert extra["budget_cells"] == []
    assert capsys.readouterr().err == ""


def test_a_failing_sweep_on_threads_reports_the_sequential_error(
        tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "t_steps = 2\ns_steps = 2\nreplicas = 2\n")
    original = megt.evolve.run

    def failing(config, *, cell_index, replica_index):
        task = 2 * cell_index + replica_index
        if task in (3, 6):
            raise ValueError(f"task {task} failed")
        return original(config, cell_index=cell_index,
                        replica_index=replica_index)

    monkeypatch.setattr(megt.evolve, "run", failing)
    outcomes = []
    for cpus in (1, 3):
        monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: cpus)
        code = run_cli("sweep", "--config", cfg,
                       "--outdir", str(tmp_path / f"out{cpus}"))
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1] == (2,
                                          "config error: task 3 failed\n")


def test_sweep_on_a_network_file_exponentiates_once_at_any_thread_count(
        tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    assert run_cli("generate", "--config", cfg,
                   "--outdir", str(tmp_path / "net")) == 0
    fixed = write_config(
        tmp_path, f"network_file = {tmp_path / 'net' / 'net.mplex'}\n"
                  "t_steps = 3\ns_steps = 3\nmax_rounds = 30\n"
                  "steady_window = 15\n", name="fixed.cfg")
    calls = []
    original_entries = megt.evolve.communicability_entries

    def counting_entries(*args):
        calls.append(args[0])
        return original_entries(*args)

    monkeypatch.setattr(megt.evolve, "communicability_entries",
                        counting_entries)
    for threads in (1, 2, 3):
        monkeypatch.setattr(megt.evolve, "_usable_cpus", lambda: threads)
        calls.clear()
        outdir = tmp_path / f"threads{threads}"
        assert run_cli("sweep", "--config", fixed,
                       "--outdir", str(outdir)) == 0
        assert len(calls) == 1, threads
        assert load_manifest(outdir / "manifest.json").extra[
            "run_threads"] == threads
        assert (outdir / "grid.csv").read_bytes() == \
            (tmp_path / "threads1" / "grid.csv").read_bytes()


def test_nash_outputs(tmp_path):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("nash", "--config", cfg, "--outdir", str(outdir)) == 0
    alpha_lines = (outdir / "alpha.csv").read_text().splitlines()
    assert alpha_lines[0] == "round,alpha,weak_fraction"
    assert len(alpha_lines) >= 2
    rho_lines = (outdir / "rho.csv").read_text().splitlines()
    # one alpha row per trajectory row (round 0 onward)
    assert len(alpha_lines) == len(rho_lines)
    extra = load_manifest(outdir / "manifest.json").extra
    assert extra["stop_reason"] in ("steady", "absorbing", "budget")
    # a density that moved took adoptions
    densities = {line.split(",")[1] for line in rho_lines[1:]}
    assert type(extra["adoptions"]) is int
    assert extra["adoptions"] > 0 if len(densities) > 1 else \
        extra["adoptions"] >= 0
    assert set(extra["phase_s"]) == PHASES


# two ring layers of 100 nodes: sparse enough for the series
SERIES_CONFIG = ("node_count = 100\ntopology = ws\nring_degree = 4\n"
                 "rewire_probability = 0.1\n")


@pytest.mark.parametrize("extra, method", [("", "eigh"),
                                           (SERIES_CONFIG, "series")],
                         ids=["eigh", "series"])
def test_manifests_record_the_communicability_method(tmp_path, capsys,
                                                     extra, method):
    cfg = write_config(tmp_path, extra + "t_steps = 2\ns_steps = 1\n")
    for command in ("evolve", "sweep", "nash"):
        outdir = tmp_path / command
        assert run_cli(command, "--config", cfg, "--outdir", str(outdir)) == 0
        records = load_manifest(outdir / "manifest.json").extra[
            "communicability"]
        if command == "nash":
            records = [records]
        # sweep cells realise networks of their own, with their own K
        assert {record["method"] for record in records} == {method}
        assert all(record["terms"] is None if method == "eigh"
                   else record["terms"] > 0 for record in records)
        assert run_cli("replay", str(outdir / "manifest.json"),
                       "--outdir", str(tmp_path / f"{command}-replay")) == 0
        assert "replay ok" in capsys.readouterr().out


def test_nash_rejects_unknown_projection(tmp_path, capsys):
    cfg = write_config(tmp_path, "projection = all_of_them\n")
    assert run_cli("nash", "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 2
    assert "projection" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth / score
# ---------------------------------------------------------------------------

def synth_corpus_file(tmp_path, extra=""):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = write_config(tmp_path, "users = 30\ndays = 3\n" + extra,
                       name="synth.cfg")
    outdir = tmp_path / "corpus"
    assert run_cli("synth", "--config", cfg, "--outdir", str(outdir)) == 0
    return outdir / "reports.csv"


def test_synth_is_deterministic(tmp_path):
    first = synth_corpus_file(tmp_path / "one")
    second = synth_corpus_file(tmp_path / "two")
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == ("object_id,generation_date,day_time,street,"
                      "incident_type,uuid,report_rating")


def test_score_outputs_all_mechanisms(tmp_path):
    reports = synth_corpus_file(tmp_path)
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(outdir)) == 0
    ledger_lines = (outdir / "ledger.csv").read_text().splitlines()
    assert ledger_lines[0] == ("user_id,rs_raw,rs_norm,gamma_emp,"
                               "incentive_A,incentive_B,incentive_C")
    assert len(ledger_lines) == 1 + 30
    assert all(line.count(",") == 6 for line in ledger_lines[1:])
    assert all("" not in line.split(",")[1:] for line in ledger_lines[1:])
    decisions = (outdir / "decisions.csv").read_text().splitlines()
    assert decisions[0] == "date,segment,street,event_type,confidence,decision"
    manifest = load_manifest(outdir / "manifest.json")
    assert manifest.extra["mechanisms"] == ["A", "B", "C"]
    assert str(reports) in manifest.inputs


def test_score_manifest_reports_positive_users_and_phases(tmp_path):
    reports = synth_corpus_file(tmp_path)
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(outdir)) == 0
    extra = load_manifest(outdir / "manifest.json").extra
    rows = [line.split(",") for line in
            (outdir / "ledger.csv").read_text().splitlines()[1:]]
    # a positive user (rs_norm >= 0.5) is exactly one with a payout
    assert extra["positive_users"] == {
        mech: sum(1 for row in rows if float(row[4 + k]) > 0.0)
        for k, mech in enumerate(("A", "B", "C"))}
    assert extra["positive_users"]["C"] == sum(1 for row in rows
                                               if float(row[2]) >= 0.5)
    assert 0 < extra["positive_users"]["A"] <= 30
    assert set(extra["phase_s"]) == {"ingest", "stats", "profiles",
                                     "incentives", "decisions"}
    assert all(0.0 <= value < 60.0 for value in extra["phase_s"].values())


def test_score_single_mechanism_flag(tmp_path):
    reports = synth_corpus_file(tmp_path)
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(outdir), "--mechanism", "B") == 0
    row = (outdir / "ledger.csv").read_text().splitlines()[1].split(",")
    incentive_a, incentive_b, incentive_c = row[4], row[5], row[6]
    assert incentive_a == "" and incentive_c == ""
    assert incentive_b != ""
    manifest = load_manifest(outdir / "manifest.json")
    assert manifest.extra["mechanisms"] == ["B"]


def test_score_missing_reports_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run_cli("score", "--reports", str(tmp_path / "nope.csv"),
                   "--config", cfg, "--outdir", str(tmp_path / "out")) == 3
    assert "nope.csv" in capsys.readouterr().err


def test_score_file_that_is_not_utf8_names_the_line(tmp_path, capsys):
    reports = tmp_path / "reports.csv"
    reports.write_bytes(
        b"object_id,generation_date,day_time,street,incident_type,uuid,"
        b"report_rating\n"
        b"r1,2019-10-07,09:00,Main,jam,u1,4.0\n"
        b"r2,2019-10-07,12:00,Stra\xdfe,jam,u2,4.5\n"
        b"r3,2019-10-07,15:00,Main,jam,u3,4.0\n")
    cfg = write_config(tmp_path)
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert f"{reports}: line 3: not UTF-8" in err


def test_score_malformed_row_names_it(tmp_path, capsys):
    reports = tmp_path / "reports.csv"
    reports.write_text(
        "object_id,generation_date,day_time,street,incident_type,uuid,"
        "report_rating\n"
        "r1,2019-10-07,09:00,Main,jam,u1,4.0\n"
        "r2,2019-99-99,09:00,Main,jam,u1,4.0\n")
    cfg = write_config(tmp_path)
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    assert "row 3" in capsys.readouterr().err


def test_score_bad_header_is_a_data_error(tmp_path, capsys):
    reports = tmp_path / "reports.csv"
    reports.write_text("a,b\n1,2\n")
    cfg = write_config(tmp_path)
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    assert "row 1" in capsys.readouterr().err


def test_score_unreadable_csv_is_a_data_error(tmp_path, capsys):
    # a quoted field over the csv module's size limit stops the reader
    reports = tmp_path / "reports.csv"
    reports.write_text(
        "object_id,generation_date,day_time,street,incident_type,uuid,"
        "report_rating\n"
        "r1,2019-10-07,09:00,Main,jam,u1,4.0\n"
        f'r2,2019-10-07,09:00,"{"x" * 131_073}",jam,u2,4.0\n')
    cfg = write_config(tmp_path)
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "reports.csv: line 3: field larger than field limit" in err


def test_score_refused_quote_names_the_line(tmp_path, capsys):
    reports = tmp_path / "reports.csv"
    reports.write_text(
        "object_id,generation_date,day_time,street,incident_type,uuid,"
        "report_rating\n"
        "r1,2019-10-07,09:00,Main,jam,u1,4.0\n"
        'r2,2019-10-07,12:00,Main "St",jam,u2,4.5\n'
        "r3,2019-10-07,15:00,Main,jam,u3,4.0\n")
    cfg = write_config(tmp_path)
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "reports.csv: line 3: quote inside an unquoted field" in err


def test_score_reads_quoted_streets_and_users_as_bare_ones(tmp_path):
    plain = synth_corpus_file(tmp_path)
    with open(plain, newline="") as fh:
        lines = fh.readlines()
    quoted = tmp_path / "quoted.csv"
    with open(quoted, "w", newline="") as fh:
        fh.write(lines[0])
        for line in lines[1:]:
            fields = line.rstrip("\r\n").split(",")
            fields[3], fields[5] = (f'"{fields[3]}"', f'"{fields[5]}"')
            fh.write(",".join(fields) + line[len(line.rstrip("\r\n")):])
    cfg = write_config(tmp_path)
    for name, reports in (("plain", plain), ("quoted", quoted)):
        assert run_cli("score", "--reports", str(reports), "--config", cfg,
                       "--outdir", str(tmp_path / name)) == 0
    for output in ("ledger.csv", "decisions.csv"):
        assert ((tmp_path / "quoted" / output).read_bytes()
                == (tmp_path / "plain" / output).read_bytes())


def score_rows(tmp_path, *rows):
    """Score a corpus of the given data rows; return the outputs read
    back as csv rows."""
    reports = tmp_path / "reports.csv"
    reports.write_text(
        "object_id,generation_date,day_time,street,incident_type,uuid,"
        "report_rating\n" + "".join(row + "\n" for row in rows),
        encoding="utf-8")
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(outdir)) == 0
    outputs = {}
    for name in ("ledger.csv", "decisions.csv"):
        with open(outdir / name, newline="", encoding="utf-8") as fh:
            outputs[name] = list(csv.reader(fh))
    return outputs


@pytest.mark.parametrize("row, column, value", [
    ("r2,2019-10-07,12:00,Main,jam,dévice,4.0", "ledger.csv", "dévice"),
    ("r2,2019-10-07,12:00,Straße,jam,u2,4.0", "decisions.csv", "Straße"),
], ids=["uuid", "street"])
def test_score_writes_non_ascii_users_and_streets(tmp_path, row, column,
                                                  value):
    outputs = score_rows(tmp_path, "r1,2019-10-07,09:00,Main,jam,u1,4.0",
                         row)
    assert value in {cell for line in outputs[column] for cell in line}


def test_score_quotes_a_street_holding_a_comma(tmp_path):
    outputs = score_rows(tmp_path, "r1,2019-10-07,09:00,Main,jam,u1,4.0",
                         'r2,2019-10-07,12:00,"Main St, North",jam,u2,4.0')
    decisions = outputs["decisions.csv"]
    assert [len(line) for line in decisions] == [6, 6, 6]
    assert {line[2] for line in decisions[1:]} == {"Main", "Main St, North"}


def test_score_nothing_usable(tmp_path, capsys):
    reports = tmp_path / "reports.csv"
    reports.write_text(
        "object_id,generation_date,day_time,street,incident_type,uuid,"
        "report_rating\n"
        "r1,2019-10-07,09:00,Main,jam,u1,0.0\n")
    cfg = write_config(tmp_path)
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(tmp_path / "out")) == 3
    assert "no usable reports" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_generate_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("generate", "--config", cfg, "--outdir", str(outdir)) == 0
    replay_dir = tmp_path / "replayed"
    assert run_cli("replay", str(outdir / "manifest.json"),
                   "--outdir", str(replay_dir)) == 0
    assert "replay ok" in capsys.readouterr().out
    assert (replay_dir / "net.mplex").read_bytes() == \
        (outdir / "net.mplex").read_bytes()


def test_replay_detects_tampered_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("generate", "--config", cfg, "--outdir", str(outdir)) == 0
    payload = json.loads((outdir / "manifest.json").read_text())
    payload["outputs"]["net.mplex"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    assert run_cli("replay", str(tampered),
                   "--outdir", str(tmp_path / "replayed")) == 3
    assert "net.mplex" in capsys.readouterr().err


def test_replay_score_reuses_input_corpus(tmp_path, capsys):
    reports = synth_corpus_file(tmp_path)
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("score", "--reports", str(reports), "--config", cfg,
                   "--outdir", str(outdir), "--mechanism", "C") == 0
    replay_dir = tmp_path / "replayed"
    assert run_cli("replay", str(outdir / "manifest.json"),
                   "--outdir", str(replay_dir)) == 0
    assert "replay ok" in capsys.readouterr().out
    assert (replay_dir / "ledger.csv").read_bytes() == \
        (outdir / "ledger.csv").read_bytes()


def test_replay_missing_manifest(tmp_path, capsys):
    assert run_cli("replay", str(tmp_path / "missing.json"),
                   "--outdir", str(tmp_path / "out")) == 3
    assert "missing.json" in capsys.readouterr().err


@pytest.mark.parametrize("command, edit, message", [
    ("score", lambda p: {**p, "inputs": {}}, "names no reports file"),
    ("score", lambda p: {**p, "extra": {**p["extra"], "mechanisms": []}},
     "no mechanism"),
    ("generate", lambda p: {**p, "config": [1]}, "'config' must be an object"),
    ("generate", lambda p: {**p, "outputs": []},
     "'outputs' must be an object"),
    ("generate", lambda p: sorted(p), "must be a JSON object"),
    ("generate", lambda p: {**p, "seed": "x"}, "'seed' must be an integer"),
], ids=["score-without-inputs", "score-without-mechanisms", "config-list",
        "outputs-list", "top-level-list", "seed-string"])
def test_replay_malformed_manifest_is_a_named_data_error(
        tmp_path, capsys, command, edit, message):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "out"
    argv = ["--config", cfg, "--outdir", str(outdir)]
    if command == "score":
        argv += ["--reports", str(synth_corpus_file(tmp_path)),
                 "--mechanism", "A"]
    assert run_cli(command, *argv) == 0
    payload = json.loads((outdir / "manifest.json").read_text())
    assert set(payload) >= {"command", "version", "seed", "config",
                            "outputs"}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(edit(payload)))
    capsys.readouterr()
    assert run_cli("replay", str(broken),
                   "--outdir", str(tmp_path / "replayed")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
