"""megt: evolutionary games on homophily-weighted multiplex networks,
behavioural reputation metrics, and crowdsensing incentive pipelines."""

__version__ = "0.1.0"

from .games import (COOPERATE, DEFECT, DilemmaKind, PayoffMatrix, classify,
                    from_ts, pd_from_bc, representative)
from .netgen import (LayerTopology, MultiplexNetwork, MultiplexSpec,
                     build_multiplex, eigenvector_centrality, generate_er,
                     generate_sf, generate_ws, load_multiplex,
                     sample_homophily, save_multiplex)
from .comm import (ScalingBounds, build_supra, communicability_entries,
                   matrix_exp)
from .evolve import (RunResult, ScalingTable, SimulationConfig,
                     SimulationState, Trajectory, density, init_state,
                     replica_network, RoundEngine, run, run_replicas,
                     sweep_ts)
from .equilibrium import (EquilibriumTracker, NashReport, nash_report,
                          project_strategies)
from .metrics import (BehaviourStats, behaviour_stats, behavioural_reputation,
                      qoi, social_honesty)
from .crowdsense import (IncentiveConfig, ReportRecord, ReportTable,
                         SynthSpec, incentives, parse_reports, qoc,
                         read_reports_csv, score_corpus, synth_corpus,
                         truthfulness)
