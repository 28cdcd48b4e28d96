"""remest: transmit-or-retransmit decision policies for HARQ-based
remote state estimation of linear dynamic processes.

Pipeline: compute the sensor's steady-state filter covariance, build the
truncated (r, q) average-cost decision model, solve it by policy
iteration, and evaluate the resulting policies exactly (each policy's
stationary distribution dotted with the stage costs) and by Monte-Carlo
simulation.
"""

from .config import ConfigError, ExperimentConfig, default_config, load_config
from .harq import HarqModel, StabilityReport
from .lti import LtiSystem, RiccatiError, SteadyKalman, f_apply, riccati_steady_state, spectral_radius_sq
from .mdp import (
    MdpSolution,
    SolverError,
    TruncatedMdp,
    build_mdp,
    evaluate_policy,
    solve,
    stationary_distribution,
)
from .policies import (
    PolicyGrid,
    arq_baseline_policy,
    load_policy_csv,
    myopic_policy,
    psi_policy,
    save_policy_csv,
    verify_switching,
)
from .simulate import (
    SimConfig,
    SimReport,
    TrajectoryReport,
    simulate_chain,
    simulate_chains,
    simulate_trajectory,
)

__version__ = "0.1.0"
