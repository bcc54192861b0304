"""Simulation laboratory for low-depth quantum optimization mechanisms.

Diagonal cost functions over n-bit strings are evolved under alternating
problem phases and graph-Laplacian mixers; closed-form per-spin oracles,
relaxed-angle searches, mean-field stepping, iterated rounding, and scripted
experiment pipelines sit on top of the dense statevector core.

Conventions (everywhere in the package): bit i of the basis index is qubit i
(little-endian), Z_i |z> = (1 - 2 z_i) |z>, the mixer evolution is
exp(-i beta L_bar) with L_bar = -(D - A), and printed bitstrings put qubit 0
leftmost.
"""

from types import ModuleType as _Module

from .analytic import (
    LandauZener,
    distribution_qaoa,
    landau_zener,
    optimal_gamma,
    single_spin_overlap,
)
from .ansatz import (
    Schedule,
    meanfield_evolve,
    meanfield_step,
    multilinear_value,
    qaoa_state,
)
from .errors import ConfigError, NumericError, QlowError, ResourceError
from .laplacians import (
    BallCut,
    CompleteGraph,
    CustomSparse,
    WeightedHypercube,
    ball_uniform_state,
    custom_from_edges,
    evolve,
    hamming_shell_state,
    hypercube,
    kinetic_energy,
    randomize_phases,
)
from .objectives import (
    CVaR,
    Gibbs,
    Mean,
    approximation_ratio,
    evaluate,
    improvement_proxy,
    mean_via_terms,
)
from .optimize import (
    RoundingConfig,
    SearchConfig,
    classical_restart_baseline,
    iterated_rounding,
    optimize_relaxed_schedule,
    optimize_schedule,
)
from .problems import (
    DiagonalProblem,
    ZTerm,
    bush,
    chain_detuned,
    conflicted_pairs,
    fisher_chain,
    freeze,
    from_dense,
    from_terms,
    grid_ferromagnet_2d,
    hamming_ramp,
    kspin_ferromagnet,
    maxcut_3regular,
    spike,
    uncoupled_spins,
)
from .statevector import (
    Statevector,
    apply_phase,
    basis_state,
    fwht,
    ground_state_mass,
    plus_state,
)

__version__ = "0.1.0"

# every class and function imported above; the submodules are not part of the API
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _Module))
