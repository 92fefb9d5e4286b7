"""Two-partner couple dynamics on a 16-state Markov chain.

Two transition tables drive the pair: an aggression-driven model whose
chain falls into one of four absorbing states, and a support-driven model
that keeps cycling. The package provides the exact distribution evolution,
reproducible Monte Carlo ensembles, the scalar observables read off the
distribution, a self-consistent mean-field feedback loop on the control
parameters, and deterministic parameter-plane sweeps.
"""

from .feedback import (
    Engine,
    FeedbackConfig,
    GenderMode,
    f_update,
    g_update,
    self_consistent_run,
)
from .kernels import (
    absorbing_states,
    build_couple_kernel,
    garden_of_eden_states,
    individual_kernel,
    tau,
)
from .markov import delta_distribution, evolve, evolve_trace, step
from .montecarlo import (
    estimate_distribution,
    format_trajectory,
    sample_trajectory,
)
from .observables import (
    gender_violence,
    model1_basins,
    model2_observables,
    violent_marginals,
)
from .rng import counter_uniform, derive_seed
from .states import (
    COUPLE_STATES,
    STATES,
    CoupleState,
    Model,
    ModelParams,
    decode,
    encode,
)
from .sweep import (
    Scenario,
    SweepGrid,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "COUPLE_STATES",
    "CoupleState",
    "Engine",
    "FeedbackConfig",
    "GenderMode",
    "Model",
    "ModelParams",
    "STATES",
    "Scenario",
    "SweepGrid",
    "SweepSpec",
    "absorbing_states",
    "build_couple_kernel",
    "counter_uniform",
    "decode",
    "delta_distribution",
    "derive_seed",
    "encode",
    "estimate_distribution",
    "evolve",
    "evolve_trace",
    "f_update",
    "format_trajectory",
    "g_update",
    "garden_of_eden_states",
    "gender_violence",
    "individual_kernel",
    "model1_basins",
    "model2_observables",
    "run_sweep",
    "sample_trajectory",
    "self_consistent_run",
    "step",
    "tau",
    "violent_marginals",
]

__version__ = "0.1.0"
