"""Multi-user channel selection under statistical QoS constraints.

Library layout:

- channels: finite-rate channel specs, Rayleigh state probabilities, sampling
- capacity: effective capacity and related transforms
- game: channel-selection game, potentials, Nash tooling
- learning: stochastic learning automata (proposed update, SLA, random)
- dynamics: mean-field ODE of the learning process
- simulator: slot-level trials, experiments, sweeps
- config / cli: JSON configs, presets, command line front end
"""

from specgame.channels import ChannelSpec, rayleigh_state_probs, sample_realization
from specgame.capacity import (
    RateDistribution,
    approx_utility,
    effective_capacity,
    empirical_effective_capacity,
    payoff_transform,
)
from specgame.game import Contention, GameSpec

__all__ = [
    "ChannelSpec",
    "Contention",
    "GameSpec",
    "RateDistribution",
    "approx_utility",
    "effective_capacity",
    "empirical_effective_capacity",
    "payoff_transform",
    "rayleigh_state_probs",
    "sample_realization",
]

__version__ = "0.1.0"
