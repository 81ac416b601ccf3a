"""QAOA ground-state preparation for the fully-connected p-spin ferromagnet,
simulated exactly in the maximum-spin sector."""

from .sector import ProblemSpec
from .engine import QaoaParams, energy_and_gradient, qaoa_state
from .optimizer import LinearInit, RandomInit, multi_start, optimize
from .analytic import exact_p1_params
from .experiments import ExperimentConfig, run_experiment

__version__ = "0.1.0"
