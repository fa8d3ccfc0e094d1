"""Desk-scale laboratory for communication-efficient distributed optimization."""

from .algorithms import (AlgoParams, LoCoDLState, ReferenceSolution, RngBundle,
                         default_params, diana_step, gd_step, locodl_step, lyapunov,
                         rand_k_params, rate_bound, scaffnew_step)
from .compressors import (CompressedMessage, CompressorSpec, compress,
                          empirical_variance_ratio, make_spec)
from .data import dirichlet_synthetic, parse_libsvm, partition, serialize_libsvm
from .harness import (ExperimentConfig, ExperimentTrace, bits_to_target,
                      fit_communication_exponent, run_experiment, solve_reference)
from .objectives import (LogisticFunction, Problem, QuadraticFunction,
                         Shard, grad_logistic, logistic_problem, logistic_smoothness,
                         reduce_g_zero, regularization_for_kappa)

__all__ = [name for name in dir() if not name.startswith("_")]
