"""Desk-scale laboratory for communication-efficient distributed optimization."""

from .algorithms import (AlgoParams, LoCoDLState, ReferenceSolution, RngBundle,
                         default_params, diana_step, gd_step, locodl_step, lyapunov,
                         rate_bound, scaffnew_step)
from .compressors import (CompressedMessage, CompressorSpec, certification, compress,
                          make_spec)
from .data import dirichlet_synthetic, parse_libsvm, partition
from .harness import (ExperimentConfig, ExperimentTrace, bits_to_target,
                      fit_communication_exponent, run_experiments, solve_reference)
from .objectives import (Problem, Shard, fold_shared, logistic_problem, reduce_g_zero,
                         regularization_for_kappa)

__all__ = [name for name in dir() if not name.startswith("_")]
