"""Primal-dual local-training iteration with compressed uplink, plus baselines.

The main iteration keeps per-client models x_i, a shared anchor model y, and
dual variables (u_i, v) whose feasibility identity mean(u) + v = 0 is
preserved exactly by construction.  Communication happens on a shared
Bernoulli(p) coin; on a round, each client uploads a compressed difference
between its predicted model and the anchor.

Baselines: exact distributed gradient descent, compressed gradient differences
with control variates (DIANA), and probabilistic local training with control
variates (Scaffnew).  Baselines run on the folded problem (shared regularizer
absorbed into every local function).

Each step advances its state one iteration in place and returns whether that
iteration was a communication round, as a plain bool; the run loop counts
iterations and rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compressors import compress_round
from .errors import ConfigurationError, InputError

# the schedule fields each algorithm takes as overrides, in the order a config
# holds them (the order is hashed); locodl takes every one
SCHEDULE_KEYS = {"locodl": ("gamma", "chi", "rho", "p"), "scaffnew": ("gamma", "p"),
                 "gd": ("gamma",), "diana": ("gamma",)}


@dataclass
class RngBundle:
    """Pre-split streams: a shared coin and a round-level compression stream."""

    coin: np.random.Generator
    rounds: np.random.Generator

    @classmethod
    def from_seed(cls, seed):
        coin, rounds = np.random.SeedSequence(seed).spawn(2)
        return cls(np.random.default_rng(coin), np.random.default_rng(rounds))


@dataclass(frozen=True)
class AlgoParams:
    gamma: float
    chi: float
    rho: float
    p: float
    omega: float
    omega_av: float

    @property
    def dual_step(self):
        return self.p * self.chi / (self.gamma * (1.0 + 2.0 * self.omega))

    def validate(self, L):
        if not 0.0 < self.gamma < 2.0 / L:
            raise ConfigurationError(
                f"stepsize condition 0 < gamma < 2/L violated: gamma={self.gamma}, 2/L={2.0 / L}")
        slack = 2.0 * self.rho - self.rho ** 2 * (1.0 + self.omega_av) - self.chi
        if not slack >= -1e-12:     # a NaN chi or rho gives a NaN slack
            raise ConfigurationError(
                "condition 2*rho - rho^2*(1+omega_av) - chi >= 0 violated "
                f"(rho={self.rho}, chi={self.chi}, omega_av={self.omega_av}, slack={slack})")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigurationError(f"rho must be in (0, 1], got {self.rho}")
        if not 0.0 < self.p <= 1.0:
            raise ConfigurationError(f"p must be in (0, 1], got {self.p}")


def default_params(L, mu, omega, omega_av):
    """Theoretical schedule: gamma = 1/L, chi = rho = 1/(1+omega_av), tuned coin probability."""
    if not 0.0 < mu <= L:
        raise InputError("need 0 < mu <= L")
    kappa = L / mu
    chi = rho = 1.0 / (1.0 + omega_av)
    p = min(math.sqrt((1.0 + omega_av) * (1.0 + omega) / kappa), 1.0)
    return AlgoParams(1.0 / L, chi, rho, p, omega, omega_av)


def rate_bound(params, L, mu):
    """Per-iteration contraction factor of the Lyapunov function."""
    params.validate(L)
    tau = max((1.0 - params.gamma * mu) ** 2,
              (1.0 - params.gamma * L) ** 2,
              1.0 - params.p ** 2 * params.chi / (1.0 + 2.0 * params.omega))
    if tau >= 1.0:
        raise ConfigurationError(f"contraction factor is {tau} >= 1; parameters do not converge")
    return tau


@dataclass
class LoCoDLState:
    x: np.ndarray          # (n, d) local models
    y: np.ndarray          # (d,) shared anchor model
    u: np.ndarray          # (n, d) local duals
    v: np.ndarray          # (d,) shared dual
    saturation_events: int = 0
    max_dual_residual: float = 0.0

    @classmethod
    def zeros(cls, n, d):
        return cls(np.zeros((n, d)), np.zeros(d), np.zeros((n, d)), np.zeros(d))

    def dual_residual(self):
        """||mean(u) + v||_inf, zero in exact arithmetic."""
        return float(np.max(np.abs(self.u.sum(axis=0) / len(self.u) + self.v)))


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    u_star: np.ndarray   # (n, d), gradient of each local at x_star
    v_star: np.ndarray
    f_star: float
    grad_norm: float     # ||grad f(x_star)||, the accuracy the solve reached

    @cached_property
    def stacked(self):
        """(x*; u*) as one (2n, d) array and (x*; v*) as one (2, d) array, for `lyapunov`."""
        n = self.u_star.shape[0]
        return (np.concatenate((np.tile(self.x_star, (n, 1)), self.u_star)),
                np.stack((self.x_star, self.v_star)))


def locodl_step(state, problem, spec, params, rng):
    """One iteration of `state`, in place; returns whether it was a communication round."""
    gamma = params.gamma
    gx = problem.grads_locals(state.x)
    x_hat = state.x - gamma * gx + gamma * state.u
    y_hat = state.y - gamma * problem.grad_g(state.y) + gamma * state.v

    if rng.coin.random() < params.p:
        msgs, sat = compress_round(spec, x_hat - y_hat[None, :], rng.rounds)
        state.saturation_events += sat
        d_bar = msgs.sum(axis=0) / (2.0 * len(state.x))
        lam = params.dual_step
        state.x = (1.0 - params.rho) * x_hat + params.rho * (y_hat + d_bar)[None, :]
        state.u = state.u + lam * (d_bar[None, :] - msgs)
        state.y = y_hat + params.rho * d_bar
        state.v = state.v + lam * d_bar
        # u and v move only on rounds, so the residual can only change here
        state.max_dual_residual = max(state.max_dual_residual, state.dual_residual())
        return True
    state.x = x_hat
    state.y = y_hat
    return False


def lyapunov(xu, yv, ref, params):
    """Weighted squared distance of (x, y, u, v) to the saddle point, per iterate of a stack.

    `xu` is an (R, 2n, d) stack of (x; u) and `yv` an (R, 2, d) stack of
    (y; v), one row per iterate; returns the (R,) values.
    """
    n = xu.shape[1] // 2
    # one subtract, square and sum for (x; u) and one for (y; v): each row sum of
    # the (R, 2, size) view is the same pairwise sum as that block's own sum
    xu_star, yv_star = ref.stacked
    dxu = xu - xu_star
    dxu *= dxu
    dyv = yv - yv_star
    dyv *= dyv
    sq_x, sq_u = np.add.reduce(dxu.reshape(len(xu), 2, -1), 2).T
    sq_y, sq_v = np.add.reduce(dyv.reshape(len(yv), 2, -1), 2).T
    primal = sq_x + n * sq_y
    dual = sq_u + n * sq_v
    return primal / params.gamma \
        + params.gamma * (1.0 + 2.0 * params.omega) / (params.p ** 2 * params.chi) * dual


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


@dataclass
class BaselineState:
    """A baseline's iterate.

    `x` is gd's and diana's (d,) model, scaffnew's (n, d) local models; `h`
    the (n, d) control variates of diana (gradient estimates) and scaffnew
    (summing to zero), None for gd.
    """

    x: np.ndarray
    h: np.ndarray | None = None


def gd_step(state, problem, gamma):
    """Exact distributed gradient descent; one full 32d-bit upload per iteration."""
    state.x = state.x - gamma * problem.grad_mean(state.x)
    return True


def diana_gamma(L, mu, omega, n):
    """Stepsize from the compressed-gradient-difference method's theory."""
    alpha = 1.0 / (1.0 + omega)
    return min(1.0 / (L * (1.0 + 2.0 * omega / n)), alpha / (2.0 * mu))


def diana_step(state, problem, spec, gamma, rng):
    """Compressed gradient differences with control variates; one round per iteration."""
    n = state.h.shape[0]
    alpha = 1.0 / (1.0 + spec.omega)
    grads = problem.grads_locals(state.x)
    msgs, _ = compress_round(spec, grads - state.h, rng.rounds)
    g_hat = state.h.sum(axis=0) / n + msgs.sum(axis=0) / n
    state.x = state.x - gamma * g_hat
    state.h = state.h + alpha * msgs
    return True


def scaffnew_step(state, problem, gamma, p, rng):
    """Probabilistic local training with control variates; uncompressed rounds."""
    grads = problem.grads_locals(state.x)
    x_hat = state.x - gamma * (grads - state.h)
    if rng.coin.random() < p:
        x_bar = x_hat.sum(axis=0) / x_hat.shape[0]
        state.h = state.h + (p / gamma) * (x_bar[None, :] - x_hat)
        state.x = np.broadcast_to(x_bar, state.x.shape).copy()
        return True
    state.x = x_hat
    return False
