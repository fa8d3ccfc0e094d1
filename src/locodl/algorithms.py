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
from dataclasses import dataclass, field
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
    """LoCoDL's iterate.  A step replaces its arrays and never writes into them.

    Between rounds u and v stay the same arrays, so `locodl_step` keeps
    gamma*u and gamma*v for the arrays it last scaled and reuses them while
    u, v and gamma are unchanged; code that edits a state's arrays must
    assign new ones, not write into the old.
    """

    x: np.ndarray          # (n, d) local models
    y: np.ndarray          # (d,) shared anchor model
    u: np.ndarray          # (n, d) local duals
    v: np.ndarray          # (d,) shared dual
    saturation_events: int = 0
    max_dual_residual: float = 0.0
    # (u, v, gamma, gamma*u, gamma*v) as the last step scaled them
    _scaled_duals: tuple = field(default=(None,) * 5, init=False, repr=False, compare=False)

    @classmethod
    def zeros(cls, n, d):
        return cls(np.zeros((n, d)), np.zeros(d), np.zeros((n, d)), np.zeros(d))

    def dual_residual(self):
        """||mean(u) + v||_inf, zero in exact arithmetic."""
        residual = np.add.reduce(self.u, 0)
        residual /= len(self.u)
        residual += self.v
        return float(np.maximum.reduce(np.abs(residual, out=residual)))


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
    """One iteration of `state`, in place; returns whether it was a communication round.

    The arithmetic runs in place, but only in arrays the step has just
    created (the gradients, the round's payloads and d_bar): the arrays the
    state held before the step are replaced, never written.  gamma*u and
    gamma*v are computed again only when u, v or gamma have changed.
    """
    gamma = params.gamma
    u, v, scaled_by, gamma_u, gamma_v = state._scaled_duals
    if u is not state.u or v is not state.v or scaled_by != gamma:
        gamma_u, gamma_v = gamma * state.u, gamma * state.v
        state._scaled_duals = (state.u, state.v, gamma, gamma_u, gamma_v)
    # x_hat = x - gamma*grad + gamma*u and y_hat = y - gamma*grad_g(y) + gamma*v
    x_hat = problem.grads_locals(state.x)
    x_hat *= gamma
    np.subtract(state.x, x_hat, out=x_hat)
    x_hat += gamma_u
    y_hat = problem.grad_g(state.y)
    y_hat *= gamma
    np.subtract(state.y, y_hat, out=y_hat)
    y_hat += gamma_v

    if rng.coin.random() < params.p:
        msgs, sat = compress_round(spec, x_hat - y_hat, rng.rounds)
        state.saturation_events += sat
        d_bar = np.add.reduce(msgs, 0)
        d_bar /= 2.0 * len(x_hat)
        rho, lam = params.rho, params.dual_step
        # x = (1 - rho)*x_hat + rho*(y_hat + d_bar)
        x_hat *= 1.0 - rho
        anchor = y_hat + d_bar
        anchor *= rho
        x_hat += anchor
        # u = u + lam*(d_bar - msgs), in the payloads
        np.subtract(d_bar, msgs, out=msgs)
        msgs *= lam
        msgs += state.u
        state.v = state.v + lam * d_bar
        # y = y_hat + rho*d_bar
        d_bar *= rho
        y_hat += d_bar
        state.x, state.y, state.u = x_hat, y_hat, msgs
        # u and v move only on rounds, so the residual can only change here
        state.max_dual_residual = max(state.max_dual_residual, state.dual_residual())
        return True
    state.x = x_hat
    state.y = y_hat
    return False


def lyapunov(xu, yv, ref, params):
    """Weighted squared distance of (x, y, u, v) to the saddle point, per iterate of a stack.

    `xu` is an (R, 2n, d) stack of (x; u) and `yv` an (R, 2, d) stack of
    (y; v), one row per iterate; returns the (R,) values.  One iterate's
    (2n, d) and (2, d) arrays give its value, as a numpy float.
    """
    n = xu.shape[-2] // 2
    # one subtract, square and sum for (x; u) and one for (y; v): each row sum of
    # the (R, 2, size) view is the same pairwise sum as that block's own sum
    xu_star, yv_star = ref.stacked
    dxu = xu - xu_star
    dxu *= dxu
    dyv = yv - yv_star
    dyv *= dyv
    sq_x, sq_u = np.add.reduce(dxu.reshape(*xu.shape[:-2], 2, -1), -1).T
    sq_y, sq_v = np.add.reduce(dyv.reshape(*yv.shape[:-2], 2, -1), -1).T
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
