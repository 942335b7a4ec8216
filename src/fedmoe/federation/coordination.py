"""Conflict-coordinated update composition.

Given per-source parameter increments, pick the update inside a ball of
radius c * ||mean increment|| around the mean that maximizes the worst-case
inner product with the individual increments. The dual is a minimization
over simplex weights w of

    F(w) = <U_w, mean> + sqrt(phi) * ||U_w||,
    U_w = sum_m w_m * delta_m,   phi = c^2 * ||mean||^2,

the conflict-averse (CAGrad) dual. It is solved by one accelerated
projected-gradient loop: each step size comes from backtracking on the
quadratic upper bound, and the momentum restarts whenever F would rise. The
loop stops once the Frank-Wolfe gap

    gap(w) = <grad F(w), w> - min_i grad F(w)_i

falls below GAP_TOL * (||b||_inf + sqrt(phi) * max_m ||delta_m||), with
b_m = <delta_m, mean>, or after MAX_ITERS steps. F is convex, so the gap
bounds F(w) - min F from above. The solver then composes the coordinated
update U* = mean + sqrt(phi) * U_w / ||U_w||, which sits exactly on the
ball boundary whenever U_w is nonzero, and falls back to the mean when U_w
or phi is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CoordinationResult", "project_simplex", "solve_conflict_weights", "objective"]

MAX_ITERS = 500
GAP_TOL = 1e-6
NORM_FLOOR = 1e-12


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1} (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum() - 1.0
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class CoordinationResult:
    weights: np.ndarray  # simplex weights, one per increment
    u_star: np.ndarray  # coordinated update, shaped like the mean increment
    iterations: int
    objective: float


def objective(weights: np.ndarray, deltas: np.ndarray, mean_delta: np.ndarray, c: float) -> float:
    """F(w) for a stacked (M, L) delta matrix; the reference for the solver's own evaluation."""
    u_w = deltas.T @ weights
    phi = (c * c) * float(mean_delta @ mean_delta)
    return float(u_w @ mean_delta + np.sqrt(phi) * np.linalg.norm(u_w))


def solve_conflict_weights(deltas: np.ndarray, mean_delta: np.ndarray, c: float) -> CoordinationResult:
    """Minimize F(w) over the simplex and compose U*; ``deltas`` stacks one increment per row.

    All-zero deltas short-circuit to uniform weights and U* = mean.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must be in [0, 1), got {c}")
    if len(deltas) == 0:
        raise ValueError("need at least one increment")
    shape = np.shape(mean_delta)
    d = np.asarray(deltas, dtype=np.float64)
    d = d.reshape(d.shape[0], -1)  # (M, L)
    mean_delta = np.asarray(mean_delta, dtype=np.float64).ravel()
    if mean_delta.shape[0] != d.shape[1]:
        raise ValueError("mean increment length does not match the deltas")
    if not (np.isfinite(d).all() and np.isfinite(mean_delta).all()):
        raise ValueError("increments must be finite")

    b = d @ mean_delta
    phi = (c * c) * float(mean_delta @ mean_delta)
    sqrt_phi = np.sqrt(phi)
    max_norm = float(np.linalg.norm(d, axis=1).max())

    w = np.full(d.shape[0], 1.0 / d.shape[0])
    if max_norm <= NORM_FLOOR:
        return CoordinationResult(weights=w, u_star=mean_delta.reshape(shape).copy(), iterations=0, objective=0.0)
    scale = float(np.abs(b).max()) + sqrt_phi * max_norm  # sets the tolerance and the first step
    tol = GAP_TOL * scale

    def value(x: np.ndarray) -> tuple[float, tuple[np.ndarray, float]]:
        """F(x), and U_x = D^T x with its norm, from which grad F(x) follows."""
        u = d.T @ x
        norm = math.sqrt(float(u @ u))
        return float(u @ mean_delta + sqrt_phi * norm), (u, norm)

    def grad(at: tuple[np.ndarray, float]) -> np.ndarray:
        u, norm = at
        if norm <= NORM_FLOOR:
            return b  # drop the norm term's gradient at the kink
        return b + (sqrt_phi / norm) * (d @ u)

    def step(y: np.ndarray, f_y: float, g_y: np.ndarray, lip: float):
        # Backtrack until F lies under the quadratic model around y.
        while True:
            x = project_simplex(y - g_y / lip)
            f_x, at_x = value(x)
            s = x - y
            if f_x <= f_y + float(g_y @ s) + 0.5 * lip * float(s @ s):
                return x, f_x, at_x, lip
            lip *= 2.0

    f, at = value(w)
    g = grad(at)
    y, f_y, g_y = w, f, g
    t = 1.0
    lip = scale
    iterations = 0
    while iterations < MAX_ITERS and float(g @ w - g.min()) > tol:
        iterations += 1
        x, f_x, at_x, lip = step(y, f_y, g_y, max(0.5 * lip, tol))  # try a longer step first
        if f_x > f:  # the momentum overshot: restart from the last iterate
            t = 1.0
            x, f_x, at_x, lip = step(w, f, g, lip)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x + ((t - 1.0) / t_next) * (x - w)
        w, f, at, t = x, f_x, at_x, t_next
        g = grad(at)
        f_y, at_y = value(y)
        g_y = grad(at_y)

    u_w, u_w_norm = at
    if u_w_norm < NORM_FLOOR or phi == 0.0:
        u_star = mean_delta.copy()
    else:
        u_star = mean_delta + (sqrt_phi / u_w_norm) * u_w
    return CoordinationResult(weights=w, u_star=u_star.reshape(shape), iterations=iterations, objective=f)
