import numpy as np
import pytest

from fedmoe.federation.coordination import GAP_TOL, MAX_ITERS, objective, project_simplex, solve_conflict_weights


def solve(deltas, c: float):
    """Solve over the rows of ``deltas`` around their mean; returns (result, mean)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    mean_delta = deltas.mean(axis=0)
    return solve_conflict_weights(deltas, mean_delta, c), mean_delta


def grid_minimum(deltas: np.ndarray, mean_delta: np.ndarray, c: float, resolution: float = 1e-3) -> float:
    """Dense simplex grid search; the independent oracle for the solver."""
    m = deltas.shape[0]
    steps = int(round(1.0 / resolution))
    if m == 1:
        weights = np.array([[1.0]])
    elif m == 2:
        w0 = np.linspace(0.0, 1.0, steps + 1)
        weights = np.stack([w0, 1.0 - w0], axis=1)
    elif m == 3:
        idx = np.arange(steps + 1)
        ii, jj = np.meshgrid(idx, idx, indexing="ij")
        mask = ii + jj <= steps
        a = ii[mask] / steps
        b = jj[mask] / steps
        weights = np.stack([a, b, 1.0 - a - b], axis=1)
    else:
        raise ValueError("grid oracle supports at most 3 deltas")
    gram = deltas @ deltas.T
    lin = deltas @ mean_delta
    phi = c * c * float(mean_delta @ mean_delta)
    quad = np.einsum("pi,ij,pj->p", weights, gram, weights)
    values = weights @ lin + np.sqrt(phi) * np.sqrt(np.maximum(quad, 0.0))
    return float(values.min())


class TestProjection:
    def test_inside_point_unchanged(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(w), w)

    def test_projection_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(0, 3, int(rng.integers(1, 9)))
            p = project_simplex(v)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) < 1e-9

    def test_matches_bruteforce_projection(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(0, 2, 4)
            p = project_simplex(v)
            # oracle: dense search over the simplex grid
            best, best_d = None, np.inf
            steps = 60
            for a in range(steps + 1):
                for b in range(steps + 1 - a):
                    for c in range(steps + 1 - a - b):
                        d = steps - a - b - c
                        w = np.array([a, b, c, d]) / steps
                        dist = float(((w - v) ** 2).sum())
                        if dist < best_d:
                            best, best_d = w, dist
            assert float(((p - v) ** 2).sum()) <= best_d + 1e-9


class TestSolver:
    def test_single_delta_closed_form(self):
        delta = np.array([3.0, 4.0])
        result = solve_conflict_weights(delta[None], delta, c=0.5)
        assert np.array_equal(result.weights, [1.0])
        assert np.array_equal(delta[None].T @ result.weights, delta)  # U_w
        assert result.objective == pytest.approx(37.5)  # <d, d> + (0.5 ||d||) ||d||
        assert np.allclose(result.u_star, 1.5 * delta, atol=1e-12)

    def test_opposite_deltas_cancel(self):
        d = np.array([1.0, -2.0, 0.5])
        result, mean_delta = solve([d, -d], c=0.5)
        assert np.linalg.norm(mean_delta) == pytest.approx(0.0)  # phi = c^2 ||mean||^2 = 0
        assert np.linalg.norm(result.u_star) == pytest.approx(0.0)

    def test_all_zero_deltas_degenerate(self):
        result, _ = solve([np.zeros(3), np.zeros(3)], c=0.4)
        assert np.array_equal(result.u_star, np.zeros(3))
        assert np.array_equal(result.weights, [0.5, 0.5])
        assert result.objective == 0.0 and result.iterations == 0

    def test_u_star_keeps_the_mean_increments_shape(self):
        rng = np.random.default_rng(9)
        deltas = rng.normal(0, 1, (4, 3, 2))
        mean_delta = deltas.mean(axis=0)
        result = solve_conflict_weights(deltas, mean_delta, 0.4)
        flat = solve_conflict_weights(deltas.reshape(4, -1), mean_delta.ravel(), 0.4)
        assert result.u_star.shape == (3, 2)
        assert np.array_equal(result.u_star.ravel(), flat.u_star)

    def test_non_finite_increments_rejected(self):
        deltas = np.array([[1.0, np.nan], [0.5, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            solve_conflict_weights(deltas, np.array([0.75, 1.0]), c=0.4)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            m = int(rng.integers(1, 4))
            dim = int(rng.integers(2, 13))
            deltas = rng.normal(0, 10.0 ** rng.uniform(-1, 1), (m, dim))
            c = float(rng.uniform(0, 0.9))
            mean_delta = deltas.mean(axis=0)
            result = solve_conflict_weights(deltas, mean_delta, c)
            assert result.objective - grid_minimum(deltas, mean_delta, c) < 1e-4

    def test_frank_wolfe_gap_within_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(2, 31))
            dim = int(rng.integers(1, 65))
            deltas = rng.normal(0, 10.0 ** rng.uniform(-3, 2), (m, dim))
            if rng.random() < 0.3:  # mostly agreeing increments
                deltas += rng.normal(0, 3.0 * deltas.std(), dim)
            c = 0.0 if rng.random() < 0.1 else float(rng.uniform(0, 0.95))  # c = 0: F is linear
            assert_gap_within_tolerance(deltas, c)
        # Near-cancelling increments, as the expert scenario weights' from
        # round 2 on: zero-sum deviations around a mean 1e-4 times as long as
        # the longest deviation. A solver that takes ||D^T w|| as sqrt(w^T G w)
        # loses that mean to rounding and can run to MAX_ITERS here.
        for _ in range(20):
            deviations = rng.normal(0, 1, (16, 512))
            deviations -= deviations.mean(axis=0)
            mean = rng.normal(0, 1, 512)
            mean *= 1e-4 * np.linalg.norm(deviations, axis=1).max() / np.linalg.norm(mean)
            assert_gap_within_tolerance(deviations + mean, 0.4)


def assert_gap_within_tolerance(deltas, c):
    mean_delta = deltas.mean(axis=0)
    result = solve_conflict_weights(deltas, mean_delta, c)
    w = result.weights
    assert (w >= 0).all() and abs(w.sum() - 1.0) < 1e-12
    # gradient of F at w, recomputed here from the definition
    u_w = deltas.T @ w
    sqrt_phi = c * np.linalg.norm(mean_delta)
    grad = deltas @ mean_delta + sqrt_phi * (deltas @ u_w) / np.linalg.norm(u_w)
    gap = float(grad @ w - grad.min())
    scale = np.abs(deltas @ mean_delta).max() + sqrt_phi * np.linalg.norm(deltas, axis=1).max()
    assert result.iterations < MAX_ITERS
    assert gap <= GAP_TOL * scale


class TestCompose:
    def test_zero_radius_returns_mean(self):
        rng = np.random.default_rng(2)
        result, mean_delta = solve(rng.normal(0, 1, (4, 6)), c=0.0)
        assert np.array_equal(result.u_star, mean_delta)

    def test_single_delta_scaling(self):
        delta = np.array([1.0, 2.0, 2.0])
        for c in (0.1, 0.4, 0.8):
            result, _ = solve([delta], c=c)
            assert np.allclose(result.u_star, (1.0 + c) * delta, atol=1e-12)

    def test_ball_boundary_tightness(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            deltas = rng.normal(0, 2, (m, 10))
            c = float(rng.uniform(0.05, 0.9))
            result, mean_delta = solve(deltas, c)
            if np.linalg.norm(deltas.T @ result.weights) > 1e-12:  # U_w nonzero
                radius = np.linalg.norm(result.u_star - mean_delta)
                assert radius == pytest.approx(c * np.linalg.norm(mean_delta), abs=1e-6)

    def test_worst_pair_improvement(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            deltas = rng.normal(0, 1, (m, 8))
            result, mean_delta = solve(deltas, c=0.4)
            at_star = min(float(d @ result.u_star) for d in deltas)
            at_mean = min(float(d @ mean_delta) for d in deltas)
            assert at_star >= at_mean - 1e-6

    def test_continuity_in_c(self):
        rng = np.random.default_rng(5)
        deltas = rng.normal(0, 1, (3, 5))
        norms = []
        for c in (0.2, 0.1, 0.05, 0.01, 0.001):
            result, mean_delta = solve(deltas, c)
            norms.append(np.linalg.norm(result.u_star - mean_delta))
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2
        exact, mean_delta = solve(deltas, 0.0)
        assert np.array_equal(exact.u_star, mean_delta)


class TestObjectiveHelper:
    def test_matches_solver_value(self):
        rng = np.random.default_rng(6)
        deltas = rng.normal(0, 1, (3, 5))
        mean_delta = deltas.mean(axis=0)
        result = solve_conflict_weights(deltas, mean_delta, 0.3)
        assert objective(result.weights, deltas, mean_delta, 0.3) == pytest.approx(result.objective)
