import numpy as np
import pytest

from fedmoe.federation import fedbn as fedbn_mod
from fedmoe.federation.fedbn import EPS, fedbn_normalize
from fedmoe.federation.server import FederationServer, resolve_strategy
from fedmoe.model import SharedKey


def plain_mean(uploads):
    """The server's plain-average path: one uncoordinated key, one upload per client."""
    key = SharedKey("experts.l0.w_s")
    server = FederationServer(resolve_strategy("a1"))
    return server.aggregate({j: {key: u} for j, u in enumerate(uploads)}, 1).means[key]


class TestNormalize:
    def test_identical_uploads_collapse_to_beta(self):
        normalized, beta = fedbn_normalize(np.full((4, 3, 2), 5.0))
        for n in normalized:
            assert np.array_equal(n, beta)
        assert np.array_equal(beta, np.full((3, 2), 5.0))

    def test_symmetric_pair_with_unit_affine(self):
        uploads = np.array([[-1.0], [1.0]])
        normalized, beta = fedbn_normalize(uploads)
        assert np.allclose(normalized[0], [-1.0], atol=1e-4)
        assert np.allclose(normalized[1], [1.0], atol=1e-4)
        assert normalized[1, 0] == pytest.approx(1.0 / np.sqrt(1.0 + EPS))  # pooled variance 1
        assert np.array_equal(beta, [0.0])

    def test_collapse_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(2, 13))
            shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            uploads = rng.normal(rng.normal(0, 2), 5, (m, *shape))
            normalized, beta = fedbn_normalize(uploads)
            assert np.abs(normalized.mean(axis=0) - beta).max() < 1e-9

    def test_collapse_identity_survives_tiny_eps(self, monkeypatch):
        """The constant epsilon is not what keeps the identity: it holds with 1e-30 in its place."""
        monkeypatch.setattr(fedbn_mod, "EPS", 1e-30)
        rng = np.random.default_rng(1)
        for spread in (0.0, 1e-17, 1e-13):  # none, about one ulp of 0.1, a few thousand ulps
            uploads = 0.1 + spread * rng.normal(0, 1, (3, 4, 4))
            normalized, beta = fedbn_normalize(uploads)
            assert np.abs(normalized.mean(axis=0) - beta).max() < 1e-9

    def test_requires_two_uploads(self):
        with pytest.raises(ValueError, match=">= 2 uploads"):
            fedbn_normalize(np.ones((1, 2)))


class TestAverage:
    def test_mean_of_normalized_equals_beta(self):
        rng = np.random.default_rng(2)
        uploads = rng.normal(0, 1, (6, 5))
        normalized, beta = fedbn_normalize(uploads)
        assert np.abs(normalized.mean(axis=0) - beta).max() < 1e-9
        assert np.array_equal(beta, uploads.mean(axis=0))

    def test_beta_is_the_pooled_mean_of_all_rows_not_a_mean_of_client_means(self):
        """3 clients x 3 rows: dividing by P and then by C rounds differently from one mean over the C·P rows."""
        stack = np.random.default_rng(5).normal(0, 1, (3, 3, 4, 4))  # (C, P, ...)
        rows = stack.reshape(9, 4, 4)
        two_stage = stack.mean(axis=1).mean(axis=0)
        assert not np.array_equal(two_stage, rows.mean(axis=0))  # the draw separates the two
        _, beta = fedbn_normalize(rows)
        assert np.array_equal(beta, rows.mean(axis=0))

    def test_single_upload_is_itself(self):
        v = np.array([1.5, -2.0])
        assert np.array_equal(plain_mean([v]), v)

    def test_plain_mean_baseline_path(self):
        assert np.array_equal(plain_mean([np.array([2.0, 1.0]), np.array([4.0, 1.0])]), [3.0, 1.0])
