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
        uploads = np.full((4, 3, 2), 5.0)
        betas = np.stack([np.full((3, 2), b) for b in (0.1, 0.2, 0.3, 0.4)])
        normalized, beta = fedbn_normalize(uploads, betas)
        for n in normalized:
            assert np.allclose(n, beta, atol=1e-12)
        assert np.allclose(beta, 0.25)

    def test_symmetric_pair_with_unit_affine(self):
        uploads = np.array([[-1.0], [1.0]])
        normalized, beta = fedbn_normalize(uploads, np.zeros((2, 1)))
        assert np.allclose(normalized[0], [-1.0], atol=1e-4)
        assert np.allclose(normalized[1], [1.0], atol=1e-4)
        assert normalized[1, 0] == pytest.approx(1.0 / np.sqrt(1.0 + EPS))  # pooled variance 1
        assert np.array_equal(beta, [0.0])

    def test_collapse_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(2, 13))
            s = int(rng.integers(2, m + 1))
            shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            uploads = rng.normal(0, 5, (m, *shape))
            betas = rng.normal(0, 2, (s, *shape))
            normalized, beta = fedbn_normalize(uploads, betas)
            assert np.abs(normalized.mean(axis=0) - beta).max() < 1e-9

    def test_collapse_identity_survives_tiny_eps(self, monkeypatch):
        """The constant epsilon is not what keeps the identity: it holds with 1e-30 in its place."""
        monkeypatch.setattr(fedbn_mod, "EPS", 1e-30)
        rng = np.random.default_rng(1)
        uploads = np.full((3, 4, 4), 0.1)  # zero spread
        betas = rng.normal(0, 1, (3, 4, 4))
        normalized, beta = fedbn_normalize(uploads, betas)
        assert np.abs(normalized.mean(axis=0) - beta).max() < 1e-9

    def test_requires_two_uploads(self):
        with pytest.raises(ValueError, match=">= 2 uploads"):
            fedbn_normalize(np.ones((1, 2)), np.zeros((1, 2)))


class TestAverage:
    def test_mean_of_normalized_equals_beta(self):
        rng = np.random.default_rng(2)
        uploads = rng.normal(0, 1, (6, 5))
        betas = rng.normal(0, 1, (3, 5))
        normalized, beta = fedbn_normalize(uploads, betas)
        assert np.abs(normalized.mean(axis=0) - beta).max() < 1e-9
        assert np.array_equal(beta, betas.mean(axis=0))

    def test_single_upload_is_itself(self):
        v = np.array([1.5, -2.0])
        assert np.array_equal(plain_mean([v]), v)

    def test_plain_mean_baseline_path(self):
        assert np.array_equal(plain_mean([np.array([2.0, 1.0]), np.array([4.0, 1.0])]), [3.0, 1.0])
