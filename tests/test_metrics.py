import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoe import metrics
from fedmoe.data import SyntheticSpec, synthesize
from fedmoe.metrics import UndefinedAUCError, auc_bruteforce, auc_fast, evaluate_client
from fedmoe.model import ClientModel, ModelSpec


class TestBruteForce:
    def test_perfect_separation(self):
        assert auc_bruteforce([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_hand_enumeration(self):
        # pairs: (.9,.5)+ (.9,.1)+ (.4,.5)- (.4,.1)+  -> 3/4
        assert auc_bruteforce([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0]) == 0.75

    def test_all_ties_score_one_half(self):
        assert auc_bruteforce([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5

    def test_tie_earns_half_credit(self):
        # pairs: (.9,.4)+ (.9,.1)+ (.4,.4)= (.4,.1)+  -> 3.5/4
        assert auc_bruteforce([0.9, 0.4, 0.4, 0.1], [1, 1, 0, 0]) == 0.875

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedAUCError):
            auc_bruteforce([0.1, 0.2], [1, 1])


class TestFastEquivalence:
    def test_hand_case(self):
        assert auc_fast([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0]) == 0.75

    def test_all_ties(self):
        assert auc_fast([0.3, 0.3], [1, 0]) == 0.5
        assert auc_fast(np.full(60, 0.7), np.arange(60) % 2) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_bruteforce_with_ties(self, data):
        n = data.draw(st.integers(2, 64))
        # coarse grid of scores forces frequent ties
        scores = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if min(labels) == max(labels):
            labels[0] = 1 - labels[0]
        scores = np.array(scores) / 9.0
        assert auc_fast(scores, labels) == auc_bruteforce(scores, labels)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        assert auc_fast(scores, labels) == auc_fast(np.exp(scores) + 5.0, labels)

    def test_relabel_complement(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)  # continuous: tie-free
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        a = auc_fast(scores, labels)
        assert auc_fast(scores, 1 - labels) == pytest.approx(1.0 - a, abs=1e-12)

    def test_relabel_complement_holds_with_ties(self):
        rng = np.random.default_rng(2)
        scores = rng.integers(0, 4, size=50) / 4.0  # four levels: many ties
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        a = auc_fast(scores, labels)
        assert auc_fast(scores, 1 - labels) == pytest.approx(1.0 - a, abs=1e-12)


class TestEvaluateClient:
    def build(self):
        spec = ModelSpec(scenario=0, n_scenarios=2, n_tasks=2, n_experts=2,
                         d_feat=6, expert_widths=(8,), tower_widths=(4,), dropout=0.2)
        model = ClientModel(spec, init_seed=3)
        shard = synthesize(
            SyntheticSpec(n_scenarios=2, n_tasks=2, d_feat=6, samples_per_scenario=700, seed=8)
        )[0][0]
        return model, shard

    def test_untrained_model_near_chance_on_big_sample(self):
        spec = ModelSpec(scenario=0, n_scenarios=2, n_tasks=2, n_experts=2,
                         d_feat=6, expert_widths=(8,), tower_widths=(4,))
        model = ClientModel(spec, init_seed=3)
        shard = synthesize(
            SyntheticSpec(n_scenarios=2, n_tasks=2, d_feat=6, samples_per_scenario=67000, seed=8)
        )[0][0]
        report = evaluate_client(model, shard.test)
        for auc in report.auc:
            assert 0.45 <= auc <= 0.55

    def test_evaluation_is_pure(self):
        model, shard = self.build()
        before = {name: p.data.copy() for name, p in model.buffer.params.items()}
        rm = model.bn_in.running_mean.copy()
        rv = model.bn_in.running_var.copy()
        r1 = evaluate_client(model, shard.test)
        r2 = evaluate_client(model, shard.test)
        assert r1 == r2
        for name, p in model.buffer.params.items():
            assert np.array_equal(before[name], p.data)
        assert np.array_equal(rm, model.bn_in.running_mean)
        assert np.array_equal(rv, model.bn_in.running_var)

    def test_report_shape(self):
        model, shard = self.build()
        report = evaluate_client(model, shard.test)
        assert len(report.auc) == 2 and len(report.bce) == 2
        assert report.n_samples == len(shard.test)

    def test_report_does_not_depend_on_the_chunk(self, monkeypatch):
        model, _ = self.build()
        test = synthesize(
            SyntheticSpec(n_scenarios=2, n_tasks=2, d_feat=6, samples_per_scenario=15000, seed=8)
        )[0][0].test
        assert len(test) > 2 * metrics.EVAL_CHUNK  # several chunks, the last one partial
        chunked = evaluate_client(model, test)
        monkeypatch.setattr(metrics, "EVAL_CHUNK", len(test))
        assert evaluate_client(model, test) == chunked
