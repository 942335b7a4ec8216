import re

import numpy as np
import pytest

from fedmoe.data import (
    CsvSchema,
    DataError,
    RecordSet,
    SyntheticSpec,
    batch_iter,
    load_csv,
    mixing_matrix,
    synthesize,
    write_csv,
)
from fedmoe.metrics import auc_fast


def spec(**kwargs):
    defaults = dict(n_scenarios=3, n_tasks=2, d_feat=8, samples_per_scenario=400, seed=5)
    defaults.update(kwargs)
    return SyntheticSpec(**defaults)


class TestSynthetic:
    def test_rho_zero_gives_identical_coefficients(self):
        _, truth = synthesize(spec(rho=0.0))
        for j in range(3):
            assert np.array_equal(truth.theta_scenario[j], truth.theta_global)

    def test_low_temperature_is_nearly_separable(self):
        shards, truth = synthesize(spec(samples_per_scenario=10000, temperature=1e-3, rho=0.3))
        shard = shards[0]
        scores = shard.test.features @ truth.theta_scenario[0][0]
        assert auc_fast(scores, shard.test.labels[:, 0]) >= 0.95

    def test_same_seed_byte_identical(self):
        a = synthesize(spec())[0]
        b = synthesize(spec())[0]
        for sa, sb in zip(a, b):
            assert sa.checksum() == sb.checksum()

    def test_different_seed_differs(self):
        assert synthesize(spec())[0][0].checksum() != synthesize(spec(seed=6))[0][0].checksum()

    def test_split_sizes_and_disjoint_union(self):
        shard = synthesize(spec(samples_per_scenario=100))[0][0]
        assert len(shard.train) == 70
        assert len(shard.val) == 15
        assert len(shard.test) == 15
        stacked = np.vstack([shard.train.features, shard.val.features, shard.test.features])
        assert stacked.shape == (100, 8)
        assert len(np.unique(stacked, axis=0)) == 100  # continuous features: all rows distinct

    def test_label_means_not_degenerate(self):
        for shard in synthesize(spec(samples_per_scenario=2000))[0]:
            means = shard.train.labels.mean(axis=0)
            assert (means > 0.05).all() and (means < 0.95).all()

    def test_mixing_matrix_bounds(self):
        m = mixing_matrix(2, 0.0)
        assert np.array_equal(m, np.eye(2))
        with pytest.raises(DataError):
            mixing_matrix(2, 1.5)

    def test_negative_rho_rejected(self):
        with pytest.raises(DataError, match="rho"):
            spec(rho=-0.1)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_task_mix_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(DataError, match="task_mix_alpha"):
            spec(task_mix_alpha=alpha)


class TestCsv:
    SCHEMA = CsvSchema(feature_columns=("f0", "f1"), label_columns=("ctr", "ctcvr"))

    def write_toy(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("f0,f1,ctr,ctcvr\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")

    def test_toy_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        rows = [(0.1, 0.2, 1, 0)] * 7 + [(0.3, 0.4, 0, 1)] * 3
        self.write_toy(path, rows)
        shard = load_csv(str(path), self.SCHEMA)
        assert len(shard.train) + len(shard.val) + len(shard.test) == 10
        assert shard.train.features.shape[1] == 2

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("f0,f1,ctr\n0.1,0.2,1\n")
        with pytest.raises(DataError, match="ctcvr"):
            load_csv(str(path), self.SCHEMA)

    def test_nonbinary_label_reports_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        self.write_toy(path, [(0.1, 0.2, 1, 0), (0.1, 0.2, 2, 0)])
        with pytest.raises(DataError, match=":3:"):
            load_csv(str(path), self.SCHEMA)

    def test_nonnumeric_feature_reports_line(self, tmp_path):
        path = tmp_path / "bad3.csv"
        self.write_toy(path, [(0.1, "oops", 1, 0)])
        with pytest.raises(DataError, match=":2:"):
            load_csv(str(path), self.SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_nonfinite_feature_names_file_line_and_column(self, tmp_path, cell):
        path = tmp_path / "bad4.csv"
        self.write_toy(path, [(0.1, 0.2, 1, 0), (0.1, 0.2, 0, 1), (cell, 0.2, 1, 1)])
        with pytest.raises(DataError, match=rf"bad4\.csv:4: feature column 'f0' must be finite, got '{cell}'"):
            load_csv(str(path), self.SCHEMA)

    @pytest.mark.parametrize(
        "features, labels, message",
        [(("f0", "f0"), ("ctr",), "feature columns name ['f0'] more than once"),
         (("f0",), ("ctr", "ctcvr", "ctr"), "label columns name ['ctr'] more than once")],
        ids=["feature", "label"],
    )
    def test_column_named_twice_is_rejected_by_name(self, features, labels, message):
        with pytest.raises(DataError, match=re.escape(message)):
            CsvSchema(feature_columns=features, label_columns=labels)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        records = RecordSet(rng.normal(0, 1e3, (25, 2)), (rng.random((25, 2)) < 0.5).astype(float))
        path = tmp_path / "rt.csv"
        write_csv(str(path), records, self.SCHEMA)
        shard = load_csv(str(path), self.SCHEMA)
        parts = (shard.train, shard.val, shard.test)
        assert np.array_equal(np.concatenate([part.features for part in parts]), records.features)
        assert np.array_equal(np.concatenate([part.labels for part in parts]), records.labels)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        """A file saved as "UTF-8 with BOM" reads as the same file without it."""
        rng = np.random.default_rng(9)
        records = RecordSet(rng.normal(0, 1, (12, 2)), (rng.random((12, 2)) < 0.5).astype(float))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_csv(str(plain), records, self.SCHEMA)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(str(plain), self.SCHEMA), load_csv(str(marked), self.SCHEMA)
        assert np.array_equal(a.train.features, b.train.features) and np.array_equal(a.test.labels, b.test.labels)


class TestBatchIter:
    def records(self, n):
        return RecordSet(np.arange(n, dtype=float).reshape(n, 1), np.zeros((n, 1)))

    def test_final_short_batch_kept_when_two(self):
        sizes = [x.shape[0] for x, _ in batch_iter(self.records(10), 4)]
        assert sizes == [4, 4, 2]

    def test_final_singleton_dropped(self):
        sizes = [x.shape[0] for x, _ in batch_iter(self.records(9), 4)]
        assert sizes == [4, 4]

    def test_shuffle_deterministic_under_seed(self):
        def order(seed):
            return np.vstack([x for x, _ in batch_iter(self.records(10), 5, seed=seed)])

        assert np.array_equal(order(3), order(3))
        assert not np.array_equal(order(3), order(4))
        assert np.array_equal(np.sort(order(3).ravel()), np.arange(10.0))  # a permutation of the records

    def test_batch_size_floor(self):
        with pytest.raises(DataError, match="batch size"):
            next(batch_iter(self.records(10), 1))
