"""Small random configs either fail cleanly before training or score sanely."""

import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedmoe.config import ConfigError, ExperimentConfig
from fedmoe.data import DataError
from fedmoe.diffcore import Adam
from fedmoe.federation.server import STRATEGY_IDS
from fedmoe.harness import run_experiment


def widths(min_size):
    return st.lists(st.integers(1, 4), min_size=min_size, max_size=2).map(tuple)


configs = st.builds(
    ExperimentConfig,
    rounds=st.integers(1, 3),
    local_epochs=st.integers(1, 2),
    seed=st.integers(0, 50),
    comm_per_batch=st.booleans(),
    scenarios=st.integers(1, 3),
    tasks=st.integers(1, 3),
    experts=st.integers(1, 3),
    d_feat=st.integers(1, 4),
    expert_widths=widths(1),
    tower_widths=widths(0),
    d_emb=st.integers(1, 4),
    dropout=st.sampled_from([0.0, 0.2]),
    # the partition of 20-80 samples keeps 14-56 rows for training
    batch_size=st.integers(2, 64),
    c=st.sampled_from([0.0, 0.4]),
    eta_psi=st.sampled_from([0.0, 0.01]),
    samples_per_scenario=st.integers(20, 80),
    temperature=st.sampled_from([1.0, 0.05]),  # 0.05 can leave a test partition with one class
)


@pytest.mark.parametrize("strategy", STRATEGY_IDS)
@settings(max_examples=8, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs)
def test_run_fails_before_training_or_reports_valid_scores(strategy, config):
    steps = []
    step = Adam.step

    def counted(self):
        steps.append(None)
        step(self)

    with tempfile.TemporaryDirectory() as out, mock.patch.object(Adam, "step", counted):
        config = config.with_overrides(strategy=strategy, out_dir=out)
        try:
            run_experiment(config)
        except (ConfigError, DataError):
            assert not steps, "the run trained before it failed"
            return
        with open(Path(out) / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    assert steps
    assert len(rows) == config.rounds * config.scenarios * config.tasks
    for row in rows:
        assert 0.0 <= float(row["auc"]) <= 1.0, row
        assert math.isfinite(float(row["bce"])), row
