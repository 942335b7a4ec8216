"""Evaluation: pairwise AUC with half credit for ties, per-client reports.

AUC here is the Mann-Whitney statistic: the fraction of (positive, negative)
score pairs with the positive above the negative, a tied pair counting one
half. A model that scores every sample alike (a collapsed one) gets 0.5,
chance level, not 0. Both implementations count 2 * wins + ties as an
integer and divide once, so they return the same float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import RecordSet
from .diffcore import Tensor, bce, no_grad

__all__ = [
    "UndefinedAUCError",
    "EvalReport",
    "auc_bruteforce",
    "auc_fast",
    "evaluate_client",
]

# Rows per evaluation forward. Scores do not depend on it; it bounds the
# stacked (T, N, rows, d) expert activations an evaluation holds.
EVAL_CHUNK = 1024


class UndefinedAUCError(ValueError):
    """AUC needs at least one positive and one negative sample."""


def _check_inputs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError(f"scores and labels length differ: {scores.shape} vs {labels.shape}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedAUCError("AUC undefined: test data contains a single class")
    return pos, neg


def auc_bruteforce(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Exact double loop over all positive-negative pairs (oracle)."""
    pos, neg = _check_inputs(np.asarray(scores), np.asarray(labels))
    half_credits = 0
    for p in pos.tolist():
        for n in neg.tolist():
            if p > n:
                half_credits += 2
            elif p == n:
                half_credits += 1
    return half_credits / (2 * pos.size * neg.size)


def auc_fast(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Sort-and-count equivalent of auc_bruteforce: same integer count of half credits."""
    pos, neg = _check_inputs(np.asarray(scores), np.asarray(labels))
    neg_sorted = np.sort(neg)
    # 'left' counts the negatives strictly below each positive and 'right'
    # those below or tied: their sum is 2 * wins + ties.
    below = np.searchsorted(neg_sorted, pos, side="left").sum()
    below_or_tied = np.searchsorted(neg_sorted, pos, side="right").sum()
    return int(below + below_or_tied) / (2 * pos.size * neg.size)


@dataclass(frozen=True)
class EvalReport:
    auc: tuple[float, ...]  # per task
    bce: tuple[float, ...]  # per task
    n_samples: int


def evaluate_client(model, records: RecordSet) -> EvalReport:
    """Score a test partition in eval mode; pure (no parameter or BN mutation).

    A task's BCE is the training loss's ``bce`` of its score column, so
    evaluation clamps the probabilities as training does.
    """
    n = len(records)
    scores = np.empty((n, model.spec.n_tasks))
    with no_grad():
        for start in range(0, n, EVAL_CHUNK):
            x = records.features[start : start + EVAL_CHUNK]
            scores[start : start + x.shape[0]] = model.forward(x, train=False).data.T
    aucs = tuple(auc_fast(scores[:, i], records.labels[:, i]) for i in range(model.spec.n_tasks))
    bces = tuple(bce(Tensor(scores[:, i]), records.labels[:, i]).item() for i in range(model.spec.n_tasks))
    return EvalReport(auc=aucs, bce=bces, n_samples=n)
