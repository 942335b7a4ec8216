"""Federated round protocol: normalization, coordination, personalization."""

from .client import ClientSim, PersonalizationState
from .coordination import CoordinationResult, project_simplex, solve_conflict_weights
from .fedbn import fedbn_normalize
from ..keys import SharedKey
from .server import (
    STRATEGY_IDS,
    FederationServer,
    ServerDirective,
    StrategyPlan,
    resolve_strategy,
    upload_keys,
)
from .snapshot import read_snapshot, write_snapshot

__all__ = [
    "STRATEGY_IDS",
    "ClientSim",
    "CoordinationResult",
    "FederationServer",
    "PersonalizationState",
    "ServerDirective",
    "SharedKey",
    "StrategyPlan",
    "fedbn_normalize",
    "project_simplex",
    "read_snapshot",
    "resolve_strategy",
    "solve_conflict_weights",
    "upload_keys",
    "write_snapshot",
]
