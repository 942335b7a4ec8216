"""Server-side round protocol and aggregation strategies.

Strategy table (expert scenario-weight set / tower set):

    main    coordinated / coordinated   the full pipeline
    a1      plain       / plain         plain averaging of both sets
    a2      plain       / coordinated   plain mean over ALL expert params
    a3      coordinated / coordinated   identical configuration to main
                                        (the ablation suite runs it once)
    a4      none        / plain         experts untouched, no proximal pull
    fedavg  plain       / plain         plain mean over every parameter
    local   none        / none          no aggregation at all

"coordinated" means, per key: stack the clients' (P, ...) uploads as
(C, P, ...), normalize its C·P rows server-side as one batch around the
clients' averaged own-upload means, average them, difference them against
the key's previous-round rows, solve the simplex weighting over the rows,
and ship one mean increment plus one coordinated update, for personalized
application on each client. A key is a coordination pool: an expert
layer's scenario weights (P = N experts) or one task's tower tensor
(P = 1). "plain" is the per-key mean over clients. The server sees nothing
but keyed tensors, and ``aggregate`` checks each client's key set, shapes
and finiteness before it uses any of them.

The aggregated scenario weights are also each client's proximal references
for the next round. A strategy that does not aggregate them (``a4``,
``local``) sends none, and its clients train with no proximal pull.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coordination import solve_conflict_weights
from .fedbn import fedbn_normalize
from ..keys import SharedKey

__all__ = [
    "StrategyPlan",
    "resolve_strategy",
    "upload_keys",
    "ServerDirective",
    "FederationServer",
    "STRATEGY_IDS",
]

STRATEGY_IDS = ("main", "a1", "a2", "a3", "a4", "fedavg", "local")

COORDINATED, PLAIN, NONE = "coordinated", "plain", "none"


@dataclass(frozen=True)
class StrategyPlan:
    name: str
    expert_mode: str
    tower_mode: str
    widen_expert_local: bool = False
    widen_all_local: bool = False

    @property
    def coordinated_kinds(self) -> frozenset[str]:
        """Key kinds sent through normalization and the coordination solve."""
        modes = {"expert_scenario": self.expert_mode, "tower": self.tower_mode}
        return frozenset(kind for kind, mode in modes.items() if mode == COORDINATED)

    @property
    def uses_fedbn(self) -> bool:
        return bool(self.coordinated_kinds)

    @property
    def uses_server(self) -> bool:
        return not (self.expert_mode == NONE and self.tower_mode == NONE)


def resolve_strategy(name: str) -> StrategyPlan:
    table = {
        "main": StrategyPlan("main", COORDINATED, COORDINATED),
        "a1": StrategyPlan("a1", PLAIN, PLAIN),
        "a2": StrategyPlan("a2", PLAIN, COORDINATED, widen_expert_local=True),
        "a3": StrategyPlan("a3", COORDINATED, COORDINATED),
        "a4": StrategyPlan("a4", NONE, PLAIN),
        "fedavg": StrategyPlan("fedavg", PLAIN, PLAIN, widen_expert_local=True, widen_all_local=True),
        "local": StrategyPlan("local", NONE, NONE),
    }
    if name not in table:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_IDS}")
    return table[name]


def upload_keys(plan: StrategyPlan, model) -> list[SharedKey]:
    """The declared upload set for a strategy, in canonical order."""
    keys: list[SharedKey] = []
    if plan.expert_mode != NONE:
        keys.extend(model.scenario_shared())
    if plan.tower_mode != NONE:
        keys.extend(model.tower_shared())
    if plan.widen_expert_local:
        keys.extend(model.expert_local())
    if plan.widen_all_local:
        keys.extend(model.other_local())
    return sorted(keys)


@dataclass
class ServerDirective:
    """Broadcast payload: identical for every client; personalization is local.

    Every dict is keyed by SharedKey. ``replace`` holds the values a client
    sets: each plain key's mean, and each coordinated key's normalized mean
    before it has history. From round 2 a coordinated key instead carries
    its mean increment and coordinated update, each of one row's shape.
    ``refs`` holds each key's aggregate: a plain key's mean, or a
    coordinated key's normalized mean.
    """

    round_index: int
    replace: dict[SharedKey, np.ndarray] = field(default_factory=dict)
    mean_increment: dict[SharedKey, np.ndarray] = field(default_factory=dict)
    coordinated: dict[SharedKey, np.ndarray] = field(default_factory=dict)
    refs: dict[SharedKey, np.ndarray] = field(default_factory=dict)
    fedbn_residual: float = 0.0


class FederationServer:
    """Aggregates keyed uploads; never sees features, labels, or local params."""

    def __init__(self, plan: StrategyPlan, c: float = 0.4):
        if not 0.0 <= c < 1.0:
            raise ValueError(f"c must be in [0, 1), got {c}")
        self.plan = plan
        self.c = float(c)
        # The last round's clients and, per coordinated key, its normalized
        # (C·P, ...) rows in client-major order.
        self.prev_clients: list[int] = []
        self.prev_normalized: dict[SharedKey, np.ndarray] = {}
        self.last_snapshot_entries: dict[str, np.ndarray] = {}

    # -- aggregation --------------------------------------------------------------

    def aggregate(self, uploads: dict[int, dict[SharedKey, np.ndarray]], round_index: int) -> ServerDirective:
        if not self.plan.uses_server:
            raise RuntimeError(f"strategy {self.plan.name!r} performs no aggregation")
        clients = sorted(uploads)
        if not clients:
            raise ValueError("no uploads")
        if self.plan.uses_fedbn and len(clients) < 2:
            raise ValueError(f"strategy {self.plan.name!r} needs >= 2 clients (got {len(clients)})")
        first = uploads[clients[0]]
        key_set = sorted(first)
        for j in clients:
            if sorted(uploads[j]) != key_set:
                differ = ", ".join(k.label() for k in sorted(set(uploads[j]) ^ set(key_set)))
                raise ValueError(f"client {j} uploaded a different key set than client {clients[0]}: {differ}")
            for key in key_set:
                arr = uploads[j][key]
                if arr.shape != first[key].shape:
                    raise ValueError(
                        f"client {j} uploaded {key.label()} with shape {arr.shape}, "
                        f"client {clients[0]} with {first[key].shape}"
                    )
                if not np.isfinite(arr).all():
                    raise ValueError(f"client {j} uploaded a non-finite value for {key.label()}")

        directive = ServerDirective(round_index=round_index)
        normalized: dict[SharedKey, np.ndarray] = {}
        coordinated_kinds = self.plan.coordinated_kinds
        for key in key_set:
            stack = np.stack([uploads[j][key] for j in clients])
            if key.kind in coordinated_kinds:
                normalized[key] = self._coordinate(key, stack, clients, directive)
            else:
                directive.replace[key] = directive.refs[key] = stack.mean(axis=0)
        self.prev_clients, self.prev_normalized = clients, normalized
        self.last_snapshot_entries = self._snapshot_entries(directive, clients, normalized)
        return directive

    def _coordinate(
        self, key: SharedKey, stack: np.ndarray, clients: list[int], directive: ServerDirective
    ) -> np.ndarray:
        """Normalize one key's (C, P, ...) uploads as C·P rows; set their mean, or coordinate their increments."""
        # The shift comes from the clients' own uploads: one beta per client,
        # the mean of its P rows, so the averaged beta recovers the plain
        # pooled mean and the batch normalization only reshapes the spread
        # around it.
        normalized, beta = fedbn_normalize(stack.reshape(-1, *stack.shape[2:]), stack.mean(axis=1))
        wbar = normalized.mean(axis=0)
        directive.fedbn_residual = max(directive.fedbn_residual, float(np.abs(wbar - beta).max()))
        directive.refs[key] = wbar

        if directive.round_index < 2 or not self.prev_normalized:  # no history: set, do not increment
            directive.replace[key] = wbar
            return normalized

        if clients != self.prev_clients or key not in self.prev_normalized:
            raise ValueError(
                f"coordinated key {key.label()} has no round {directive.round_index - 1} rows for clients "
                f"{clients}: the clients or the key set changed"
            )
        deltas = normalized - self.prev_normalized[key]
        mean_delta = deltas.mean(axis=0)
        directive.mean_increment[key] = mean_delta
        directive.coordinated[key] = solve_conflict_weights(deltas, mean_delta, self.c).u_star
        return normalized

    # -- persistence --------------------------------------------------------------

    @staticmethod
    def _snapshot_entries(
        directive: ServerDirective, clients: list[int], normalized: dict[SharedKey, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """One entry per key and role; a coordinated key's normalized rows are split by client."""
        entries: dict[str, np.ndarray] = {}
        for role, arrays in (
            ("set", directive.replace),
            ("ref", directive.refs),
            ("dmean", directive.mean_increment),
            ("ustar", directive.coordinated),
        ):
            entries.update((f"{role}/{key.label()}", arr) for key, arr in arrays.items())
        for key, rows in normalized.items():
            per_client = rows.reshape(len(clients), -1, *rows.shape[1:])
            entries.update((f"norm/{key.label()}/c{j}", arr) for j, arr in zip(clients, per_client))
        return entries
