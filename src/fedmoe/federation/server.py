"""Server-side round protocol and aggregation strategies.

``STRATEGIES`` is the strategy table: per strategy, the mode of each key
kind it shares. A key is its parameter's name, and its kind is read from
that name (``model.SharedKey``). A kind a strategy leaves out is neither
uploaded nor aggregated, so ``local``, which names none, runs no server at
all.

"coordinated" means, per key: stack the clients' (P, ...) uploads as
(C, P, ...), normalize its C·P rows server-side as one batch around the
clients' averaged own-upload means, average them and difference them
against the key's previous-round rows. Then solve one simplex weighting
over the C·P increment rows and ship the key its mean increment and
coordinated update, for personalized application on each client. A
coordinated key is an expert layer's scenario weights, ``experts.l<l>.w_s``
(P = N experts), or one task's whole tower, ``towers.t<task>`` (P = 1).
"plain" is the per-key mean over clients.

What ``main`` does to a layer's experts: a coordinated expert key's mean
and increments have one row's shape and are broadcast over its N experts.
So round 1 sets every expert's ``w_s`` in a layer, on every client, to one
matrix, beta, the clients' row means averaged. Each later round moves
every expert by one shared mean increment, plus its own psi times the
shared coordinated update. Plain ``a1`` instead sets each expert to its
own mean over clients.

The server sees nothing but keyed tensors, and ``aggregate`` checks each
client's key set, shapes and finiteness before it uses any of them. It
stacks every key's uploads as float64, whatever dtype the clients train
in, so the normalization, the solve, the directive and the snapshot are
float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coordination import solve_conflict_weights
from .fedbn import fedbn_normalize
from ..model import SharedKey

__all__ = [
    "StrategyPlan",
    "resolve_strategy",
    "upload_keys",
    "ServerDirective",
    "FederationServer",
    "STRATEGIES",
    "STRATEGY_IDS",
]

COORDINATED, PLAIN, NONE = "coordinated", "plain", "none"

# main and a3 are one configuration; the ablation suite runs it once.
STRATEGIES: dict[str, dict[str, str]] = {
    "main": {"expert_scenario": COORDINATED, "tower": COORDINATED},
    "a1": {"expert_scenario": PLAIN, "tower": PLAIN},
    "a2": {"expert_scenario": PLAIN, "tower": COORDINATED, "expert_local": PLAIN},
    "a3": {"expert_scenario": COORDINATED, "tower": COORDINATED},
    "a4": {"tower": PLAIN},
    "fedavg": {"expert_scenario": PLAIN, "tower": PLAIN, "expert_local": PLAIN, "local": PLAIN},
    "local": {},
}
STRATEGY_IDS = tuple(STRATEGIES)


@dataclass(frozen=True)
class StrategyPlan:
    """A strategy's (kind, mode) pairs, sorted, so that equal tables compare and hash equal."""

    name: str
    modes: tuple[tuple[str, str], ...]

    def mode(self, kind: str) -> str:
        return dict(self.modes).get(kind, NONE)

    @property
    def expert_mode(self) -> str:
        return self.mode("expert_scenario")

    @property
    def tower_mode(self) -> str:
        return self.mode("tower")

    @property
    def uses_server(self) -> bool:
        return any(mode != NONE for _, mode in self.modes)


def resolve_strategy(name: str) -> StrategyPlan:
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_IDS}")
    return StrategyPlan(name, tuple(sorted(STRATEGIES[name].items())))


def upload_keys(plan: StrategyPlan, model) -> list[SharedKey]:
    """The declared upload set for a strategy, sorted by name."""
    return sorted(k for k in model.key_map() if plan.mode(k.kind) != NONE)


@dataclass
class ServerDirective:
    """Broadcast payload: identical for every client; personalization is local.

    Both dicts are keyed by SharedKey, a parameter's name. ``means`` holds every key's
    aggregate: a plain key's mean, or a coordinated key's normalized mean.
    From round 2 a coordinated key also has ``increments``: its mean
    increment and coordinated update, each of one row's shape. A client
    sets each mean that has no increment and applies each increment.
    """

    round_index: int
    means: dict[SharedKey, np.ndarray] = field(default_factory=dict)
    increments: dict[SharedKey, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
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
        if any(mode == COORDINATED for _, mode in self.plan.modes) and len(clients) < 2:
            raise ValueError(f"strategy {self.plan.name!r} needs >= 2 clients (got {len(clients)})")
        first = uploads[clients[0]]
        key_set = sorted(first)
        for j in clients:
            if sorted(uploads[j]) != key_set:
                differ = ", ".join(k.name for k in sorted(set(uploads[j]) ^ set(key_set)))
                raise ValueError(f"client {j} uploaded a different key set than client {clients[0]}: {differ}")
            for key in key_set:
                arr = uploads[j][key]
                if arr.shape != first[key].shape:
                    raise ValueError(
                        f"client {j} uploaded {key.name} with shape {arr.shape}, "
                        f"client {clients[0]} with {first[key].shape}"
                    )
                if not np.isfinite(arr).all():
                    raise ValueError(f"client {j} uploaded a non-finite value for {key.name}")

        directive = ServerDirective(round_index=round_index)
        normalized: dict[SharedKey, np.ndarray] = {}
        for key in key_set:
            stack = np.stack([uploads[j][key] for j in clients], dtype=np.float64)
            if self.plan.mode(key.kind) == COORDINATED:
                normalized[key] = self._normalize(key, stack, directive)
            else:
                directive.means[key] = stack.mean(axis=0)
        if round_index >= 2 and self.prev_normalized:  # else no history: set, do not increment
            for key, rows in normalized.items():
                self._coordinate(key, rows, clients, directive)
        self.prev_clients, self.prev_normalized = clients, normalized
        self.last_snapshot_entries = self._snapshot_entries(directive, clients, normalized)
        return directive

    @staticmethod
    def _normalize(key: SharedKey, stack: np.ndarray, directive: ServerDirective) -> np.ndarray:
        """Normalize one key's (C, P, ...) uploads as C·P rows and set their mean."""
        # The shift comes from the clients' own uploads: one beta per client,
        # the mean of its P rows, so the averaged beta recovers the plain
        # pooled mean and the batch normalization only reshapes the spread
        # around it.
        normalized, beta = fedbn_normalize(stack.reshape(-1, *stack.shape[2:]), stack.mean(axis=1))
        wbar = normalized.mean(axis=0)
        directive.fedbn_residual = max(directive.fedbn_residual, float(np.abs(wbar - beta).max()))
        directive.means[key] = wbar
        return normalized

    def _coordinate(self, key: SharedKey, rows: np.ndarray, clients: list[int], directive: ServerDirective) -> None:
        """Solve one key's (C·P, -1) increments over its last round's rows; set its increment pair in one row's shape."""
        if clients != self.prev_clients or key not in self.prev_normalized:
            raise ValueError(
                f"coordinated key {key.name} has no round {directive.round_index - 1} rows for clients "
                f"{clients}: the clients or the key set changed"
            )
        delta = rows - self.prev_normalized[key]
        flat = delta.reshape(len(delta), -1)
        mean_delta = flat.mean(axis=0)
        u_star = solve_conflict_weights(flat, mean_delta, self.c).u_star
        directive.increments[key] = (mean_delta.reshape(delta.shape[1:]), u_star.reshape(delta.shape[1:]))

    # -- persistence --------------------------------------------------------------

    @staticmethod
    def _snapshot_entries(
        directive: ServerDirective, clients: list[int], normalized: dict[SharedKey, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """One entry per key and role; a coordinated key's normalized rows are split by client.

        Labels are ``<role>/<key name>``, and ``norm/<key name>/c<client>``:
        ``ref/`` holds every mean, ``set/`` each mean that has no increment,
        and ``dmean/`` and ``ustar/`` each increment pair.
        """
        entries: dict[str, np.ndarray] = {}
        for key, mean in directive.means.items():
            entries[f"ref/{key.name}"] = mean
            if key not in directive.increments:
                entries[f"set/{key.name}"] = mean
        for key, (mean_increment, update) in directive.increments.items():
            entries[f"dmean/{key.name}"], entries[f"ustar/{key.name}"] = mean_increment, update
        for key, rows in normalized.items():
            per_client = rows.reshape(len(clients), -1, *rows.shape[1:])
            entries.update((f"norm/{key.name}/c{j}", arr) for j, arr in zip(clients, per_client))
        return entries
