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

"coordinated" means: stack each pool's uploads once, in (client, key) row
order, normalize the stack server-side as one batch around the clients'
averaged own-upload means, average it, difference it against the previous
round's stack, solve the simplex weighting over its rows, and ship one mean
increment plus one coordinated update per pool, keyed by
``SharedKey.group()``, for personalized application to every key of the
pool on each client. "plain" is the per-key mean over clients. The server
sees nothing but keyed tensors, and ``aggregate`` checks each client's key
set, shapes and finiteness before it uses any of them.

The aggregated scenario weights are also each client's proximal references
for the next round. A strategy that does not aggregate them (``a4``,
``local``) sends none, and its clients train with no proximal pull.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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

# One coordination pool's normalized uploads: the (client, key) row order and
# the uploads stacked on axis 0 in that order.
PoolStack = tuple[list[tuple[int, SharedKey]], np.ndarray]


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

    ``replace`` is keyed by SharedKey, the rest by pool (``SharedKey.group()``):
    each coordinated pool's mean increment and coordinated update (from round
    2) and its normalized mean (``refs``); a plain-averaged expert layer's
    ``refs`` entry stacks its N per-expert means to (N, d_in, d_out).
    """

    round_index: int
    replace: dict[SharedKey, np.ndarray] = field(default_factory=dict)
    mean_increment: dict[tuple, np.ndarray] = field(default_factory=dict)
    coordinated: dict[tuple, np.ndarray] = field(default_factory=dict)
    refs: dict[tuple, np.ndarray] = field(default_factory=dict)
    fedbn_residual: float = 0.0


class FederationServer:
    """Aggregates keyed uploads; never sees features, labels, or local params."""

    def __init__(
        self,
        plan: StrategyPlan,
        c: float = 0.4,
        audit_hook: Optional[Callable[[int, SharedKey, np.ndarray], None]] = None,
    ):
        if not 0.0 <= c < 1.0:
            raise ValueError(f"c must be in [0, 1), got {c}")
        self.plan = plan
        self.c = float(c)
        self.audit_hook = audit_hook
        self.prev_normalized: dict[tuple, PoolStack] = {}
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
                if self.audit_hook is not None:
                    self.audit_hook(j, key, arr)

        directive = ServerDirective(round_index=round_index)
        pools: dict[tuple, list[SharedKey]] = {}
        expert_means: dict[tuple, list[np.ndarray]] = {}
        coordinated_kinds = self.plan.coordinated_kinds
        for key in key_set:
            if key.kind in coordinated_kinds:
                pools.setdefault(key.group(), []).append(key)
                continue
            directive.replace[key] = np.mean(np.stack([uploads[j][key] for j in clients]), axis=0)
            if key.kind == "expert_scenario":  # sorted keys list a layer's experts in index order
                expert_means.setdefault(key.group(), []).append(directive.replace[key])
        for group, means in expert_means.items():
            directive.refs[group] = np.stack(means)

        normalized = {
            group: self._coordinate_pool(group, keys, uploads, clients, directive)
            for group, keys in sorted(pools.items())
        }
        self.prev_normalized = normalized
        self.last_snapshot_entries = self._snapshot_entries(directive, pools, normalized)
        return directive

    def _coordinate_pool(
        self,
        group: tuple,
        keys: list[SharedKey],
        uploads: dict[int, dict[SharedKey, np.ndarray]],
        clients: list[int],
        directive: ServerDirective,
    ) -> PoolStack:
        """Normalize one pool's uploads, then either set the pool mean or coordinate its increments."""
        rows = [(j, key) for j in clients for key in keys]
        stack = np.stack([uploads[j][key] for j, key in rows])
        # The shift comes from the clients' own uploads: one beta per client,
        # the mean of its P keys (client-major rows), so the averaged beta
        # recovers the plain pooled mean and the batch normalization only
        # reshapes the spread around it.
        betas = stack.reshape(len(clients), len(keys), *stack.shape[1:]).mean(axis=1)
        normalized, beta = fedbn_normalize(stack, betas)
        wbar = normalized.mean(axis=0)
        directive.fedbn_residual = max(directive.fedbn_residual, float(np.abs(wbar - beta).max()))
        directive.refs[group] = wbar

        if directive.round_index < 2 or not self.prev_normalized:  # no history: set, do not increment
            for key in keys:
                directive.replace[key] = wbar
            return rows, normalized

        prev_rows, previous = self.prev_normalized.get(group, (None, None))
        if prev_rows != rows:
            raise ValueError(
                f"coordination pool {group} changed its (client, key) rows since round {directive.round_index - 1}"
            )
        deltas = normalized - previous
        mean_delta = deltas.mean(axis=0)
        directive.mean_increment[group] = mean_delta
        directive.coordinated[group] = solve_conflict_weights(deltas, mean_delta, self.c).u_star
        return rows, normalized

    # -- persistence --------------------------------------------------------------

    def _snapshot_entries(
        self, directive: ServerDirective, pools: dict[tuple, list[SharedKey]], normalized: dict[tuple, PoolStack]
    ) -> dict[str, np.ndarray]:
        """Per-key entries: a pool's reference, increment and update are written under each of its keys."""
        entries: dict[str, np.ndarray] = {}
        for key, arr in directive.replace.items():
            entries[f"set/{key.label()}"] = arr
            entries[f"ref/{key.label()}"] = arr
        for group, (rows, stacked) in normalized.items():
            for (client, key), arr in zip(rows, stacked):
                entries[f"norm/{key.label()}/c{client}"] = arr
            for key in pools[group]:
                entries[f"ref/{key.label()}"] = directive.refs[group]
                if group in directive.mean_increment:
                    entries[f"dmean/{key.label()}"] = directive.mean_increment[group]
                    entries[f"ustar/{key.label()}"] = directive.coordinated[group]
        return entries
