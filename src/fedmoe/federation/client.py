"""Client-side round protocol: local training, uploads, personalized apply.

``local_phase`` is the client's one training loop: shuffled epochs over the
train partition, one loss, backward and Adam step per batch.

The client uploads value copies of the keyed tensors a strategy declares,
never gradients or data. After the server round it either replaces a tensor
(plain averages, first-round aggregates) or applies the personalized update

    value = round_start + mean_increment + psi * coordinated_update,

where psi is a per-key scalar learned by a one-step directional
meta-gradient on a reserved held-out batch: psi falls when the local loss
rises along the coordinated direction, and is clamped to [-2, 2].

The proximal references are kept per round: ``apply_directive`` stacks the
server's scenario-weight aggregates into one (N, d_in, d_out) array per
expert layer, which every training step of the next round reuses. They are
None, and training adds no proximal pull, until an aggregate carries
scenario weights; under ``a4`` and ``local`` none ever does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import data as data_mod
from ..diffcore import Adam
from ..metrics import EvalReport, evaluate_client
from ..model import ClientModel
from ..keys import SharedKey
from .server import ServerDirective

__all__ = ["PersonalizationState", "ClientSim"]

PSI_CLAMP = 2.0


@dataclass
class PersonalizationState:
    """Per-key mixing scalars, zero-initialized, clamped to [-2, 2]."""

    eta: float = 0.01
    expert: dict[SharedKey, float] = field(default_factory=dict)
    tower: dict[int, float] = field(default_factory=dict)

    def for_key(self, key: SharedKey) -> float:
        if key.kind == "expert_scenario":
            return self.expert.get(key, 0.0)
        if key.kind == "tower":
            return self.tower.get(key.index, 0.0)
        return 0.0

    def nudge_expert(self, key: SharedKey, directional: float) -> None:
        value = self.expert.get(key, 0.0) - self.eta * directional
        self.expert[key] = float(np.clip(value, -PSI_CLAMP, PSI_CLAMP))

    def nudge_tower(self, task: int, directional: float) -> None:
        value = self.tower.get(task, 0.0) - self.eta * directional
        self.tower[task] = float(np.clip(value, -PSI_CLAMP, PSI_CLAMP))


class ClientSim:
    """One simulated participant: a model, its private shard, and round state."""

    def __init__(
        self,
        model: ClientModel,
        shard: data_mod.ScenarioShard,
        lr: float = 1e-3,
        lam: float = 0.5,
        eta_psi: float = 0.01,
        batch_size: int = 256,
        seed: int = 0,
    ):
        if shard.scenario != model.spec.scenario:
            raise ValueError("shard and model scenario indices differ")
        self.model = model
        self.shard = shard
        self.lam = float(lam)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.refs: Optional[list[np.ndarray]] = None
        self.psi = PersonalizationState(eta=eta_psi)
        self.round_start: dict[SharedKey, np.ndarray] = {}
        if len(shard.train) < 2:
            raise data_mod.DataError("train partition too small for a batch")
        k = min(self.batch_size, len(shard.val))
        if k < 2:
            raise data_mod.DataError("validation partition too small for a held-out batch")
        self.held_out = (shard.val.features[:k].copy(), shard.val.labels[:k].copy())

    @property
    def index(self) -> int:
        return self.model.spec.scenario

    # -- round protocol -----------------------------------------------------------

    def begin_round(self, upload_key_list: Sequence[SharedKey]) -> None:
        """Snapshot round-start values; the personalized update anchors here."""
        key_map = self.model.key_map()
        self.round_start = {key: key_map[key].data.copy() for key in upload_key_list}

    def local_phase(self, round_index: int, epochs: int = 1, max_batches: Optional[int] = None) -> float:
        """Train ``epochs`` shuffled passes, each cut after ``max_batches``
        batches; returns the mean training loss per sample."""
        loss_sum = 0.0
        n_samples = 0
        for epoch in range(epochs):
            cfg = data_mod.BatchConfig(
                batch_size=self.batch_size,
                shuffle=True,
                seed=_mix(self.seed, self.index, round_index, epoch),
            )
            for n_batches, (bx, by) in enumerate(data_mod.batch_iter(self.shard.train, cfg), start=1):
                loss, _ = self.model.local_loss(bx, by, refs=self.refs, lam=self.lam)
                loss.require_finite("training loss")
                loss.backward()
                self.optimizer.step()
                self.optimizer.zero_grad()
                loss_sum += loss.item() * bx.shape[0]
                n_samples += bx.shape[0]
                if n_batches == max_batches:
                    break
        return loss_sum / n_samples

    def build_upload(self, upload_key_list: Sequence[SharedKey]) -> dict[SharedKey, np.ndarray]:
        """Value copies of the declared tensors; nothing else leaves the client."""
        key_map = self.model.key_map()
        return {key: key_map[key].data.copy() for key in upload_key_list}

    def apply_directive(self, directive: ServerDirective) -> None:
        key_map = self.model.key_map()
        for key, value in directive.replace.items():
            key_map[key].data[...] = value
        for key, increment in directive.mean_increment.items():
            if key not in self.round_start:
                raise KeyError(f"no round-start snapshot for {key}")
            psi = self.psi.for_key(key)
            key_map[key].data[...] = self.round_start[key] + increment + psi * directive.coordinated[key]
        self.refs = None
        if any(key.kind == "expert_scenario" for key in directive.refs):
            experts = range(self.model.spec.n_experts)
            self.refs = [
                np.stack([directive.refs[SharedKey("expert_scenario", k, li, "w_s")] for k in experts])
                for li in range(len(self.model.expert_layers))
            ]

    def meta_update_psi(self, directive: ServerDirective) -> None:
        """One directional meta-gradient step per coordinated key."""
        if not directive.coordinated:
            return
        grads = self._held_out_grads(directive)
        tower_dots: dict[int, float] = {}
        for key, u_star in sorted(directive.coordinated.items()):
            dot = float(np.sum(grads[key] * u_star))
            if key.kind == "expert_scenario":
                self.psi.nudge_expert(key, dot)
            elif key.kind == "tower":
                tower_dots[key.index] = tower_dots.get(key.index, 0.0) + dot
        for task in sorted(tower_dots):
            self.psi.nudge_tower(task, tower_dots[task])

    def _held_out_grads(self, directive: ServerDirective) -> dict[SharedKey, np.ndarray]:
        model = self.model
        key_map = model.key_map()
        x, y = self.held_out
        # Train-mode batch norm updates the running statistics; this pass
        # must leave them as training left them.
        saved_rm = model.bn_in.running_mean.copy()
        saved_rv = model.bn_in.running_var.copy()
        model.zero_grad()
        try:
            # Without dropout the directional derivative is noise-free.
            loss, _ = model.local_loss(x, y, refs=self.refs, lam=self.lam, use_dropout=False)
            loss.backward()
            return {key: key_map[key].grad.copy() for key in directive.coordinated}
        finally:
            model.zero_grad()
            model.bn_in.running_mean[...] = saved_rm
            model.bn_in.running_var[...] = saved_rv

    def evaluate(self, round_index: int) -> EvalReport:
        return evaluate_client(self.model, self.shard.test, round_index=round_index)


def _mix(*parts: int) -> int:
    """Stable scalar seed from integer parts (order-sensitive)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= (p + 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
    return h & 0x7FFFFFFF
