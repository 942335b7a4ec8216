"""Client-side round protocol: local training, uploads, personalized apply.

``local_phase`` is the client's one training loop: shuffled epochs over the
train partition, one loss, backward and Adam step per batch. It is also the
one writer of the input batch norm's running statistics, which it folds in
once per training batch: the model's forward writes no state of its own.

The client uploads value copies of the keyed tensors a strategy declares,
never gradients or data, in its buffer's dtype: float32 as
``build_clients`` builds it. After the server round it sets each key's
mean that comes without an increment (plain averages, first-round
aggregates) and applies each coordinated key's increment pair as the
personalized update

    value = round_start + mean_increment + psi[:, None, ...] * coordinated_update,

with the increment and the update each of one row's shape, and psi one
scalar per row. The server's float64 values are combined in float64 and
rounded once into the buffer. Keys are parameter names, as
``ClientModel.key_map()`` gives them. ``ClientSim.psi`` keeps one array
per coordinated key: an expert layer's scenario weights
(``experts.l<l>.w_s``), with one entry per expert, or a task's whole tower
(``towers.t<task>``), with one entry. A key with no array yet reads 0. Each array is learned by a one-step directional meta-gradient on
a reserved held-out batch: psi falls when the local loss rises along the
coordinated direction, and is clamped to [-2, 2].
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import data as data_mod
from ..diffcore import Adam
from ..metrics import EvalReport, evaluate_client
from ..model import ClientModel, SharedKey
from .server import ServerDirective

__all__ = ["ClientSim"]

PSI_CLAMP = 2.0


class ClientSim:
    """One simulated participant: a model, its private shard, and round state."""

    def __init__(
        self,
        model: ClientModel,
        shard: data_mod.ScenarioShard,
        lr: float = 1e-3,
        eta_psi: float = 0.01,
        batch_size: int = 256,
        seed: int = 0,
    ):
        if shard.scenario != model.spec.scenario:
            raise ValueError("shard and model scenario indices differ")
        self.model = model
        self.shard = shard
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.optimizer = Adam(model.buffer, lr=lr)
        self.eta_psi = float(eta_psi)
        self.psi: dict[SharedKey, np.ndarray] = {}  # per coordinated key, one entry per row
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
            seed = _mix(self.seed, self.index, round_index, epoch)
            for n_batches, (bx, by) in enumerate(data_mod.batch_iter(self.shard.train, self.batch_size, seed), start=1):
                loss, _ = self.model.local_loss(bx, by)
                self.model.bn_in.track(bx)
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
        for key, mean in directive.means.items():
            if key not in directive.increments:
                key_map[key].data[...] = mean
        for key, (mean_increment, update) in directive.increments.items():
            if key not in self.round_start:
                raise KeyError(f"no round-start snapshot for coordinated key {key.name}")
            start = self.round_start[key]
            psi = np.reshape(self.psi.get(key, 0.0), (-1, *[1] * (start.ndim - 1)))
            key_map[key].data[...] = start + mean_increment + psi * update

    def meta_update_psi(self, directive: ServerDirective) -> None:
        """One directional meta-gradient step on each key's psi, along its coordinated update.

        One dropout-free held-out forward and backward gives every
        coordinated key's gradient; each key's psi steps
        ``psi - eta_psi * dot`` by its per-row sums of grad * update,
        clamped to [-2, 2]. The forward writes no model state, so the pass
        leaves the model as it found it once the grads are zeroed again.
        """
        if not directive.increments:
            return
        key_map = self.model.key_map()
        x, y = self.held_out
        self.model.zero_grad()
        # Without dropout the directional derivative is noise-free.
        loss, _ = self.model.local_loss(x, y, use_dropout=False)
        loss.backward()
        for key, (_, update) in directive.increments.items():
            grad = key_map[key].grad
            dot = (grad * update).reshape(len(grad), -1).sum(axis=1)
            self.psi[key] = np.clip(self.psi.get(key, 0.0) - self.eta_psi * dot, -PSI_CLAMP, PSI_CLAMP)
        self.model.zero_grad()

    def evaluate(self) -> EvalReport:
        return evaluate_client(self.model, self.shard.test)


def _mix(*parts: int) -> int:
    """Stable scalar seed from integer parts (order-sensitive)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h ^= (p + 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
    return h & 0x7FFFFFFF
