"""One client's mixture-of-experts model with decoupled expert weights.

Each expert layer owns three same-shape weight factors: a local private
weight, a task weight regenerated every forward pass by a small template
network from the task embedding, and a materialized scenario weight that is
the unit of federated sharing. The effective layer weight is their
element-wise product. Per-task softmax gates mix expert outputs; per-task
tower MLPs with a sigmoid head produce probabilities.

Layout. The parameters of expert layer l are stored stacked over the N
experts, one Parameter per part: ``w_loc`` and ``w_s`` (N, d_in, d_out),
``bias`` (N, d_out), and the template's ``tmpl.w1`` (N, e, e), ``tmpl.b1``
(N, e), ``tmpl.w2`` (N, e, d_in*d_out) and ``tmpl.b2`` (N, d_in*d_out).
One ``task_weights`` node per layer builds all T x N effective weights;
each (task, expert) path then runs affine, relu and dropout on its slice.
Every Parameter of the model is a view into one ParameterBuffer. The
federated keys stay one per (expert, layer, part): ``key_map()`` maps each
to a Parameter whose value and grad are views of expert n's slice of the
stacked arrays, so uploads and server updates read and write the buffer.

The scenario weight is initialized once from a scenario template applied to
the client's scenario embedding and is afterwards trained directly; the
additive server update needs it to be a concrete leaf tensor. Initialization
uses one shared seed so every client starts from the same blueprint except
for the scenario-dependent weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import data as data_mod
from .diffcore import (
    Adam,
    BNState,
    Parameter,
    ParameterBuffer,
    Tensor,
    add_n,
    affine,
    batchnorm,
    bce,
    block_sum_sq_diff,
    dropout,
    mix_experts,
    relu,
    reshape,
    scale,
    select,
    sigmoid,
    softmax,
    task_weights,
)
from .keys import SharedKey

__all__ = ["ModelSpec", "Tower", "ClientModel", "TrainStats", "EXPERT_PARTS", "TEMPLATE_PARTS"]


@dataclass(frozen=True)
class ModelSpec:
    scenario: int
    n_scenarios: int
    n_tasks: int
    n_experts: int
    d_feat: int
    expert_widths: tuple[int, ...] = (32, 16)
    tower_widths: tuple[int, ...] = (16, 8)
    d_emb: int = 16
    dropout: float = 0.2

    def __post_init__(self):
        if not 0 <= self.scenario < self.n_scenarios:
            raise ValueError(f"scenario {self.scenario} out of range")
        if self.n_experts < 1 or self.n_tasks < 1 or self.d_feat < 1 or self.d_emb < 1:
            raise ValueError("model extents must be positive")
        if not self.expert_widths:
            raise ValueError("expert needs at least one layer")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def _he_init(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out))


def _head_init(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))


# Parts of one stacked expert layer, in registry order; the names double as
# the ``part`` of the layer's expert_local keys (all but w_s).
TEMPLATE_PARTS = ("tmpl.w1", "tmpl.b1", "tmpl.w2", "tmpl.b2")
EXPERT_PARTS = ("w_loc", "w_s", "bias", *TEMPLATE_PARTS)


def _template_w2_init(rng: np.random.Generator, d_emb: int, out_len: int) -> np.ndarray:
    # Small output weights and a unit bias: generated factors start near the
    # multiplicative identity.
    return rng.normal(0.0, 0.05 / np.sqrt(d_emb), size=(d_emb, out_len))


def _expert_view(stacked: Parameter, n: int, name: str) -> Parameter:
    """Expert n's slice of a stacked parameter; value and grad are views."""
    view = Parameter((), name)  # empty placeholders, replaced by the views
    view.data, view.grad = stacked.data[n], stacked.grad[n]
    view.buffer = stacked.buffer  # packing a view elsewhere would detach it
    return view


class Tower:
    """Per-task prediction head: ReLU hidden layers, sigmoid scalar output."""

    def __init__(self, rng: np.random.Generator, d_in: int, widths: Sequence[int], task: int):
        self.task = task
        dims = [d_in, *widths]
        self.hidden = []
        for i in range(len(dims) - 1):
            w = Parameter(_he_init(rng, dims[i], dims[i + 1]), f"tower{task}.l{i}.w")
            b = Parameter(np.zeros(dims[i + 1]), f"tower{task}.l{i}.b")
            self.hidden.append((w, b))
        k = len(dims) - 1
        self.w_out = Parameter(_head_init(rng, dims[-1], 1), f"tower{task}.l{k}.w")
        self.b_out = Parameter(np.zeros(1), f"tower{task}.l{k}.b")

    def forward(self, h: Tensor, train: bool, rate: float, rng) -> Tensor:
        for w, b in self.hidden:
            h = dropout(relu(affine(h, w, b)), rate, train, rng)
        out = sigmoid(affine(h, self.w_out, self.b_out))
        return reshape(out, (out.shape[0],))

    def parameters(self) -> list[Parameter]:
        flat = [p for wb in self.hidden for p in wb]
        return [*flat, self.w_out, self.b_out]

    def shared_keys(self) -> dict[SharedKey, Parameter]:
        keys = {}
        for i, (w, b) in enumerate(self.hidden):
            keys[SharedKey(kind="tower", index=self.task, layer=i, part="w")] = w
            keys[SharedKey(kind="tower", index=self.task, layer=i, part="b")] = b
        k = len(self.hidden)
        keys[SharedKey(kind="tower", index=self.task, layer=k, part="w")] = self.w_out
        keys[SharedKey(kind="tower", index=self.task, layer=k, part="b")] = self.b_out
        return keys


@dataclass
class TrainStats:
    mean_loss: float
    per_task_bce: tuple[float, ...]
    n_batches: int
    n_samples: int


class ClientModel:
    def __init__(self, spec: ModelSpec, init_seed: int):
        self.spec = spec
        self.training = True
        self.dropout = spec.dropout  # mutable so harness passes can silence it
        rng = np.random.default_rng([init_seed, 0xD0DE])

        self.emb_task = Parameter(rng.normal(0.0, 1.0, size=(spec.n_tasks, spec.d_emb)), "emb.task")
        # Scenario embeddings seed the scenario weights and are frozen afterwards.
        self.emb_scenario = rng.normal(0.0, 1.0, size=(spec.n_scenarios, spec.d_emb))

        self.bn_in = BNState.build(spec.d_feat, "bn_in")
        self.expert_layers = self._init_expert_layers(rng)

        self.gates = []
        for i in range(spec.n_tasks):
            w = Parameter(rng.normal(0.0, 0.1, size=(spec.d_feat, spec.n_experts)), f"gate{i}.w")
            b = Parameter(np.zeros(spec.n_experts), f"gate{i}.b")
            self.gates.append((w, b))

        self.towers = [Tower(rng, spec.expert_widths[-1], spec.tower_widths, i) for i in range(spec.n_tasks)]

        self._materialize_scenario_weights(rng)
        self.rng = np.random.default_rng([init_seed, 0xD60, spec.scenario])
        self._registry = self._build_registry()
        self.buffer = ParameterBuffer(self._registry.values())
        self._key_map = self._build_key_map()

    def _init_expert_layers(self, rng: np.random.Generator) -> list[dict[str, Parameter]]:
        """Stacked parameters per expert layer, drawn expert by expert, layer by layer."""
        spec = self.spec
        n, e = spec.n_experts, spec.d_emb
        dims = [spec.d_feat, *spec.expert_widths]
        layers = []
        for li, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            init = {
                "w_loc": np.empty((n, d_in, d_out)),
                "w_s": np.ones((n, d_in, d_out)),
                "bias": np.zeros((n, d_out)),
                "tmpl.w1": np.empty((n, e, e)),
                "tmpl.b1": np.zeros((n, e)),
                "tmpl.w2": np.empty((n, e, d_in * d_out)),
                "tmpl.b2": np.ones((n, d_in * d_out)),
            }
            layers.append({part: Parameter(init[part], f"experts.l{li}.{part}") for part in EXPERT_PARTS})
        for k in range(n):
            for layer in layers:
                d_in, d_out = layer["w_loc"].shape[1:]
                layer["w_loc"].data[k] = _he_init(rng, d_in, d_out)
                layer["tmpl.w1"].data[k] = _he_init(rng, e, e)
                layer["tmpl.w2"].data[k] = _template_w2_init(rng, e, d_in * d_out)
        return layers

    def _materialize_scenario_weights(self, rng: np.random.Generator) -> None:
        # The scenario templates consume identical rng draws on every client,
        # so clients differ only through their scenario embedding row. Their
        # biases are zero (hidden) and one (output), as in the task templates.
        row = self.emb_scenario[self.spec.scenario : self.spec.scenario + 1]
        e = self.spec.d_emb
        for k in range(self.spec.n_experts):
            for layer in self.expert_layers:
                w_s = layer["w_s"].data[k]
                w1 = _he_init(rng, e, e)
                w2 = _template_w2_init(rng, e, w_s.size)
                w_s[...] = (np.maximum(row @ w1, 0.0) @ w2 + 1.0).reshape(w_s.shape)

    def _build_registry(self) -> dict[str, Parameter]:
        params: list[Parameter] = [self.emb_task, self.bn_in.gamma, self.bn_in.beta]
        for layer in self.expert_layers:
            params.extend(layer.values())
        for w, b in self.gates:
            params.extend((w, b))
        for tower in self.towers:
            params.extend(tower.parameters())
        registry = {}
        for p in params:
            if p.name in registry:
                raise ValueError(f"duplicate parameter name {p.name}")
            registry[p.name] = p
        return registry

    def _build_key_map(self) -> dict[SharedKey, Parameter]:
        """Scenario weights, tower tensors, other expert parts, then the rest."""
        out: dict[SharedKey, Parameter] = {}
        for k in range(self.spec.n_experts):
            for li, layer in enumerate(self.expert_layers):
                key = SharedKey(kind="expert_scenario", index=k, layer=li, part="w_s")
                out[key] = _expert_view(layer["w_s"], k, f"expert{k}.l{li}.w_s")
        for tower in self.towers:
            out.update(tower.shared_keys())
        for k in range(self.spec.n_experts):
            for li, layer in enumerate(self.expert_layers):
                for part in EXPERT_PARTS:
                    if part != "w_s":
                        key = SharedKey(kind="expert_local", index=k, layer=li, part=part)
                        out[key] = _expert_view(layer[part], k, f"expert{k}.l{li}.{part}")
        local = [self.emb_task, self.bn_in.gamma, self.bn_in.beta, *(p for wb in self.gates for p in wb)]
        for p in local:
            out[SharedKey(kind="local", index=-1, layer=-1, part=p.name)] = p
        if sum(p.size for p in out.values()) != self.buffer.size:
            raise ValueError("key map does not cover the parameter buffer")
        return out

    # -- mode and parameter access ------------------------------------------------

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def parameters(self) -> list[Parameter]:
        return list(self._registry.values())

    def registry(self) -> dict[str, Parameter]:
        return dict(self._registry)

    def zero_grad(self) -> None:
        self.buffer.zero_grad()

    def key_map(self) -> dict[SharedKey, Parameter]:
        """Total, disjoint keying of every trainable scalar (built once; do not mutate)."""
        return self._key_map

    def _keys_of_kind(self, kind: str) -> dict[SharedKey, Parameter]:
        return {key: p for key, p in self._key_map.items() if key.kind == kind}

    def scenario_shared(self) -> dict[SharedKey, Parameter]:
        """The scenario-weight set, the default unit of federated sharing."""
        return self._keys_of_kind("expert_scenario")

    def tower_shared(self) -> dict[SharedKey, Parameter]:
        return self._keys_of_kind("tower")

    def expert_local(self) -> dict[SharedKey, Parameter]:
        """Expert parameters outside the scenario set (widened sharing variants)."""
        return self._keys_of_kind("expert_local")

    def other_local(self) -> dict[SharedKey, Parameter]:
        """Everything else: embeddings, input BN, gates."""
        return self._keys_of_kind("local")

    # -- forward and loss ----------------------------------------------------------

    def effective_weights(self, layer: int) -> Tensor:
        """Expert layer ``layer``'s (T, N, d_in, d_out) weights w_loc * W_t * w_s."""
        parts = self.expert_layers[layer]
        template = (parts[name] for name in TEMPLATE_PARTS)
        return task_weights(self.emb_task, *template, parts["w_loc"], parts["w_s"])

    def forward(self, x: np.ndarray) -> list[Tensor]:
        """Per-task probability vectors for a feature batch (K, d_feat)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.d_feat:
            raise ValueError(f"expected features (K, {self.spec.d_feat}), got {x.shape}")
        xt = Tensor(x)
        xhat = batchnorm(xt, self.bn_in, train=self.training)
        rate = self.dropout
        weights = [self.effective_weights(li) for li in range(len(self.expert_layers))]
        biases = [[select(layer["bias"], k) for k in range(self.spec.n_experts)] for layer in self.expert_layers]
        preds = []
        for i in range(self.spec.n_tasks):
            outputs = []
            for k in range(self.spec.n_experts):
                h = xhat
                for w, b in zip(weights, biases):
                    h = dropout(relu(affine(h, select(w, (i, k)), b[k])), rate, self.training, self.rng)
                outputs.append(h)
            gate_w, gate_b = self.gates[i]
            gate = softmax(affine(xhat, gate_w, gate_b))
            mixed = mix_experts(gate, outputs)
            preds.append(self.towers[i].forward(mixed, self.training, rate, self.rng))
        return preds

    def local_loss(
        self,
        x: np.ndarray,
        y: np.ndarray,
        refs: Optional[dict[SharedKey, np.ndarray]] = None,
        lam: float = 0.5,
    ) -> tuple[Tensor, tuple[float, ...]]:
        """Multi-task BCE plus the proximal pull of scenario weights toward
        the latest aggregates (zero references before the first round)."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.spec.n_tasks:
            raise ValueError(f"expected labels (K, {self.spec.n_tasks}), got {y.shape}")
        preds = self.forward(x)
        task_losses = [bce(preds[i], y[:, i]) for i in range(self.spec.n_tasks)]
        loss = add_n(task_losses)
        if lam > 0.0:
            blocks = [[None] * self.spec.n_experts for _ in self.expert_layers]
            for key, view in self.scenario_shared().items():
                ref = refs.get(key) if refs else None
                blocks[key.layer][key.index] = np.zeros_like(view.data) if ref is None else ref
            penalty = block_sum_sq_diff([layer["w_s"] for layer in self.expert_layers], blocks)
            loss = add_n([loss, scale(penalty, lam)])
        return loss, tuple(t.item() for t in task_losses)

    def train_epoch(
        self,
        records: data_mod.RecordSet,
        batch_cfg: data_mod.BatchConfig,
        optimizer: Adam,
        refs: Optional[dict[SharedKey, np.ndarray]] = None,
        lam: float = 0.5,
        max_batches: Optional[int] = None,
    ) -> TrainStats:
        """One pass over the shard: loss, backward, Adam step per batch."""
        if len(records) == 0:
            raise data_mod.DataError("cannot train on an empty shard")
        if not self.training:
            raise RuntimeError("train_epoch requires train mode")
        loss_sum = 0.0
        task_sums = np.zeros(self.spec.n_tasks)
        n_batches = 0
        n_samples = 0
        for bx, by in data_mod.batch_iter(records, batch_cfg):
            loss, per_task = self.local_loss(bx, by, refs=refs, lam=lam)
            loss.require_finite("training loss")
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
            k = bx.shape[0]
            loss_sum += loss.item() * k
            task_sums += np.array(per_task) * k
            n_batches += 1
            n_samples += k
            if max_batches is not None and n_batches >= max_batches:
                break
        if n_batches == 0:
            raise data_mod.DataError("shard produced no batches of size >= 2")
        return TrainStats(
            mean_loss=loss_sum / n_samples,
            per_task_bce=tuple(task_sums / n_samples),
            n_batches=n_batches,
            n_samples=n_samples,
        )
