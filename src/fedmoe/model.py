"""One client's mixture-of-experts model with decoupled expert weights.

Each expert layer owns three same-shape weight factors: a local private
weight, a task weight regenerated every forward pass by a small template
network from the task embedding, and a materialized scenario weight that is
the unit of federated sharing. The effective layer weight is their
element-wise product. Per-task softmax gates mix expert outputs; per-task
tower MLPs with a sigmoid head produce probabilities.

Layout. Every part is stored stacked, one Parameter per part. Expert
layer l stacks over the N experts: ``w_loc`` and ``w_s`` (N, d_in, d_out),
``bias`` (N, d_out), and the template's ``tmpl.w1`` (N, e, e), ``tmpl.b1``
(N, e), ``tmpl.w2`` (N, e, d_in*d_out) and ``tmpl.b2`` (N, d_in*d_out).
The gates stack over the T tasks: ``gates.w`` (T, d_feat, N) and
``gates.b`` (T, N). The towers are one (T, P) block, ``towers``, laid out
by task: task t's row holds its layers' ``w`` then ``b``, the sigmoid head
last. The forward reads each tower layer as ``towers.l{l}.w``
(T, d_in, d_out) and ``towers.l{l}.b`` (T, d_out), strided views of that
block that ``parameters()`` lists in its place. So each layer is one
node for all paths: per expert layer one ``task_weights`` node builds the
T x N effective weights and one ``hidden_layer`` node runs every (task,
expert) path through affine, ReLU and dropout, as (T, N, K, d_out); one
stacked ``affine`` and ``softmax`` give every task's gate rows; one
``mix_experts`` node mixes the paths into (T, K, d); each hidden tower
layer is one ``hidden_layer`` node over (T, K, d_in); and the head's
affine, sigmoid and reshape give one (T, K) probability tensor, which
one ``bce`` node scores against all tasks' labels.
A train-mode forward draws each hidden layer's dropout mask in one call,
of that layer's output shape, in the order the layers run
(``_dropout_keeps``).
``_shapes`` is the one table of every part's name and shape in buffer
order. ``initial_buffers`` allocates a ParameterBuffer from it and fills
each stacked Parameter, a view of that buffer, in place in the rng's draw
order; a model takes over one such buffer, so no parameter exists
outside it. The buffer's dtype is the model's: float32 by default, which
is how clients train, or float64, which the gradient checks use.
``forward`` and ``local_loss`` cast features and labels to it, so every
activation, gradient and Adam moment has it too.

Keys. A federated key is its parameter's name. ``key_map()`` maps a
SharedKey per buffer Parameter but ``towers``, named as in ``_shapes``
(``emb.task``, ``experts.l0.w_s``, ``gates.b``, ...), plus one per task
row of the towers block, ``towers.t<task>`` of shape (1, P), to a
Parameter whose value and grad are views of the buffer, so uploads and
server updates read and write it in place. A key's kind, the set a
strategy shares or keeps local, is read from its name: the towers, the
scenario weights ``.w_s``, the other expert parts, or the rest.

The model holds no mode: ``forward`` takes ``train`` (batch statistics and
dropout) and ``use_dropout`` as arguments, so evaluation and the held-out
psi pass never switch a flag they must restore. Nor does the forward write
the input batch norm's running statistics; the training loop folds each
training batch into them with ``BNState.track``. So a forward without
dropout is a pure function of the parameters and the batch, and one with
dropout writes nothing but the position of the model's rng.

The scenario weight is initialized once from a scenario template applied to
the client's scenario embedding and is afterwards trained directly; the
additive server update needs it to be a concrete leaf tensor. Every client
starts from one blueprint, drawn from the shared seed, except for the
scenario-dependent weights, and a run draws that blueprint once:
``initial_buffers`` returns a copy per scenario with its own scenario
weights, and ``build_clients`` asks it once for every scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .diffcore import (
    BNState,
    Parameter,
    ParameterBuffer,
    Tensor,
    affine,
    batchnorm,
    bce,
    hidden_layer,
    mix_experts,
    reshape,
    sigmoid,
    softmax,
    task_weights,
)

__all__ = ["ModelSpec", "ClientModel", "SharedKey", "initial_buffers", "EXPERT_PARTS", "TEMPLATE_PARTS"]


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
        if not self.expert_widths or min(self.expert_widths) < 1:
            raise ValueError(f"expert_widths: need at least one layer, each of width >= 1, got {self.expert_widths}")
        if self.tower_widths and min(self.tower_widths) < 1:
            raise ValueError(f"tower_widths: widths must be >= 1, got {self.tower_widths}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def _he_init(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out))


def _head_init(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))


# Parts of one stacked expert layer, in buffer order.
TEMPLATE_PARTS = ("tmpl.w1", "tmpl.b1", "tmpl.w2", "tmpl.b2")
EXPERT_PARTS = ("w_loc", "w_s", "bias", *TEMPLATE_PARTS)


def _template_w2_init(rng: np.random.Generator, d_emb: int, out_len: int) -> np.ndarray:
    # Small output weights and a unit bias: generated factors start near the
    # multiplicative identity.
    return rng.normal(0.0, 0.05 / np.sqrt(d_emb), size=(d_emb, out_len))


def _shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in buffer order."""
    t, n, e = spec.n_tasks, spec.n_experts, spec.d_emb
    shapes = {"emb.task": (t, e), "bn_in.gamma": (spec.d_feat,), "bn_in.beta": (spec.d_feat,)}
    dims = [spec.d_feat, *spec.expert_widths]
    for li, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        parts = {
            "w_loc": (n, d_in, d_out),
            "w_s": (n, d_in, d_out),
            "bias": (n, d_out),
            "tmpl.w1": (n, e, e),
            "tmpl.b1": (n, e),
            "tmpl.w2": (n, e, d_in * d_out),
            "tmpl.b2": (n, d_in * d_out),
        }
        shapes.update((f"experts.l{li}.{part}", parts[part]) for part in EXPERT_PARTS)
    shapes["gates.w"], shapes["gates.b"] = (t, spec.d_feat, n), (t, n)
    shapes["towers"] = (t, sum(d_in * d_out + d_out for d_in, d_out in _tower_dims(spec)))
    return shapes


@dataclass(frozen=True, order=True)
class SharedKey:
    """One federated tensor, named as its parameter: a name of ``_shapes`` or ``towers.t<task>``."""

    name: str

    @property
    def kind(self) -> str:
        """The one naming rule: the towers, the scenario weights, the other expert parts, the rest."""
        if self.name.startswith("towers."):
            return "tower"
        if self.name.endswith(".w_s"):
            return "expert_scenario"
        return "expert_local" if self.name.startswith("experts.") else "local"


def _tower_dims(spec: ModelSpec) -> list[tuple[int, int]]:
    """Each tower layer's (d_in, d_out), the sigmoid head last."""
    dims = [spec.expert_widths[-1], *spec.tower_widths, 1]
    return list(zip(dims[:-1], dims[1:]))


def _expert_layers(spec: ModelSpec, params: dict[str, Parameter]) -> list[dict[str, Parameter]]:
    return [{part: params[f"experts.l{li}.{part}"] for part in EXPERT_PARTS} for li in range(len(spec.expert_widths))]


def _tower_layers(spec: ModelSpec, params: dict[str, Parameter]) -> list[dict[str, Parameter]]:
    """Each layer's ``w`` (T, d_in, d_out) and ``b`` (T, d_out), strided views of the ``towers`` rows."""
    block, layers, start = params["towers"], [], 0
    for li, (d_in, d_out) in enumerate(_tower_dims(spec)):
        layer = {}
        for part, shape in (("w", (d_in, d_out)), ("b", (d_out,))):
            end = start + math.prod(shape)
            value, grad = (a[:, start:end].reshape(-1, *shape) for a in (block.data, block.grad))
            layer[part] = Parameter(value, f"towers.l{li}.{part}", grad=grad)
            start = end
        layers.append(layer)
    return layers


def _init_expert_layers(spec: ModelSpec, layers: list[dict[str, Parameter]], rng: np.random.Generator) -> None:
    """Fill every expert layer but ``w_s``, drawing expert by expert, layer by layer."""
    e = spec.d_emb
    for layer in layers:
        layer["bias"].data[...] = 0.0
        layer["tmpl.b1"].data[...] = 0.0
        layer["tmpl.b2"].data[...] = 1.0
    for k in range(spec.n_experts):
        for layer in layers:
            d_in, d_out = layer["w_loc"].shape[1:]
            layer["w_loc"].data[k] = _he_init(rng, d_in, d_out)
            layer["tmpl.w1"].data[k] = _he_init(rng, e, e)
            layer["tmpl.w2"].data[k] = _template_w2_init(rng, e, d_in * d_out)


def _init_tower_layers(spec: ModelSpec, layers: list[dict[str, Parameter]], rng: np.random.Generator) -> None:
    """Fill the tower layers, the sigmoid head last, drawing task by task."""
    for layer in layers:
        layer["b"].data[...] = 0.0
    for t in range(spec.n_tasks):
        for layer in layers:
            init = _head_init if layer is layers[-1] else _he_init
            layer["w"].data[t] = init(rng, *layer["w"].shape[1:])


def initial_buffers(
    spec: ModelSpec, init_seed: int, scenarios: Sequence[int], dtype=np.float32
) -> list[ParameterBuffer]:
    """Each listed scenario's initial parameter buffer of ``dtype``, in order.

    Fills one ParameterBuffer in the rng's draw order and copies it, so
    every scenario gets the same blueprint; ``spec.scenario`` is ignored.
    The draws are float64, rounded once into the buffer.
    Only the scenario weights differ: the scenario templates, drawn last,
    map each scenario's embedding row to its ``w_s``. The templates and
    embeddings are dropped on return.
    """
    if not scenarios or not all(0 <= s < spec.n_scenarios for s in scenarios):
        raise ValueError(f"scenarios {list(scenarios)} empty or out of range for {spec.n_scenarios}")
    rng = np.random.default_rng([init_seed, 0xD0DE])
    shapes = _shapes(spec)
    buffer = ParameterBuffer(shapes, dtype)
    params = buffer.params
    params["emb.task"].data[...] = rng.normal(0.0, 1.0, size=params["emb.task"].shape)
    emb_scenario = rng.normal(0.0, 1.0, size=(spec.n_scenarios, spec.d_emb))
    params["bn_in.gamma"].data[...] = 1.0
    params["bn_in.beta"].data[...] = 0.0
    _init_expert_layers(spec, _expert_layers(spec, params), rng)
    # one draw fills the tasks' gates in turn
    params["gates.w"].data[...] = rng.normal(0.0, 0.1, size=params["gates.w"].shape)
    params["gates.b"].data[...] = 0.0
    _init_tower_layers(spec, _tower_layers(spec, params), rng)

    # The scenario templates' biases are zero (hidden) and one (output), as
    # in the task templates. Each scenario's row goes through them on its
    # own, as a (1, e) product, so its w_s does not depend on the others.
    buffers = [buffer, *(ParameterBuffer(shapes, dtype) for _ in scenarios[1:])]
    for copy in buffers[1:]:
        copy.values[...] = buffer.values
    e = spec.d_emb
    for k in range(spec.n_experts):
        for li in range(len(spec.expert_widths)):
            name = f"experts.l{li}.w_s"
            w1 = _he_init(rng, e, e)
            w2 = _template_w2_init(rng, e, math.prod(shapes[name][1:]))
            for scenario_buffer, s in zip(buffers, scenarios):
                w_s = scenario_buffer.params[name].data[k]
                w_s[...] = (np.maximum(emb_scenario[s : s + 1] @ w1, 0.0) @ w2 + 1.0).reshape(w_s.shape)
    return buffers


class ClientModel:
    def __init__(self, spec: ModelSpec, init_seed: int, buffer: Optional[ParameterBuffer] = None):
        """``buffer`` is this scenario's entry of ``initial_buffers(spec, init_seed, ...)``,
        which the model takes over; None builds it."""
        self.spec = spec
        if buffer is None:
            (buffer,) = initial_buffers(spec, init_seed, [spec.scenario])
        self.buffer = buffer
        params = buffer.params
        self.emb_task = params["emb.task"]
        self.bn_in = BNState.build(params["bn_in.gamma"], params["bn_in.beta"])
        self.expert_layers = _expert_layers(spec, params)
        self.gate = {"w": params["gates.w"], "b": params["gates.b"]}
        self.tower_layers = _tower_layers(spec, params)
        # The forward's leaves: the tower parts stand in for the block they carve.
        self._parameters = [p for name, p in params.items() if name != "towers"]
        self._parameters += [p for layer in self.tower_layers for p in layer.values()]
        self.rng = np.random.default_rng([init_seed, 0xD60, spec.scenario])
        self._key_map = self._build_key_map()

    def _build_key_map(self) -> dict[SharedKey, Parameter]:
        """Every buffer Parameter but ``towers`` by its name, then each task's (1, P) row of it."""
        towers, n_tasks = self.buffer.params["towers"], self.spec.n_tasks
        rows = [Parameter(towers.data[t : t + 1], f"towers.t{t}", grad=towers.grad[t : t + 1]) for t in range(n_tasks)]
        params = [p for name, p in self.buffer.params.items() if name != "towers"] + rows
        return {SharedKey(p.name): p for p in params}

    # -- parameter access ----------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        """Every leaf of the forward, in buffer order; together they cover the buffer."""
        return list(self._parameters)

    def zero_grad(self) -> None:
        self.buffer.zero_grad()

    def key_map(self) -> dict[SharedKey, Parameter]:
        """Total, disjoint keying of every trainable scalar by name (built once; do not mutate).

        A key's ``kind``, read from its name, is the set it belongs to, the
        unit a strategy shares or keeps local; callers filter this map by kind.
        """
        return self._key_map

    # -- forward and loss ----------------------------------------------------------

    def effective_weights(self, layer: int) -> Tensor:
        """Expert layer ``layer``'s (T, N, d_in, d_out) weights w_loc * W_t * w_s."""
        parts = self.expert_layers[layer]
        template = (parts[name] for name in TEMPLATE_PARTS)
        return task_weights(self.emb_task, *template, parts["w_loc"], parts["w_s"])

    def _dropout_keeps(self, k: int, rate: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The bool keep masks of one train forward on K rows, one draw per layer.

        Draws each expert layer's (T, N, K, d) masks, then each tower hidden
        layer's (T, K, d) masks, in the order the forward uses them.
        ``draw >= rate`` keeps bool masks on the tape, not float ones.
        """
        t, n = self.spec.n_tasks, self.spec.n_experts
        experts = [self.rng.random((t, n, k, d)) >= rate for d in self.spec.expert_widths]
        return experts, [self.rng.random((t, k, d)) >= rate for d in self.spec.tower_widths]

    def forward(self, x: np.ndarray, train: bool = True, use_dropout: bool = True) -> Tensor:
        """The (T, K) probabilities of every task for a feature batch (K, d_feat).

        ``train`` selects batch statistics for the input batch norm over
        the running ones, and enables dropout; ``use_dropout=False`` turns
        dropout off in train mode too. No mode writes the running statistics.
        """
        x = np.asarray(x, dtype=self.buffer.values.dtype)
        if x.ndim != 2 or x.shape[1] != self.spec.d_feat:
            raise ValueError(f"expected features (K, {self.spec.d_feat}), got {x.shape}")
        xhat = batchnorm(Tensor(x), self.bn_in, train=train)
        rate = self.spec.dropout if train and use_dropout else 0.0
        if rate > 0.0:
            expert_keeps, tower_keeps = self._dropout_keeps(x.shape[0], rate)
        else:
            expert_keeps, tower_keeps = [None] * len(self.expert_layers), [None] * len(self.spec.tower_widths)
        h = xhat
        for li, layer in enumerate(self.expert_layers):
            h = hidden_layer(h, self.effective_weights(li), layer["bias"], rate, expert_keeps[li])
        h = mix_experts(softmax(affine(xhat, self.gate["w"], self.gate["b"])), h)
        *hidden, head = self.tower_layers
        for layer, keep in zip(hidden, tower_keeps):
            h = hidden_layer(h, layer["w"], layer["b"], rate, keep)
        return reshape(sigmoid(affine(h, head["w"], head["b"])), (self.spec.n_tasks, x.shape[0]))

    def local_loss(self, x: np.ndarray, y: np.ndarray, use_dropout: bool = True) -> tuple[Tensor, Tensor]:
        """Train-mode multi-task BCE and the (T, K) probabilities."""
        y = np.asarray(y, dtype=self.buffer.values.dtype)
        if y.ndim != 2 or y.shape[1] != self.spec.n_tasks:
            raise ValueError(f"expected labels (K, {self.spec.n_tasks}), got {y.shape}")
        probs = self.forward(x, use_dropout=use_dropout)
        return bce(probs, y.T), probs
