"""Stable identifiers for federated tensors.

A SharedKey names one aggregatable tensor on each client. An expert
layer's scenario weights are one key, the layer's whole (N, d_in, d_out)
stack with ``index=-1``; each tower tensor is one key per (task, layer,
part), a (1, ...) view of the task's row. So a coordinated key's leading
axis is its rows: the experts of a layer, or the one task of a tower
tensor.

A coordinated key's ``pool`` is the unit that the server coordinates as
one update and that each client steps one psi array for: an expert layer's
scenario weights, ``(kind, layer)``, or a task's whole tower,
``("tower", task)``, whose tensors all have one row. The widened kinds
exist for ablations that average additional parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("expert_scenario", "tower", "expert_local", "local")


@dataclass(frozen=True, order=True)
class SharedKey:
    kind: str
    index: int  # task index, or -1
    layer: int  # layer index within the stack, or -1
    part: str  # tensor role within the layer ("w_s", "w", "b", ...)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown key kind {self.kind!r}")

    @property
    def pool(self) -> tuple:
        """The coordination and psi pool: a tower tensor's ("tower", task), else (kind, layer)."""
        if self.kind == "tower":
            return (self.kind, self.index)
        return (self.kind, self.layer)

    def label(self) -> str:
        return f"{self.kind}:{self.index}:{self.layer}:{self.part}"
