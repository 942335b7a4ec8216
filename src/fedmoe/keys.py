"""Stable identifiers for federated tensors.

A SharedKey names one aggregatable tensor on each client. An expert
layer's scenario weights are one key, the layer's whole (N, d_in, d_out)
stack with ``index=-1``; a task's whole tower is one key,
``("tower", task, -1, "all")``, its (1, P) row of the towers block. So a
coordinated key's leading axis is its rows, the experts of a layer or the
one task of a tower, and a coordinated key is the unit that the server
solves as one update and that each client steps one psi array for. The
widened kinds exist for ablations that average additional parameter sets.
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

    def label(self) -> str:
        return f"{self.kind}:{self.index}:{self.layer}:{self.part}"
