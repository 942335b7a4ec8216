"""Stable identifiers for federated tensors.

A SharedKey names one aggregatable tensor on each client. Scenario-weight
keys pool per expert layer (all experts and clients share one layer shape);
tower keys pool per (task, layer, part) across clients. The widened kinds
exist for ablations that average additional parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

KINDS = ("expert_scenario", "tower", "expert_local", "local")


@dataclass(frozen=True, order=True)
class SharedKey:
    kind: str
    index: int  # expert index, task index, or -1
    layer: int  # layer index within the stack, or -1
    part: str  # tensor role within the layer ("w_s", "w", "b", ...)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown key kind {self.kind!r}")

    def group(self) -> Optional[tuple]:
        """Coordination pool this key belongs to; None for plain-average kinds."""
        if self.kind == "expert_scenario":
            return ("expert_scenario", self.layer)
        if self.kind == "tower":
            return ("tower", self.index, self.layer, self.part)
        return None

    def label(self) -> str:
        return f"{self.kind}:{self.index}:{self.layer}:{self.part}"
