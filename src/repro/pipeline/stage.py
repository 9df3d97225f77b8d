"""Pipeline stages: contiguous slices of a model's layer list.

A :class:`StagePlan` is the output of partitioning (Section II-C):
stage ``s`` owns layers ``[start, end)`` of the model and is later
mapped to a GPU device by the device-mapping search (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import PartitionError
from repro.models import costs
from repro.models.layers import LayerSpec, ModelSpec


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: a contiguous run of model layers."""

    stage_id: int
    layers: List[LayerSpec]

    def __post_init__(self) -> None:
        if not self.layers:
            raise PartitionError(f"stage {self.stage_id} is empty")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def params(self) -> int:
        return sum(layer.params for layer in self.layers)

    def forward_flops(self, microbatch: int) -> float:
        return sum(layer.forward_flops(microbatch) for layer in self.layers)

    def backward_flops(self, microbatch: int) -> float:
        return sum(layer.backward_flops(microbatch) for layer in self.layers)

    def activation_bytes(self, microbatch: int, bytes_per_element: int = 2) -> int:
        """Saved activations for one in-flight microbatch on this stage."""
        return sum(
            layer.activation_bytes(microbatch, bytes_per_element) for layer in self.layers
        )

    def boundary_bytes(self, microbatch: int, bytes_per_element: int = 2) -> int:
        """Output tensor shipped to the next stage."""
        return self.layers[-1].boundary_bytes(microbatch, bytes_per_element)

    def model_state_bytes(self, weight_versions: int = 1) -> int:
        """Params (stashed ``weight_versions`` times), grads, optimizer."""
        if weight_versions < 1:
            raise PartitionError("weight_versions must be >= 1")
        return self.params * (
            costs.PARAM_BYTES * weight_versions + costs.GRAD_BYTES + costs.OPTIMIZER_BYTES
        )


@dataclass(frozen=True)
class StagePlan:
    """A full partition of one model into pipeline stages."""

    model: ModelSpec
    stages: List[Stage]

    def __post_init__(self) -> None:
        expected = 0
        for stage in self.stages:
            for layer in stage.layers:
                if layer.index != expected:
                    raise PartitionError(
                        f"stage {stage.stage_id}: layer {layer.index} out of order "
                        f"(expected {expected})"
                    )
                expected += 1
        if expected != self.model.n_layers:
            raise PartitionError(
                f"partition covers {expected} layers, model has {self.model.n_layers}"
            )

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage(self, stage_id: int) -> Stage:
        if not 0 <= stage_id < self.n_stages:
            raise PartitionError(f"stage id {stage_id} out of range")
        return self.stages[stage_id]
