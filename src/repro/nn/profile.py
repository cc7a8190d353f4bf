"""Static profiling of models: MACs, parameters and activation sizes.

The profile is the interface between the NN engine and the systems side
of the library: the partitioner in :mod:`repro.core.partition` only needs
to know, for every layer, how much compute it costs and how many bits
would have to cross the leaf-to-hub link if the model were cut after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from .model import Sequential


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer cost summary."""

    index: int
    name: str
    output_shape: tuple[int, ...]
    macs: int
    params: int
    output_elements: int
    output_bits: float


@dataclass(frozen=True)
class ModelProfile:
    """Whole-model cost summary with per-layer detail."""

    model_name: str
    input_shape: tuple[int, ...]
    input_bits: float
    layers: tuple[LayerProfile, ...]
    activation_bits_per_element: int

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulates per inference."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_params(self) -> int:
        """Total trainable parameters."""
        return sum(layer.params for layer in self.layers)

    @property
    def output_bits(self) -> float:
        """Size of the final output activation in bits."""
        if not self.layers:
            return self.input_bits
        return self.layers[-1].output_bits

    def macs_before(self, split_index: int) -> int:
        """MACs executed by layers [0, split_index)."""
        self._check_split(split_index)
        return sum(layer.macs for layer in self.layers[:split_index])

    def macs_after(self, split_index: int) -> int:
        """MACs executed by layers [split_index, end)."""
        self._check_split(split_index)
        return sum(layer.macs for layer in self.layers[split_index:])

    def transfer_bits_at(self, split_index: int) -> float:
        """Bits crossing the link if the model is cut before layer *split_index*.

        ``split_index == 0`` means "ship the raw input"; ``split_index ==
        len(layers)`` means "ship only the final output" (full local
        inference).
        """
        self._check_split(split_index)
        if split_index == 0:
            return self.input_bits
        return self.layers[split_index - 1].output_bits

    def split_points(self) -> list[int]:
        """All valid split indices (0 .. number of layers)."""
        return list(range(len(self.layers) + 1))

    def _check_split(self, split_index: int) -> None:
        if not 0 <= split_index <= len(self.layers):
            raise GraphError(
                f"split index {split_index} out of range for "
                f"{len(self.layers)} layers"
            )


def profile_model(model: Sequential,
                  activation_bits_per_element: int = 8) -> ModelProfile:
    """Build a :class:`ModelProfile` for *model*.

    ``activation_bits_per_element`` sets how activations would be
    serialised on the link (8-bit quantised by default, matching the
    int8 deployment path of :mod:`repro.nn.quantize`).
    """
    if activation_bits_per_element <= 0:
        raise GraphError("activation bits per element must be positive")
    shapes = model.layer_shapes()
    input_elements = int(np.prod(model.input_shape))
    layers = []
    for index, layer in enumerate(model.layers):
        out_shape = shapes[index + 1]
        elements = int(np.prod(out_shape))
        layers.append(LayerProfile(
            index=index,
            name=layer.name,
            output_shape=tuple(out_shape),
            macs=int(layer.macs(shapes[index])),
            params=int(layer.num_params()),
            output_elements=elements,
            output_bits=float(elements * activation_bits_per_element),
        ))
    return ModelProfile(
        model_name=model.name,
        input_shape=model.input_shape,
        input_bits=float(input_elements * activation_bits_per_element),
        layers=tuple(layers),
        activation_bits_per_element=activation_bits_per_element,
    )
