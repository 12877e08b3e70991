"""Network and layer descriptions shared by every stage of the toolkit.

A layer is described by its nested-loop dimensions (K output channels,
C input channels, FY/FX kernel, OX/OY output, B batch) plus a kind tag.
Weights are kept as a 4-D int8 array in (K, C, FY, FX) order, matching
the flat K-major byte order of the on-disk tensor files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

LAYER_KINDS = ("conv", "depthwise-conv", "pointwise-conv", "fully-connected", "matmul")

# Kinds whose kernel window is forced to 1x1.
_UNIT_KERNEL_KINDS = ("pointwise-conv", "fully-connected", "matmul")

# loop bounds stay far below float range in every cycle and traffic product
MAX_DIM = 2**31 - 1

# the compressed container counts a layer's values in a u32
MAX_LAYER_VALUES = 2**32 - 1

# a layer name is a file name stem (`<name>.w.bin`), which must fit in 255 bytes
NAME_MAX_BYTES = 240


class BitcolError(Exception):
    """Base class for toolkit input/contract errors."""


class ManifestError(BitcolError):
    pass


class ContainerError(BitcolError):
    pass


class MappingError(BitcolError):
    pass


class OracleError(BitcolError):
    pass


class ConfigError(BitcolError):
    pass


@dataclass(frozen=True)
class LayerShape:
    """Loop dimensions of one layer.

    Fully-connected and matmul layers are expressed as 1x1 convolutions:
    C = input features, K = output features, OX = token count, OY = B' = 1.
    Depthwise convolutions carry one input channel per filter (C = 1,
    K = channel count).
    """

    k: int
    c: int
    fy: int
    fx: int
    ox: int
    oy: int
    b: int = 1
    stride: int = 1
    kind: str = "conv"

    def __post_init__(self):
        for name in ("k", "c", "fy", "fx", "ox", "oy", "b", "stride"):
            if not 1 <= getattr(self, name) <= MAX_DIM:
                raise ManifestError(
                    f"layer dimension {name}={getattr(self, name)} must be in 1..{MAX_DIM}")
        if self.n_weights > MAX_LAYER_VALUES:
            raise ManifestError(f"layer has {self.n_weights} weight values; "
                                f"a container layer holds at most {MAX_LAYER_VALUES}")
        if self.kind not in LAYER_KINDS:
            raise ManifestError(f"unknown layer kind {self.kind!r}")
        if self.kind == "depthwise-conv" and self.c != 1:
            raise ManifestError("depthwise-conv layers carry one input channel per filter (C=1)")
        if self.kind in _UNIT_KERNEL_KINDS and (self.fx != 1 or self.fy != 1):
            raise ManifestError(f"{self.kind} layers require FX=FY=1")

    @property
    def n_weights(self) -> int:
        return self.k * self.c * self.fy * self.fx

    @property
    def macs(self) -> int:
        return self.b * self.k * self.c * self.ox * self.oy * self.fx * self.fy

    @property
    def in_channels(self) -> int:
        """Channel count of the input feature map (K for depthwise)."""
        return self.k if self.kind == "depthwise-conv" else self.c

    @property
    def input_hw(self) -> tuple[int, int]:
        ix = (self.ox - 1) * self.stride + self.fx
        iy = (self.oy - 1) * self.stride + self.fy
        return ix, iy

    @property
    def weight_dims(self) -> tuple[int, int, int, int]:
        return (self.k, self.c, self.fy, self.fx)


@dataclass
class Layer:
    """One named layer: shape, int8 weights, optional activation statistics.

    `s_a` is a per-layer activation value-sparsity scalar in [0, 1]; `acts`
    is an optional int8 sample tensor. When both are present the scalar wins.
    """

    name: str
    shape: LayerShape
    weights: np.ndarray
    s_a: float | None = None
    acts: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.int8)
        if self.weights.shape != self.shape.weight_dims:
            raise ManifestError(
                f"layer {self.name!r}: weight array shape {self.weights.shape} "
                f"does not match declared dims {self.shape.weight_dims}"
            )
        if self.s_a is not None and not 0.0 <= self.s_a <= 1.0:
            raise ManifestError(f"layer {self.name!r}: s_a={self.s_a} outside [0, 1]")
        if self.acts is not None:
            self.acts = np.asarray(self.acts, dtype=np.int8)

    def act_sparsity(self, default: float = 0.0) -> float:
        """Activation value sparsity: scalar if given, else sample-derived."""
        if self.s_a is not None:
            return self.s_a
        if self.acts is not None and self.acts.size:
            return float(np.count_nonzero(self.acts == 0) / self.acts.size)
        return default


def _check_name(name: str) -> None:
    """A layer name names files, so it must be one safe path token."""
    if (not name or ".." in name or any(c in "/\\" or c.isspace() or not c.isprintable()
                                        for c in name)
            or len(name.encode("utf-8")) > NAME_MAX_BYTES):
        raise ManifestError(
            f"layer name {name!r} is not a file-name-safe token (1 to {NAME_MAX_BYTES} "
            "UTF-8 bytes, no '/', '\\', '..', whitespace or control characters)")


@dataclass
class Network:
    name: str
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        for l in self.layers:
            _check_name(l.name)
        names = [l.name for l in self.layers]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ManifestError(f"duplicate layer names: {sorted(dupes)}")

    def layer(self, name: str) -> Layer:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(name)

    @property
    def n_weights(self) -> int:
        return sum(l.shape.n_weights for l in self.layers)

    def with_weights(self, new_weights: dict[str, np.ndarray]) -> "Network":
        """Copy of the network with every layer's weights replaced (KeyError
        if `new_weights` misses a layer)."""
        return Network(self.name, [replace(l, weights=new_weights[l.name]) for l in self.layers])


def check_layer_names(net: Network, given, error: type[Exception] = ManifestError,
                      what: str = "strategy") -> None:
    """Raise `error` unless `given` (a strategy, say) names exactly the network's layers."""
    names = [l.name for l in net.layers]
    missing = [name for name in names if name not in given]
    if missing:
        raise error(f"{what} is missing layers: {missing}")
    unknown = [name for name in given if name not in names]
    if unknown:
        raise error(f"{what} names layers the network does not have: {unknown}")
