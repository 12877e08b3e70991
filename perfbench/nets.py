"""Seeded synthetic networks with real model layer shapes.

Weights are bell-shaped int8 as in the README tour: N(0, 6), rounded,
clipped to +-127, with 20% pruned to zero. The nets are written with the
benchmark's own code (raw K-major int8 files plus a text manifest), so the
program under test only ever sees the written manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    name: str
    kind: str
    k: int
    c: int
    fy: int
    fx: int
    ox: int
    stride: int = 1

    @property
    def n_weights(self) -> int:
        return self.k * self.c * self.fy * self.fx

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.k, self.c, self.fy, self.fx)


def conv(name, k, c, f, ox, stride=1):
    return Shape(name, "conv" if f > 1 else "pointwise-conv", k, c, f, f, ox, stride)


def dw(name, ch, ox, stride=1):
    return Shape(name, "depthwise-conv", ch, 1, 3, 3, ox, stride)


def fc(name, k, c):
    return Shape(name, "fully-connected", k, c, 1, 1, 1)


def resnet18() -> list[Shape]:
    """torchvision ResNet18 at 224x224: 20 convs plus the classifier."""
    layers = [conv("conv1", 64, 3, 7, 112, 2)]
    c_in, ox = 64, 56
    for stage, width in enumerate((64, 128, 256, 512), 1):
        for block in range(2):
            stride = 2 if stage > 1 and block == 0 else 1
            if stride == 2:
                ox //= 2
            p = f"layer{stage}.{block}"
            layers.append(conv(f"{p}.conv1", width, c_in, 3, ox, stride))
            layers.append(conv(f"{p}.conv2", width, width, 3, ox))
            if stride == 2:
                layers.append(conv(f"{p}.downsample", width, c_in, 1, ox, 2))
            c_in = width
    layers.append(fc("fc", 1000, 512))
    return layers


def mobilenetv2() -> list[Shape]:
    """torchvision MobileNetV2 at 224x224: 17 inverted-residual blocks."""
    layers = [conv("features.0", 32, 3, 3, 112, 2)]
    c_in, ox, idx = 32, 112, 1
    for t, c, n, s in ((1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
                       (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1)):
        for i in range(n):
            stride = s if i == 0 else 1
            hidden = c_in * t
            p = f"features.{idx}"
            if t != 1:
                layers.append(conv(f"{p}.expand", hidden, c_in, 1, ox))
            ox //= stride
            layers.append(dw(f"{p}.dw", hidden, ox, stride))
            layers.append(conv(f"{p}.project", c, hidden, 1, ox))
            c_in, idx = c, idx + 1
    layers.append(conv("conv_last", 1280, 320, 1, ox))
    layers.append(fc("classifier", 1000, 1280))
    return layers


def resnet20() -> list[Shape]:
    """CIFAR ResNet20 at 32x32 (identity shortcuts, so no downsample convs)."""
    layers = [conv("conv1", 16, 3, 3, 32)]
    c_in, ox = 16, 32
    for stage, width in enumerate((16, 32, 64), 1):
        for block in range(3):
            stride = 2 if stage > 1 and block == 0 else 1
            ox //= stride
            p = f"stage{stage}.{block}"
            layers.append(conv(f"{p}.conv1", width, c_in, 3, ox, stride))
            layers.append(conv(f"{p}.conv2", width, width, 3, ox))
            c_in = width
    layers.append(fc("fc", 10, 64))
    return layers


NETS = {"resnet18": resnet18, "mobilenetv2": mobilenetv2, "resnet20": resnet20}


def smoke(shapes: list[Shape]) -> list[Shape]:
    """Smoke-size variant: channels / 8 and output maps capped at 4, names kept."""
    def cut(n):
        return n // 8 if n >= 8 else n
    return [replace(s, k=cut(s.k), c=1 if s.kind == "depthwise-conv" else cut(s.c),
                    ox=min(s.ox, 4)) for s in shapes]


def weights(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    w = rng.normal(0, 6, size=shape.dims).round().clip(-127, 127).astype(np.int8)
    w[rng.random(size=w.shape) < 0.2] = 0
    return w


def write_net(net: str, seed: int, out_dir: Path, small: bool = False) -> Path:
    """Generate `net` (or its smoke variant) from `seed` into out_dir; returns the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = [f"network={net}"]
    shapes = NETS[net]()
    for s in smoke(shapes) if small else shapes:
        weights(s, rng).tofile(out_dir / f"{s.name}.w.bin")
        lines.append(f"layer={s.name} kind={s.kind} K={s.k} C={s.c} FX={s.fx} FY={s.fy} "
                     f"OX={s.ox} OY={s.ox} B=1 stride={s.stride} weights={s.name}.w.bin")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def read_manifest(manifest: Path) -> dict[str, tuple[dict[str, str], np.ndarray]]:
    """Layer name -> (manifest fields, (K, C, FY, FX) int8 weights), read with numpy only."""
    layers = {}
    for line in manifest.read_text(encoding="utf-8").splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split())
        if "layer" not in fields:
            continue
        dims = tuple(int(fields[k]) for k in ("K", "C", "FY", "FX"))
        w = np.fromfile(manifest.parent / fields["weights"], dtype=np.int8).reshape(dims)
        layers[fields["layer"]] = (fields, w)
    return layers


if __name__ == "__main__":  # print the layer table of every net
    for net, build in NETS.items():
        shapes = build()
        print(f"{net}: {len(shapes)} layers, {sum(s.n_weights for s in shapes):,} weights")
        for s in shapes:
            print(f"  {s.name:<22}{s.kind:<17}K={s.k:<5}C={s.c:<5}F={s.fy}x{s.fx}  "
                  f"OX=OY={s.ox:<4}stride={s.stride}  {s.n_weights:>9,} weights")
