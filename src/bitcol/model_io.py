"""Network ingest and on-disk formats.

Manifest: UTF-8 text, one `network=<name>` line, then one line per layer
(at least one):

    layer=<name> kind=<kind> K=<n> C=<n> FX=<n> FY=<n> OX=<n> OY=<n> B=<n>
        stride=<n> weights=<relpath> [s_a=<float>] [acts=<relpath>]

Weight files are raw two's-complement int8 bytes in K-major (K, C, FY, FX)
order; activation sample files are raw int8 of any length. All sizes are
explicit in the manifest; nothing is inferred from file size. A layer name
is also the stem of the layer's file names, so it must be a file-name-safe
token (see workload.Network).

Compressed container (byte exact): magic "BCSW", version 0x02; per layer:
name length u16-LE + name bytes, group size u8, mode u8 (0=dense, 1=bcs),
element count u32-LE, group count u32-LE, payload, u32-LE zlib.crc32 of the
payload. Dense payload is the raw int8 bytes; bcs payload is the index bytes
(CompressedLayer.indexes), then the column bytes (.columns): ceil(G/8) per set
index bit, group by group, sign column first then bit 6..0. The index popcount
sum sizes the column slice, so no read walks the groups. A write passes the
index and column arrays to the file as they are, with no joined copy.
"""

from __future__ import annotations

import csv
import math
import struct
import zlib
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codec import GROUP_SIZES, CompressedLayer, _popcount, column_offsets
from .workload import ContainerError, Layer, LayerShape, ManifestError, Network

MAGIC = b"BCSW"
VERSION = 2

_LAYER_KEYS = ("layer", "kind", "K", "C", "FX", "FY", "OX", "OY", "B", "stride", "weights")
_OPT_KEYS = ("s_a", "acts")


def _parse_fields(line: str, lineno: int) -> dict[str, str]:
    fields = {}
    for tok in line.split():
        if "=" not in tok:
            raise ManifestError(f"line {lineno}: malformed token {tok!r}")
        key, _, val = tok.partition("=")
        if key in fields:
            raise ManifestError(f"line {lineno}: repeated key {key!r}")
        fields[key] = val
    return fields


def _read_int8(path: Path, expected: int, what: str) -> np.ndarray:
    if not path.is_file():
        raise ManifestError(f"{what} file not found: {path}")
    size = path.stat().st_size  # checked before anything is read
    if expected >= 0 and size != expected:
        raise ManifestError(f"{what} file {path}: {size} bytes, expected {expected}")
    return np.fromfile(path, dtype=np.int8, count=expected)


def load_network(manifest_path: str | Path) -> Network:
    """Load a manifest plus every referenced tensor, exactly as stored."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ManifestError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    name = None
    layers: list[Layer] = []
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ManifestError(f"manifest {manifest_path} is not UTF-8: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _parse_fields(line, lineno)
        if "network" in fields:
            if len(fields) > 1:
                raise ManifestError(f"line {lineno}: the network= line takes no other keys")
            if name is not None:
                raise ManifestError(f"line {lineno}: a second network= line")
            name = fields["network"]
            continue
        if "layer" not in fields:
            raise ManifestError(f"line {lineno}: expected a layer record")
        missing = [k for k in _LAYER_KEYS if k not in fields]
        if missing:
            raise ManifestError(f"line {lineno}: missing keys {missing}")
        unknown = [k for k in fields if k not in _LAYER_KEYS and k not in _OPT_KEYS]
        if unknown:
            raise ManifestError(f"line {lineno}: unknown keys {unknown}")
        try:
            shape = LayerShape(
                k=int(fields["K"]), c=int(fields["C"]),
                fy=int(fields["FY"]), fx=int(fields["FX"]),
                ox=int(fields["OX"]), oy=int(fields["OY"]),
                b=int(fields["B"]), stride=int(fields["stride"]),
                kind=fields["kind"],
            )
        except ValueError as e:
            raise ManifestError(f"line {lineno}: {e}") from e
        weights = _read_int8(base / fields["weights"], shape.n_weights,
                             f"layer {fields['layer']!r} weights").reshape(shape.weight_dims)
        try:
            s_a = float(fields["s_a"]) if "s_a" in fields else None
        except ValueError as e:
            raise ManifestError(f"line {lineno}: s_a: {e}") from e
        acts = _read_int8(base / fields["acts"], -1, f"layer {fields['layer']!r} acts") \
            if "acts" in fields else None
        layers.append(Layer(fields["layer"], shape, weights, s_a=s_a, acts=acts))
    if name is None:
        raise ManifestError("manifest has no network= line")
    if not layers:
        raise ManifestError("manifest has no layers")
    return Network(name, layers)


def save_network(net: Network, out_dir: str | Path) -> Path:
    """Write manifest plus raw tensors; load_network(save_network(n)) == n."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"network={net.name}"]
    for l in net.layers:
        s = l.shape
        wfile = f"{l.name}.w.bin"
        l.weights.astype(np.int8).tofile(out_dir / wfile)
        rec = (f"layer={l.name} kind={s.kind} K={s.k} C={s.c} FX={s.fx} FY={s.fy} "
               f"OX={s.ox} OY={s.oy} B={s.b} stride={s.stride} weights={wfile}")
        if l.s_a is not None:
            rec += f" s_a={l.s_a:g}"
        if l.acts is not None:
            afile = f"{l.name}.a.bin"
            l.acts.astype(np.int8).tofile(out_dir / afile)
            rec += f" acts={afile}"
        lines.append(rec)
    path = out_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_compressed(path: str | Path, layers: Sequence[CompressedLayer]) -> None:
    """Write a container (see the module docstring); a bcs layer whose column
    count is not its index popcount sum is rejected before the file opens."""
    for cl in layers:
        if cl.mode == "bcs" and column_offsets(cl)[-1] != len(cl.columns):
            raise ContainerError(f"layer {cl.name!r}: index/payload length mismatch")
    with open(path, "wb") as f:
        f.write(MAGIC + bytes([VERSION]))
        for cl in layers:
            name = cl.name.encode("utf-8")
            f.write(struct.pack("<H", len(name)) + name +
                    struct.pack("<BBII", cl.group_size, cl.mode == "bcs", cl.n_values, cl.n_groups))
            parts = ((cl.dense_values.astype(np.int8, copy=False),) if cl.mode == "dense"
                     else (cl.indexes, cl.columns))
            crc = 0
            for part in map(np.ascontiguousarray, parts):  # the CRC chains over the parts
                f.write(part)
                crc = zlib.crc32(part, crc)
            f.write(struct.pack("<I", crc))


def read_compressed(path: str | Path) -> list[CompressedLayer]:
    """Read a container; returned layers carry no tensor dims (see codec), and
    no two of them share a name.

    Every count in a layer header is checked against the bytes that remain
    before anything is allocated from it, so no allocation exceeds the file.
    """
    data = Path(path).read_bytes()
    if len(data) < 5 or data[:4] != MAGIC:
        raise ContainerError(f"{path}: bad magic")
    if data[4] != VERSION:
        raise ContainerError(f"{path}: unsupported version {data[4]}")
    pos = 5
    layers, names = [], set()
    while pos < len(data):
        if pos + 2 > len(data):
            raise ContainerError(f"{path}: truncated layer header")
        (nlen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + nlen + 10 > len(data):
            raise ContainerError(f"{path}: truncated layer header")
        try:
            name = data[pos:pos + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise ContainerError(f"{path}: layer name at offset {pos} is not UTF-8") from e
        if name in names:
            raise ContainerError(f"{path}: container names layer {name!r} twice")
        names.add(name)
        pos += nlen
        gsize, mode, n_values, n_groups = struct.unpack_from("<BBII", data, pos)
        pos += 10
        if gsize not in GROUP_SIZES:
            raise ContainerError(f"{path}: layer {name!r} has invalid group size {gsize}")
        if mode not in (0, 1):
            raise ContainerError(f"{path}: layer {name!r} has invalid mode {mode}")
        size = n_values if mode == 0 else n_groups  # the payload, or its index slice
        if size + 4 > len(data) - pos:
            raise ContainerError(f"{path}: layer {name!r} payload truncated")
        if mode == 1:  # then the column slice: ceil(G/8) bytes per set index bit
            gb = math.ceil(gsize / 8)
            size += _popcount(np.frombuffer(data, np.uint8, n_groups, pos)) * gb
            if size + 4 > len(data) - pos:
                raise ContainerError(f"{path}: layer {name!r} payload truncated")
        payload = np.frombuffer(data, np.uint8, size, pos)
        if zlib.crc32(payload) != struct.unpack_from("<I", data, pos + size)[0]:
            raise ContainerError(f"{path}: layer {name!r} payload fails its CRC32")
        if mode == 0:
            layers.append(CompressedLayer(name, gsize, "dense", n_values, n_groups,
                                          dense_values=payload.view(np.int8).copy()))
        else:
            layers.append(CompressedLayer(name, gsize, "bcs", n_values, n_groups,
                                          indexes=payload[:n_groups].copy(),
                                          columns=payload[n_groups:].reshape(-1, gb).copy()))
        pos += size + 4
    return layers


def render_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def write_report_csv(rows: Iterable[Mapping], path: str | Path,
                     fieldnames: Sequence[str] | None = None) -> None:
    """RFC-4180 CSV with a header row; floats use 6 significant digits.

    Row order is input order. With zero rows, fieldnames must be given to
    emit the header-only file.
    """
    rows = list(rows)
    if fieldnames is None:
        if not rows:
            raise ValueError("fieldnames required when there are no rows")
        fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([render_value(row.get(k)) for k in fieldnames])
