"""Versioned binary checkpoints: JSON header + raw little-endian float64.

The conv heads live in their own section so they can be added after
calibration or stripped again without touching a byte of the base weights;
loading a checkpoint and saving it back reproduces the file bit for bit.
The header of format version 2 carries a CRC-32 of the payload, so a flipped
bit in the weights is caught at load time. Version 1 files have no checksum
and are rejected.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .compressor import ConvHead
from .model import ModelConfig, ModelParams
from .numerics import ConvKernels, Tensor2

MAGIC = b"CKVC"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def _tensor_entries(named, offset):
    entries = []
    for name, tensor in named:
        entries.append(
            {"name": name, "rows": tensor.rows, "cols": tensor.cols, "offset": offset}
        )
        offset += tensor.rows * tensor.cols
    return entries, offset


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write config + weights; byte output is a pure function of the params."""
    base = params.named_base()
    conv = params.named_conv()
    base_entries, offset = _tensor_entries(base, 0)
    conv_entries, offset = _tensor_entries(conv, offset)
    payload = b"".join(
        tensor.data.astype("<f8", copy=False).tobytes() for _, tensor in base + conv
    )

    header: dict = {
        "format_version": FORMAT_VERSION,
        "config": params.config.to_dict(),
        "payload_crc32": zlib.crc32(payload),
        "sections": {"base": base_entries},
    }
    if params.conv_heads is not None:
        header["sections"]["conv_heads"] = conv_entries
        header["conv_meta"] = [
            {
                "layer_index": head.layer_index,
                "kernel_size": head.kernel_size,
                "relu_position": head.relu_position,
                "slots": head.slots,
            }
            for head in params.conv_heads
        ]
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"checkpoint truncated in its {what}")
    return data


def _read_header(fh) -> dict:
    magic = fh.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version field"))
    if version == 1:
        raise CheckpointError(
            "checkpoint format version 1 carries no payload checksum and is not read; "
            f"this release reads version {FORMAT_VERSION}"
        )
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
    try:
        return json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint; any truncation, padding, flipped payload bit or shape
    mismatch raises CheckpointError."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload = fh.read()
    sections = header["sections"]
    entries = [e for section in sections.values() for e in section]
    expected = 8 * sum(e["rows"] * e["cols"] for e in entries)
    if len(payload) != expected:
        raise CheckpointError(
            f"payload holds {len(payload)} bytes but the header describes {expected}"
        )
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise CheckpointError("payload checksum mismatch: the weights are corrupt")
    data = np.frombuffer(payload, dtype="<f8")

    def take(entry) -> Tensor2:
        start = entry["offset"]
        count = entry["rows"] * entry["cols"]
        if start + count > data.size:
            raise CheckpointError(f"tensor {entry['name']} runs past the payload")
        return Tensor2(data[start:start + count].reshape(entry["rows"], entry["cols"]))

    config = ModelConfig.from_dict(header["config"])
    base = {e["name"]: e for e in sections["base"]}
    params = ModelParams.init(config, seed=0)
    for name, tensor in params.named_base():
        entry = base.get(name)
        if entry is None:
            raise CheckpointError(f"checkpoint is missing base tensor {name!r}")
        if (entry["rows"], entry["cols"]) != tensor.shape:
            raise CheckpointError(
                f"tensor {name!r} is {entry['rows']}x{entry['cols']} in the checkpoint, "
                f"the model needs {tensor.rows}x{tensor.cols}"
            )
        tensor.data = take(entry).data

    if "conv_heads" in sections:
        conv_tensors = {e["name"]: take(e) for e in sections["conv_heads"]}
        heads = []
        for meta in header["conv_meta"]:
            i = meta["layer_index"]
            weights = conv_tensors[f"conv_heads.{i}.kernels"]
            kernels = ConvKernels(weights, c_in=2 * config.d_model, k=meta["kernel_size"])
            heads.append(
                ConvHead(kernels, layer_index=i, relu_position=meta["relu_position"])
            )
        params.conv_heads = heads
    else:
        params.conv_heads = None
    return params


def has_conv_heads(path: str | Path) -> bool:
    with open(path, "rb") as fh:
        header = _read_header(fh)
    return "conv_heads" in header["sections"]


def strip_conv_heads(src: str | Path, dst: str | Path) -> None:
    """Rewrite a checkpoint without its compression heads."""
    params = load_checkpoint(src)
    params.drop_conv_heads()
    save_checkpoint(params, dst)
