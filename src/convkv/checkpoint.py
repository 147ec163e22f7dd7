"""Versioned binary checkpoints: JSON header + raw little-endian float64.

The conv heads live in their own section after the base weights, so adding
them after calibration, or saving again after ``ModelParams.drop_conv_heads``,
leaves every byte of the base weights as it was; loading a checkpoint and
saving it back reproduces the file bit for bit.
The header of format version 3 carries a CRC-32 of the canonical header
(without that field) followed by the payload, so a flipped bit in the
weights, or a header edit that stays self-consistent, is caught at load
time. Version 1 files have no checksum and version 2 files checksum only the
payload; both are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .compressor import new_conv_head
from .model import ModelConfig, ModelParams
from .numerics import Tensor2

MAGIC = b"CKVC"
FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def _layout(params: ModelParams) -> tuple[dict, list | None]:
    """The header's ``sections`` and ``conv_meta`` for ``params``.

    The one place that knows the layout: save writes it, and load accepts a
    header only if it equals the layout of the params built from it. Tensors
    sit in the payload back to back, base weights first.
    """
    named = {"base": params.named_base()}
    if params.conv_heads is not None:
        named["conv_heads"] = params.named_conv()
    sections, offset = {}, 0
    for section, tensors in named.items():
        sections[section] = []
        for name, tensor in tensors:
            sections[section].append(
                {"name": name, "rows": tensor.rows, "cols": tensor.cols, "offset": offset}
            )
            offset += tensor.rows * tensor.cols
    conv_meta = None if params.conv_heads is None else [
        {
            "layer_index": head.layer_index,
            "kernel_size": head.kernel_size,
            "relu_position": head.relu_position,
            "slots": head.slots,
        }
        for head in params.conv_heads
    ]
    return sections, conv_meta


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(header: dict, payload: bytes) -> int:
    """CRC-32 of the canonical header, its own ``crc32`` field left out, then the payload."""
    body = {key: value for key, value in header.items() if key != "crc32"}
    return zlib.crc32(payload, zlib.crc32(_canonical(body)))


def _tensors(params: ModelParams) -> list[Tensor2]:
    return [tensor for _, tensor in params.named_base() + params.named_conv()]


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write config + weights; byte output is a pure function of the params."""
    payload = b"".join(t.data.astype("<f8", copy=False).tobytes() for t in _tensors(params))
    sections, conv_meta = _layout(params)
    header: dict = {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(params.config),
        "sections": sections,
    }
    if conv_meta is not None:
        header["conv_meta"] = conv_meta
    header["crc32"] = _checksum(header, payload)
    header_bytes = _canonical(header)

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
    if version in (1, 2):
        raise CheckpointError(
            f"checkpoint format version {version} carries no header checksum and is not "
            f"read; this release reads version {FORMAT_VERSION}"
        )
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
    try:
        return json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc


def _params_from_header(header: dict) -> ModelParams:
    """Params shaped as the header says, their weights still to be filled."""
    config = ModelConfig(**header["config"])
    params = ModelParams.init(config)
    conv_meta = header.get("conv_meta")
    if conv_meta is not None:
        rng = np.random.default_rng(0)
        params.conv_heads = [
            new_conv_head(config.d_model, meta["slots"], meta["kernel_size"], rng,
                          meta["relu_position"], meta["layer_index"])
            for meta in conv_meta
        ]
        if [head.layer_index for head in params.conv_heads] != list(range(config.n_layers)):
            raise ValueError(f"conv heads must be listed for layers 0..{config.n_layers - 1}")
    if (header["sections"], conv_meta) != _layout(params):
        raise ValueError("the tensor layout does not match the config and conv_meta")
    return params


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint; any truncation, padding, flipped bit, header edit or
    header that disagrees with the layout ``save_checkpoint`` writes raises
    CheckpointError."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload = fh.read()
    try:
        params = _params_from_header(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    tensors = _tensors(params)
    expected = 8 * sum(t.rows * t.cols for t in tensors)
    if len(payload) != expected:
        raise CheckpointError(
            f"payload holds {len(payload)} bytes but the header describes {expected}"
        )
    if _checksum(header, payload) != header.get("crc32"):
        raise CheckpointError("checksum mismatch: the header or the weights are corrupt")
    data = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for tensor in tensors:
        count = tensor.rows * tensor.cols
        tensor.data = Tensor2(data[offset:offset + count].reshape(tensor.shape)).data
        offset += count
    return params
