"""Versioned binary checkpoints: JSON header + raw little-endian float64.

The conv heads live in their own section after the base weights, so adding
them after calibration, or saving again after ``ModelParams.drop_conv_heads``,
leaves every byte of the base weights as it was; loading a checkpoint and
saving it back reproduces the file bit for bit. A conv bank is written
channel-major, as (c_out, c_in * k) with column c*k + j holding tap j of
input channel c, and permuted back to the tap-major ``ConvKernels`` layout
on load, so the files of format 3 keep their bytes.
The header of format version 3 carries a CRC-32 of the canonical header
(without that field) followed by the payload, so a flipped bit in the
weights, or a header edit that stays self-consistent, is caught at load
time. Version 1 files have no checksum and version 2 files checksum only the
payload; both are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .compressor import ConvHead
from .model import ModelConfig, ModelParams
from .numerics import ConvKernels, Tensor2

MAGIC = b"CKVC"
FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def _layout(params: ModelParams) -> tuple[dict, list | None]:
    """The header's ``sections`` and ``conv_meta`` for ``params``.

    The one place that knows the layout: save writes it, and load accepts a
    header only if it equals the layout of the params built from it. Tensors
    sit in the payload back to back, base weights first. Conv heads that load
    would not rebuild raise CheckpointError, at save before the file is opened.
    """
    n, c_in, heads = params.config.n_layers, 2 * params.config.d_model, params.conv_heads
    if heads is not None and ([h.layer_index for h in heads] != list(range(n))
                              or any(h.kernels.c_in != c_in for h in heads)):
        raise CheckpointError(f"conv heads must be listed for layers 0..{n - 1} and read "
                              f"2 * d_model = {c_in} channels, keys over values")
    named = {"base": params.named_base()}
    if heads is not None:
        named["conv_heads"] = params.named_conv()
    sections, offset = {}, 0
    for section, tensors in named.items():
        sections[section] = []
        for name, tensor in tensors:
            sections[section].append(
                {"name": name, "rows": tensor.rows, "cols": tensor.cols, "offset": offset}
            )
            offset += tensor.rows * tensor.cols
    conv_meta = None if heads is None else [
        {k: getattr(head, k) for k in ("layer_index", "kernel_size", "relu_position", "slots")}
        for head in heads
    ]
    return sections, conv_meta


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(header: dict, payload: bytes) -> int:
    """CRC-32 of the canonical header, its own ``crc32`` field left out, then the payload."""
    body = {key: value for key, value in header.items() if key != "crc32"}
    return zlib.crc32(payload, zlib.crc32(_canonical(body)))


def _tensors(params: ModelParams) -> list[tuple[Tensor2, int]]:
    """Every tensor in payload order, with its taps per column group: a conv
    bank's kernel size, 1 for a base weight (see ``_channel_major``)."""
    return ([(tensor, 1) for _, tensor in params.named_base()]
            + [(head.kernels.weights, head.kernels.k) for head in params.conv_heads or []])


def _channel_major(data: np.ndarray, k: int) -> np.ndarray:
    """(rows, k * c) tap-major data as the (rows, c, k) view written to disk.

    A conv bank, tap-major in memory (column j*c_in + c is tap j of channel
    c), is stored channel-major, column c*k + j, as format 3 always has; for
    k = 1 the order is the data's own."""
    return data.reshape(len(data), k, -1).swapaxes(1, 2)


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write config + weights; byte output is a pure function of the params, and
    params that ``load_checkpoint`` would reject raise CheckpointError unwritten."""
    sections, conv_meta = _layout(params)
    payload = b"".join(_channel_major(t.data, k).astype("<f8", copy=False).tobytes()
                       for t, k in _tensors(params))
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
    if n > os.fstat(fh.fileno()).st_size - fh.tell():  # fh.read(n) would allocate n first
        raise CheckpointError(f"checkpoint truncated in its {what}")
    return fh.read(n)


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
    """Params shaped as the header says, their weights still to be filled; the
    config is built from its inputs, and the rest must read as they follow."""
    fields = header["config"]
    config = ModelConfig(**{f.name: fields[f.name]
                            for f in dataclasses.fields(ModelConfig) if f.init})
    if dataclasses.asdict(config) != fields:
        raise ValueError(f"the config {fields} is not the one it builds")
    params = ModelParams.zeros(config)
    conv_meta = header.get("conv_meta")
    if conv_meta is not None:
        c_in = 2 * config.d_model  # keys over values
        params.conv_heads = [
            ConvHead(ConvKernels(Tensor2.zeros(m["slots"], c_in * m["kernel_size"]), c_in,
                                 m["kernel_size"]), m["layer_index"], m["relu_position"])
            for m in conv_meta
        ]
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
    expected = 8 * sum(t.rows * t.cols for t, _ in tensors)
    if len(payload) != expected:
        raise CheckpointError(
            f"payload holds {len(payload)} bytes but the header describes {expected}"
        )
    if _checksum(header, payload) != header.get("crc32"):
        raise CheckpointError("checksum mismatch: the header or the weights are corrupt")
    data = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for tensor, k in tensors:
        count = tensor.rows * tensor.cols
        on_disk = data[offset:offset + count].reshape(tensor.rows, -1, k)
        tensor.data = Tensor2(on_disk.swapaxes(1, 2).reshape(tensor.shape)).data
        offset += count
    return params
