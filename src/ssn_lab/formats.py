"""On-disk formats: the SSNT distribution container, label map files, and
PGM grayscale plots.

SSNT is a JSON document holding the three named parameter tensors plus the
dimensions. Floats are serialised with Python's shortest round-trip repr,
so save -> load -> save is byte-identical. Label maps are JSON too, with an
8-bit binary PGM alternative for two-dimensional binary maps. PGM plots use
min-max intensity normalisation; the scale is recorded in a JSON sidecar
next to each image.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ShapeError, ValidationError
from .likelihood import LabelMap
from .lowrank import LowRankGaussian

SSNT_FORMAT = "SSNT"
SSNT_VERSION = 1


def _tensor_payload(array: np.ndarray) -> dict:
    return {"shape": list(array.shape), "data": array.reshape(-1).tolist()}


def _tensor_from_payload(payload, name: str) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in payload["shape"])
        data = np.asarray(payload["data"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"malformed tensor {name!r}: {err}") from err
    if data.size != math.prod(shape) or min(shape, default=0) < 0:
        raise ValidationError(
            f"tensor {name!r} declares shape {shape} but carries {data.size} values"
        )
    return data.reshape(shape)


def save_distribution(path, dist: LowRankGaussian) -> None:
    document = {
        "format": SSNT_FORMAT,
        "version": SSNT_VERSION,
        "S": dist.num_pixels,
        "C": dist.num_classes,
        "R": dist.rank,
        "mean": _tensor_payload(dist.mean),
        "factor": _tensor_payload(dist.factor),
        "diag_raw": _tensor_payload(dist.diag_raw),
    }
    Path(path).write_text(json.dumps(document, separators=(",", ":")) + "\n")


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # bad UTF-8, bad JSON, too deep
        raise ValidationError(f"not valid UTF-8 JSON: {path}") from err


def load_distribution(path) -> LowRankGaussian:
    document = _read_json(path)
    if not isinstance(document, dict) or document.get("format") != SSNT_FORMAT:
        raise ValidationError(f"not an SSNT container: {path}")
    if document.get("version") != SSNT_VERSION:
        raise ValidationError(
            f"unsupported SSNT version {document.get('version')!r} in {path}"
        )
    try:
        num_pixels = int(document["S"])
        num_classes = int(document["C"])
        rank = int(document["R"])
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"malformed SSNT dimensions in {path}") from err
    try:
        return LowRankGaussian(
            mean=_tensor_from_payload(document.get("mean"), "mean"),
            factor=_tensor_from_payload(document.get("factor"), "factor"),
            diag_raw=_tensor_from_payload(document.get("diag_raw"), "diag_raw"),
            num_pixels=num_pixels,
            num_classes=num_classes,
            rank=rank,
        )
    except (ShapeError, ValidationError) as err:
        raise ValidationError(f"{path}: {err}") from err


def save_label_map(path, label_map: LabelMap, shape=None) -> None:
    """Write a label map as JSON; ``shape`` records pixel extents (defaults
    to the flat pixel count)."""
    if shape is None:
        shape = [label_map.num_pixels]
    document = {
        "shape": [int(s) for s in shape],
        "num_classes": label_map.num_classes,
        "labels": label_map.labels.tolist(),
    }
    if label_map.mask is not None:
        document["mask"] = [bool(b) for b in label_map.mask]
    Path(path).write_text(json.dumps(document, separators=(",", ":")) + "\n")


def load_label_map(path) -> tuple[LabelMap, list[int]]:
    """Read a JSON label map; returns the map and its pixel shape."""
    document = _read_json(path)
    try:
        shape = [int(s) for s in document["shape"]]
        mask = document.get("mask")
        label_map = LabelMap(
            labels=np.asarray(document["labels"], dtype=np.int64),
            num_classes=int(document["num_classes"]),
            mask=None if mask is None else np.asarray(mask, dtype=bool),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"malformed label map file {path}: {err}") from err
    if label_map.num_pixels != math.prod(shape):
        raise ValidationError(
            f"label map {path} declares shape {shape} but has "
            f"{label_map.num_pixels} labels"
        )
    return label_map, shape


def label_map_to_pgm(path, label_map: LabelMap, shape) -> None:
    """Write a two-dimensional binary label map as 8-bit binary PGM
    (foreground 255, background 0)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise ValidationError(f"PGM label maps must be 2-d, got shape {shape}")
    if label_map.effective_classes != 2:
        raise ValidationError("PGM label maps must be binary")
    image = (label_map.labels.reshape(shape) > 0).astype(np.uint8) * 255
    _write_pgm_bytes(path, image)


def label_map_from_pgm(path) -> tuple[LabelMap, list[int]]:
    """Read a binary PGM back into a binary label map (threshold at 128)."""
    image = _read_pgm_bytes(path)
    labels = (image >= 128).astype(np.int64).reshape(-1)
    return LabelMap(labels=labels, num_classes=1), list(image.shape)


def _write_pgm_bytes(path, image: np.ndarray) -> None:
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.astype(np.uint8).tobytes())


def _read_pgm_bytes(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not (raw.startswith(b"P5") and raw[2:3].isspace()):
        raise ValidationError(f"not a binary PGM file: {path}")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":  # comment line
            newline = raw.find(b"\n", pos)
            pos = len(raw) if newline < 0 else newline + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if not all(f.isdigit() and len(f) < 10 and int(f) > 0 for f in fields):
        raise ValidationError(f"malformed PGM header in {path}")
    pos += 1  # single whitespace after maxval
    width, height, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValidationError(f"only 8-bit PGM supported, got maxval {maxval}")
    data = np.frombuffer(raw[pos : pos + width * height], dtype=np.uint8)
    if data.size != width * height:
        raise ValidationError(f"truncated PGM file: {path}")
    return data.reshape(height, width)


def write_pgm_plot(path, image: np.ndarray) -> None:
    """Min-max normalise a float image to 8-bit PGM and record the scale in
    a ``<name>.scale.json`` sidecar."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValidationError(f"plot images must be 2-d, got {image.ndim}-d")
    low = float(image.min())
    high = float(image.max())
    if high > low:
        scaled = (image - low) / (high - low)
    else:
        scaled = np.zeros_like(image)
    _write_pgm_bytes(path, np.round(scaled * 255.0).astype(np.uint8))
    sidecar = Path(str(path) + ".scale.json")
    sidecar.write_text(
        json.dumps({"min": low, "max": high, "maxval": 255}, separators=(",", ":"))
        + "\n"
    )


def expand_line(values: np.ndarray, width: int = 12) -> np.ndarray:
    """Repeat a 1-d signal horizontally into a [len, width] image column."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    return np.repeat(values[:, None], width, axis=1)
