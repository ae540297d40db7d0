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
import re
from pathlib import Path

import numpy as np

from .errors import ShapeError, ValidationError
from .likelihood import LabelMap
from .lowrank import LowRankGaussian, Params

SSNT_FORMAT = "SSNT"
SSNT_VERSION = 1


def _integers(values, what: str) -> list[int]:
    """A list of integral numbers, not fractions or booleans, as ints."""
    if not isinstance(values, list) or not all(
        isinstance(v, (int, np.integer)) and type(v) is not bool
        or type(v) is float and v.is_integer()
        for v in values
    ):
        raise ValidationError(f"{what} must be a list of integers")
    return [int(v) for v in values]


def _extents(values, count: int, what: str) -> list[int]:
    """``values`` as integral, non-negative extents whose product is ``count``."""
    shape = _integers(values, f"{what} shape")
    if min(shape, default=0) < 0 or math.prod(shape) != count:
        raise ValidationError(f"{what} declares shape {shape} but has {count} values")
    return shape


def _tensor_payload(array: np.ndarray) -> dict:
    return {"shape": list(array.shape), "data": array.reshape(-1).tolist()}


def _tensor_from_payload(payload, name: str) -> np.ndarray:
    try:
        shape = payload["shape"]
        data = np.asarray(payload["data"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"malformed tensor {name!r}: {err}") from err
    return data.reshape(_extents(shape, data.size, f"tensor {name!r}"))


def save_distribution(path, dist: LowRankGaussian) -> None:
    document = {
        "format": SSNT_FORMAT,
        "version": SSNT_VERSION,
        "S": dist.num_pixels,
        "C": dist.num_classes,
        "R": dist.rank,
        **{name: _tensor_payload(getattr(dist, name)) for name in Params._fields},
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
        tensors = [
            _tensor_from_payload(document.get(name), name) for name in Params._fields
        ]
        dims = _integers([document.get(key) for key in "SCR"], "SSNT dimensions")
        return LowRankGaussian(*tensors, *dims)
    except (ShapeError, ValidationError) as err:
        raise ValidationError(f"{path}: {err}") from err


def save_label_map(path, label_map: LabelMap, shape=None) -> None:
    """Write a label map as JSON; ``shape`` records pixel extents (defaults
    to the flat pixel count), checked as the loader checks them."""
    if shape is None:
        shape = [label_map.num_pixels]
    document = {
        "shape": _extents(list(shape), label_map.num_pixels, f"label map {path}"),
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
        shape = document["shape"]
        (num_classes,) = _integers([document["num_classes"]], "num_classes")
        if (mask := document.get("mask")) is not None and not (
            isinstance(mask, list) and all(type(b) is bool for b in mask)
        ):
            raise ValidationError("mask must be a list of true/false")
        label_map = LabelMap(_integers(document["labels"], "labels"), num_classes, mask)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"malformed label map file {path}: {err}") from err
    return label_map, _extents(shape, label_map.num_pixels, f"label map {path}")


def label_map_from_pgm(path) -> tuple[LabelMap, list[int]]:
    """Read a binary PGM back into a binary label map (threshold at 128)."""
    image = _read_pgm_bytes(path)
    labels = (image >= 128).astype(np.int64).reshape(-1)
    return LabelMap(labels=labels, num_classes=1), list(image.shape)


# Three decimal fields of at most nine digits, each after whitespace or
# whole comment lines and before whitespace or the end of the file.
_PGM_HEADER = re.compile(rb"P5\s" + rb"(?:\s|#[^\n]*\n)*(\d{1,9})(?!\S)" * 3)


def _read_pgm_bytes(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not (raw.startswith(b"P5") and raw[2:3].isspace()):
        raise ValidationError(f"not a binary PGM file: {path}")
    header = _PGM_HEADER.match(raw)
    if header is None or not all(int(f) > 0 for f in header.groups()):
        raise ValidationError(f"malformed PGM header in {path}")
    pos = header.end() + 1  # single whitespace after maxval
    width, height, maxval = (int(f) for f in header.groups())
    if maxval != 255:
        raise ValidationError(f"only 8-bit PGM supported, got maxval {maxval}")
    data = np.frombuffer(raw[pos : pos + width * height], dtype=np.uint8)
    if data.size != width * height:
        raise ValidationError(f"truncated PGM file: {path}")
    return data.reshape(height, width)


def plot_image(image) -> np.ndarray:
    """``image`` as the non-empty 2-d float64 array, finite in values and
    range, to plot."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or not image.size:
        raise ValidationError(f"plot images must be non-empty 2-d, got {image.shape}")
    if not np.isfinite(image).all():
        raise ValidationError("plot images must be finite, got an overflowed value")
    if not math.isfinite(float(image.max()) - float(image.min())):
        raise ValidationError("plot images must have a finite range, got an overflow")
    return image


def write_pgm_plot(path, image: np.ndarray) -> None:
    """Min-max normalise a finite float image to 8-bit PGM and record the
    scale in a ``<name>.scale.json`` sidecar."""
    image = plot_image(image)
    low = float(image.min())
    high = float(image.max())
    if high > low:
        scaled = (image - low) / (high - low)
    else:
        scaled = np.zeros_like(image)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    Path(path).write_bytes(header + pixels.tobytes())
    sidecar = Path(str(path) + ".scale.json")
    sidecar.write_text(
        json.dumps({"min": low, "max": high, "maxval": 255}, separators=(",", ":"))
        + "\n"
    )

