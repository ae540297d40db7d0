"""Whole-image distributions from per-patch parameters, and post-inference
sample manipulation.

Stitching places each patch's mean, factor and raw diagonal into full-image
arrays by pixel offset. Factor columns are global: column r of every patch
feeds global column r, so a single latent noise vector drives the entire
image and sampling the stitched distribution produces no seams at patch
borders. Deviation scaling acts in sample space, mean + scale * deviation:
the factor rows of a class are multiplied by the (signed) scale and the
covariance diagonal by its square, so a scale of -1 mirrors that class's
deviations about the mean and a temperature of 0 collapses every sample
onto the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeError, ValidationError, check_count
from .likelihood import LabelMap, labels_from_logits
from .lowrank import LowRankGaussian, Params, effective_diag_inv


@dataclass(frozen=True)
class Patch:
    """One tile of per-patch distribution parameters.

    ``offset`` and ``shape`` are pixel coordinates/extents in the full
    image grid; parameter arrays are flattened pixel-major, class-minor
    within the patch (row-major pixel order).
    """

    offset: tuple[int, ...]
    shape: tuple[int, ...]
    mean: np.ndarray  # [patch_pixels * num_classes]
    factor: np.ndarray  # [patch_pixels * num_classes, rank]
    diag_raw: np.ndarray  # [patch_pixels * num_classes]

    @property
    def num_pixels(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class PatchedParams:
    """Per-patch parameters that tile a full image exactly."""

    patches: list[Patch]
    full_shape: tuple[int, ...]
    num_classes: int
    rank: int

    def __post_init__(self):
        if not self.patches:
            raise ValidationError("need at least one patch")
        for name in ("num_classes", "rank"):
            object.__setattr__(self, name, check_count(getattr(self, name), 1, name))
        for patch in self.patches:
            if len(patch.offset) != len(self.full_shape) or len(patch.shape) != len(
                self.full_shape
            ):
                raise ShapeError(
                    f"patch offset {patch.offset} / shape {patch.shape} do not "
                    f"match a {len(self.full_shape)}-d image"
                )
            for start, extent in zip(patch.offset, patch.shape):
                check_count(start, 0, "patch offset")
                check_count(extent, 1, "patch extent")
            shapes = Params.shapes(patch.num_pixels * self.num_classes, self.rank)
            for name, shape in shapes._asdict().items():
                got = np.shape(getattr(patch, name))
                if got != shape:
                    raise ShapeError(
                        f"patch at {patch.offset} carries {name} {got}, "
                        f"expected {shape}"
                    )
            for axis, (start, extent, full) in enumerate(
                zip(patch.offset, patch.shape, self.full_shape)
            ):
                if start + extent > check_count(full, 1, "image extent"):
                    raise ValidationError(
                        f"patch at {patch.offset} with shape {patch.shape} leaves "
                        f"the image of shape {self.full_shape} on axis {axis}"
                    )


def stitch(params: PatchedParams) -> LowRankGaussian:
    """Assemble one distribution over the whole image from its patches.

    Patches must tile the image exactly; overlaps or gaps raise a
    validation error listing the offending pixels. Each patch's factor
    columns map to the same global columns, so one latent vector of length
    ``rank`` is shared by the full image.
    """
    shape, num_classes, rank = params.full_shape, params.num_classes, params.rank
    coverage = np.zeros(shape, dtype=np.int64)
    # One full-image array per tensor, shaped [*full_shape, per-pixel shape].
    per_pixel = Params.shapes(num_classes, rank)
    full = Params(*(np.empty((*shape, *extents)) for extents in per_pixel))
    for patch in params.patches:
        window = tuple(slice(o, o + e) for o, e in zip(patch.offset, patch.shape))
        coverage[window] += 1
        for array, extents, name in zip(full, per_pixel, Params._fields):
            array[window] = np.reshape(getattr(patch, name), (*patch.shape, *extents))
    bad = np.argwhere(coverage != 1)
    if len(bad):
        coords = [tuple(int(i) for i in pixel) for pixel in bad[:8]]
        kind = "overlap" if coverage.max() > 1 else "gap"
        raise ValidationError(
            f"patches do not tile the image ({kind}): {len(bad)} offending "
            f"pixels, first at {coords}"
        )
    # C order of [*full_shape, classes] is the pixel-major, class-minor layout.
    flat = Params.shapes(coverage.size * num_classes, rank)
    return LowRankGaussian(
        *(np.reshape(array, extents) for array, extents in zip(full, flat)),
        num_pixels=coverage.size,
        num_classes=num_classes,
        rank=rank,
    )


@dataclass(frozen=True)
class DeviationScale:
    """Per-class deviation multipliers plus a global temperature.

    All-ones class scales with temperature 1 are the identity. Scales may be
    negative (mirroring a class's deviations about the mean); the
    temperature must be non-negative, with 0 collapsing samples onto the
    mean up to the diagonal floor.
    """

    per_class: np.ndarray
    global_temperature: float = 1.0

    def __post_init__(self):
        per_class = np.array(self.per_class, dtype=np.float64, copy=True).reshape(-1)
        if not np.all(np.isfinite(per_class)):
            raise ValidationError("per-class scales must be finite")
        if not np.isfinite(self.global_temperature) or self.global_temperature < 0.0:
            raise ValidationError(
                f"temperature must be finite and >= 0, got {self.global_temperature}"
            )
        per_class.setflags(write=False)
        object.__setattr__(self, "per_class", per_class)


def apply_deviation_scale(
    dist: LowRankGaussian, scale: DeviationScale
) -> LowRankGaussian:
    """Scale sample deviations per class: samples become mean + s * deviation.

    Factor rows of class c are multiplied by ``temperature * per_class[c]``
    and the effective diagonal by its square (re-expressed through the raw
    diagonal, floored at DIAG_FLOOR). Elements whose squared scale is
    exactly 1 keep their raw parameters bit-for-bit, so identity and pure
    sign-flip scalings are lossless.
    """
    if scale.per_class.size != dist.num_classes:
        raise ShapeError(
            f"got {scale.per_class.size} class scales for {dist.num_classes} classes"
        )
    # An entry that overflows fails the model's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        per_element = np.tile(
            scale.per_class * scale.global_temperature, dist.num_pixels
        )
        factor = dist.factor * per_element[:, None]
        squared = per_element**2
        diag_raw = np.where(
            squared == 1.0,
            dist.diag_raw,
            effective_diag_inv(squared * dist.effective_diag),
        )
    return replace(dist, factor=factor, diag_raw=diag_raw)


def most_likely_prediction(dist: LowRankGaussian) -> LabelMap:
    """Label map of the distribution mean: per-pixel argmax over classes,
    or threshold at logit 0 for single-logit maps (ties go to background)."""
    labels = labels_from_logits(dist.mean[None, :], dist.num_classes)
    return LabelMap(labels=labels[0], num_classes=dist.num_classes)
