import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssn_lab import (
    DIAG_FLOOR,
    DeviationScale,
    LowRankGaussian,
    Patch,
    PatchedParams,
    PortableRng,
    ShapeError,
    ValidationError,
    apply_deviation_scale,
    most_likely_prediction,
    softplus_inv,
    stitch,
)
from conftest import random_instance


# Class scales for the composition law: either sign, kept away from 0 so
# no product underflows and the relative rounding bound holds.
SCALE_VALUES = st.one_of(st.floats(-4.0, -0.05), st.floats(0.05, 4.0))


def comfortable_dist(seed, num_pixels=6, num_classes=2, rank=2):
    """Random distribution whose diagonal sits well above the floor, so
    scale round-trips are exact to near machine precision."""
    rng = PortableRng(seed)
    dim = num_pixels * num_classes
    return LowRankGaussian(
        mean=rng.standard_normal(dim),
        factor=rng.standard_normal((dim, rank)),
        diag_raw=np.asarray(softplus_inv(0.5 + rng.uniform_open(dim))),
        num_pixels=num_pixels,
        num_classes=num_classes,
        rank=rank,
    )


def split_into_patches(dist, boundary):
    """Split a 1-d distribution into [0, boundary) and [boundary, end)."""
    c = dist.num_classes
    first = Patch(
        offset=(0,),
        shape=(boundary,),
        mean=dist.mean[: boundary * c],
        factor=dist.factor[: boundary * c],
        diag_raw=dist.diag_raw[: boundary * c],
    )
    second = Patch(
        offset=(boundary,),
        shape=(dist.num_pixels - boundary,),
        mean=dist.mean[boundary * c :],
        factor=dist.factor[boundary * c :],
        diag_raw=dist.diag_raw[boundary * c :],
    )
    return PatchedParams(
        patches=[first, second],
        full_shape=(dist.num_pixels,),
        num_classes=c,
        rank=dist.rank,
    )


@st.composite
def grid_tilings(draw):
    """Patches of an H x W image cut into a random rectangle grid, each
    carrying its own random parameters."""
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    num_classes = draw(st.sampled_from([1, 3]))
    rank = draw(st.sampled_from([1, 2]))
    row_cuts = sorted(draw(st.sets(st.integers(1, height))) | {0, height})
    col_cuts = sorted(draw(st.sets(st.integers(1, width))) | {0, width})
    rng = PortableRng(draw(st.integers(0, 2**32)))
    patches = []
    for top, bottom in zip(row_cuts, row_cuts[1:]):
        for left, right in zip(col_cuts, col_cuts[1:]):
            elements = (bottom - top) * (right - left) * num_classes
            patches.append(
                Patch(
                    offset=(top, left),
                    shape=(bottom - top, right - left),
                    mean=rng.standard_normal(elements),
                    factor=rng.standard_normal((elements, rank)),
                    diag_raw=rng.standard_normal(elements),
                )
            )
    pick = draw(st.integers(0, len(patches) - 1))
    return patches, (height, width), num_classes, rank, pick


class TestStitch:
    @settings(max_examples=200, deadline=None)
    @given(grid_tilings())
    def test_random_grid_tilings(self, tiling):
        patches, full_shape, c, rank, pick = tiling

        def params(tiles):
            return PatchedParams(
                patches=tiles, full_shape=full_shape, num_classes=c, rank=rank
            )

        stitched = stitch(params(patches))
        mean = stitched.mean.reshape(*full_shape, c)
        factor = stitched.factor.reshape(*full_shape, c, rank)
        diag_raw = stitched.diag_raw.reshape(*full_shape, c)
        for patch in patches:
            (top, left), (rows, cols) = patch.offset, patch.shape
            window = (slice(top, top + rows), slice(left, left + cols))
            assert np.array_equal(mean[window].reshape(-1), patch.mean)
            assert np.array_equal(factor[window].reshape(-1, rank), patch.factor)
            assert np.array_equal(diag_raw[window].reshape(-1), patch.diag_raw)
        if len(patches) > 1:
            with pytest.raises(ValidationError, match="gap"):
                stitch(params(patches[:pick] + patches[pick + 1 :]))
        with pytest.raises(ValidationError, match="overlap"):
            stitch(params(patches + [patches[pick]]))

    def test_single_patch_is_identity(self):
        dist = comfortable_dist(0)
        params = PatchedParams(
            patches=[
                Patch(
                    offset=(0,),
                    shape=(dist.num_pixels,),
                    mean=dist.mean,
                    factor=dist.factor,
                    diag_raw=dist.diag_raw,
                )
            ],
            full_shape=(dist.num_pixels,),
            num_classes=dist.num_classes,
            rank=dist.rank,
        )
        rebuilt = stitch(params)
        assert np.array_equal(rebuilt.mean, dist.mean)
        assert np.array_equal(rebuilt.factor, dist.factor)
        assert np.array_equal(rebuilt.diag_raw, dist.diag_raw)

    def test_exact_partition_reconstructs_parameters(self):
        dist = comfortable_dist(1, num_pixels=21, num_classes=1)
        rebuilt = stitch(split_into_patches(dist, 10))
        assert np.array_equal(rebuilt.mean, dist.mean)
        assert np.array_equal(rebuilt.factor, dist.factor)
        assert np.array_equal(rebuilt.diag_raw, dist.diag_raw)

    def test_shared_factor_column_correlates_across_patches(self):
        """A constant factor column in both patches means one global latent
        flips both patches together."""
        patches = [
            Patch(
                offset=(0,),
                shape=(5,),
                mean=np.zeros(5),
                factor=np.ones((5, 1)),
                diag_raw=np.full(5, -40.0),
            ),
            Patch(
                offset=(5,),
                shape=(5,),
                mean=np.zeros(5),
                factor=np.ones((5, 1)),
                diag_raw=np.full(5, -40.0),
            ),
        ]
        stitched = stitch(
            PatchedParams(
                patches=patches, full_shape=(10,), num_classes=1, rank=1
            )
        )
        samples, _ = stitched.sample(4000, seed=5)
        deviations = samples - stitched.mean[None, :]
        corr = np.corrcoef(deviations[:, 2], deviations[:, 7])[0, 1]
        assert corr >= 0.99

    def test_two_dimensional_placement(self):
        c, r = 2, 1
        quadrants = []
        for offset in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            base = float(offset[0] * 10 + offset[1])
            quadrants.append(
                Patch(
                    offset=offset,
                    shape=(2, 2),
                    mean=np.arange(8) + base * 100.0,
                    factor=np.full((8, r), base),
                    diag_raw=np.zeros(8),
                )
            )
        stitched = stitch(
            PatchedParams(
                patches=quadrants, full_shape=(4, 4), num_classes=c, rank=r
            )
        )
        # pixel (0, 2) is patch (0,2)'s local pixel 0: class-0 element 0 + 200
        pixel = np.ravel_multi_index((0, 2), (4, 4))
        assert stitched.mean[pixel * c] == 200.0
        assert stitched.mean[pixel * c + 1] == 201.0
        # pixel (3, 1) is patch (2,0)'s local pixel (1, 1): element 6, 7
        pixel = np.ravel_multi_index((3, 1), (4, 4))
        assert stitched.mean[pixel * c] == 2006.0
        assert stitched.factor[pixel * c, 0] == 20.0

    def test_gap_rejected_with_offending_pixels(self):
        patch = Patch(
            offset=(0,),
            shape=(3,),
            mean=np.zeros(3),
            factor=np.zeros((3, 1)),
            diag_raw=np.zeros(3),
        )
        with pytest.raises(ValidationError, match="gap") as caught:
            stitch(
                PatchedParams(
                    patches=[patch], full_shape=(5,), num_classes=1, rank=1
                )
            )
        assert str(caught.value).endswith("2 offending pixels, first at [(3,), (4,)]")

    def test_overlap_rejected(self):
        patches = [
            Patch(
                offset=(0,),
                shape=(3,),
                mean=np.zeros(3),
                factor=np.zeros((3, 1)),
                diag_raw=np.zeros(3),
            ),
            Patch(
                offset=(2,),
                shape=(3,),
                mean=np.zeros(3),
                factor=np.zeros((3, 1)),
                diag_raw=np.zeros(3),
            ),
        ]
        with pytest.raises(ValidationError, match="overlap"):
            stitch(
                PatchedParams(
                    patches=patches, full_shape=(5,), num_classes=1, rank=1
                )
            )

    def test_patch_outside_image_rejected(self):
        patch = Patch(
            offset=(4,),
            shape=(3,),
            mean=np.zeros(3),
            factor=np.zeros((3, 1)),
            diag_raw=np.zeros(3),
        )
        with pytest.raises(ValidationError):
            stitch(
                PatchedParams(
                    patches=[patch], full_shape=(5,), num_classes=1, rank=1
                )
            )

    def test_bad_patch_payload_rejected(self):
        with pytest.raises(ShapeError):
            PatchedParams(
                patches=[
                    Patch(
                        offset=(0,),
                        shape=(3,),
                        mean=np.zeros(4),
                        factor=np.zeros((3, 1)),
                        diag_raw=np.zeros(3),
                    )
                ],
                full_shape=(3,),
                num_classes=1,
                rank=1,
            )


class TestDeviationScale:
    def test_identity_is_bit_preserving(self):
        dist = comfortable_dist(2)
        scaled = apply_deviation_scale(
            dist, DeviationScale(per_class=np.ones(dist.num_classes))
        )
        assert np.array_equal(scaled.mean, dist.mean)
        assert np.array_equal(scaled.factor, dist.factor)
        assert np.array_equal(scaled.diag_raw, dist.diag_raw)

    def test_zero_temperature_collapses_to_mean(self):
        dist = comfortable_dist(3)
        collapsed = apply_deviation_scale(
            dist,
            DeviationScale(
                per_class=np.ones(dist.num_classes), global_temperature=0.0
            ),
        )
        samples, _ = collapsed.sample(200, seed=1)
        assert np.abs(samples - dist.mean[None, :]).max() <= 6.0 * np.sqrt(
            DIAG_FLOOR
        )

    @pytest.mark.parametrize("temperature", [0.5, 1.7, 3.0])
    def test_temperature_scales_dense_covariance_quadratically(self, temperature):
        dist = comfortable_dist(4)
        scaled = apply_deviation_scale(
            dist,
            DeviationScale(
                per_class=np.ones(dist.num_classes),
                global_temperature=temperature,
            ),
        )
        # the scaled effective diagonal is T^2 * D, well above the floor here
        expected = temperature**2 * dist.dense_covariance()
        assert np.allclose(scaled.dense_covariance(), expected, atol=1e-12)

    def test_composition_law(self):
        dist = comfortable_dist(5)
        first = DeviationScale(per_class=np.array([1.3, 0.6]), global_temperature=1.2)
        second = DeviationScale(per_class=np.array([0.9, 1.4]), global_temperature=0.8)
        combined = DeviationScale(
            per_class=first.per_class * second.per_class,
            global_temperature=first.global_temperature * second.global_temperature,
        )
        chained = apply_deviation_scale(apply_deviation_scale(dist, first), second)
        direct = apply_deviation_scale(dist, combined)
        assert np.allclose(
            chained.dense_covariance(), direct.dense_covariance(), atol=1e-12
        )
        assert np.allclose(chained.factor, direct.factor, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(SCALE_VALUES, SCALE_VALUES), min_size=1, max_size=4
        ),
        st.floats(0.05, 4.0),
        st.floats(0.05, 4.0),
    )
    def test_composition_law_on_random_factors(self, seed, pairs, temp_s, temp_t):
        """Scaling by s and then by t matches scaling by s * t on the
        factor. Each side rounds four products (the two per-element scales
        and the factor product on one side; the class product, the
        temperature product, their product and the factor product on the
        other), so each is within 4u of the exact value, u = eps / 2, and
        the two differ by at most about 8u relative. The test allows 10u."""
        per_s, per_t = np.array(pairs).T
        dist = comfortable_dist(seed, num_classes=len(pairs), rank=3)
        first = DeviationScale(per_class=per_s, global_temperature=temp_s)
        second = DeviationScale(per_class=per_t, global_temperature=temp_t)
        combined = DeviationScale(
            per_class=per_s * per_t, global_temperature=temp_s * temp_t
        )
        chained = apply_deviation_scale(apply_deviation_scale(dist, first), second)
        direct = apply_deviation_scale(dist, combined)
        tolerance = 10 * (np.finfo(np.float64).eps / 2)
        assert np.allclose(chained.factor, direct.factor, rtol=tolerance, atol=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
            min_size=1,
            max_size=4,
        ),
    )
    def test_identity_and_sign_flips_are_bit_exact(self, seed, pairs):
        per_s, per_t = np.array(pairs).T
        dist = comfortable_dist(seed, num_classes=len(pairs), rank=3)

        def scaled(d, per_class):
            return apply_deviation_scale(d, DeviationScale(per_class=per_class))

        def same_bytes(a, b):
            return all(
                getattr(a, name).tobytes() == getattr(b, name).tobytes()
                for name in ("mean", "factor", "diag_raw")
            )

        assert same_bytes(scaled(dist, np.ones(len(pairs))), dist)
        assert same_bytes(scaled(scaled(dist, per_s), per_s), dist)
        assert same_bytes(
            scaled(scaled(dist, per_s), per_t), scaled(dist, per_s * per_t)
        )

    def test_negative_class_scale_flips_cross_class_covariance_only(self):
        dist = comfortable_dist(6)
        flipped = apply_deviation_scale(
            dist, DeviationScale(per_class=np.array([-1.0, 1.0]))
        )
        before = dist.dense_covariance()
        after = flipped.dense_covariance()
        classes = np.tile(np.arange(dist.num_classes), dist.num_pixels)
        same_block = classes[:, None] == classes[None, :]
        # diagonal (and all same-class entries) identical, cross-class negated
        assert np.array_equal(np.diag(after), np.diag(before))
        assert np.allclose(after[same_block], before[same_block], atol=0)
        assert np.allclose(after[~same_block], -before[~same_block], atol=0)
        # raw diagonal untouched because the squared scale is exactly 1
        assert np.array_equal(flipped.diag_raw, dist.diag_raw)

    def test_zero_class_scale_is_legal(self):
        dist = comfortable_dist(7)
        collapsed = apply_deviation_scale(
            dist, DeviationScale(per_class=np.array([0.0, 1.0]))
        )
        variances = collapsed.marginal_variance()
        class_zero = np.arange(dist.dim) % dist.num_classes == 0
        assert np.all(variances[class_zero] <= DIAG_FLOOR * (1 + 1e-9))

    def test_wrong_scale_length_rejected(self):
        dist = comfortable_dist(8)
        with pytest.raises(ShapeError):
            apply_deviation_scale(dist, DeviationScale(per_class=np.ones(3)))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError):
            DeviationScale(per_class=np.ones(1), global_temperature=-0.5)


class TestMostLikelyPrediction:
    def test_binary_threshold_with_tie_to_background(self):
        dist = LowRankGaussian(
            mean=np.array([0.4, 0.0, -0.4]),
            factor=np.zeros((3, 1)),
            diag_raw=np.zeros(3),
            num_pixels=3,
            num_classes=1,
            rank=1,
        )
        assert most_likely_prediction(dist).labels.tolist() == [1, 0, 0]

    def test_multiclass_argmax(self):
        mean = np.array([0.1, 0.9, -0.2, 2.0, 1.0, -1.0]).reshape(-1)
        dist = LowRankGaussian(
            mean=mean,
            factor=np.zeros((6, 1)),
            diag_raw=np.zeros(6),
            num_pixels=2,
            num_classes=3,
            rank=1,
        )
        assert most_likely_prediction(dist).labels.tolist() == [1, 0]

    def test_positive_scaling_of_mean_leaves_prediction_unchanged(self):
        dist = random_instance(9, max_dim=12, max_rank=2)
        scaled = LowRankGaussian(
            mean=7.3 * dist.mean,
            factor=dist.factor,
            diag_raw=dist.diag_raw,
            num_pixels=dist.num_pixels,
            num_classes=1,
            rank=dist.rank,
        )
        assert np.array_equal(
            most_likely_prediction(dist).labels,
            most_likely_prediction(scaled).labels,
        )

    def test_invariant_under_deviation_scaling(self):
        dist = comfortable_dist(10)
        scaled = apply_deviation_scale(
            dist,
            DeviationScale(per_class=np.array([2.5, -0.3]), global_temperature=1.4),
        )
        assert np.array_equal(
            most_likely_prediction(dist).labels,
            most_likely_prediction(scaled).labels,
        )
