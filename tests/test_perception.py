"""Embedding matching, quantization regime, pixel normalization, param table."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbot.perception import (
    EmbeddingError,
    Identity,
    ImageError,
    LayerSpec,
    LayerSpecError,
    PredicateMode,
    QuantError,
    QuantParams,
    Unknown,
    dequantize,
    identifier_predicate,
    identify,
    kws_reference_table,
    l2_squared,
    layer_param_count,
    load_gallery,
    model_param_table,
    normalize_image,
    quantize,
    representable_range,
    save_gallery,
)


def basis(i):
    e = np.zeros(128)
    e[i] = 1.0
    return e


def loop_l2(a, b):
    """Independent per-component summation oracle."""
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return total


# -- l2 / predicate / identify -------------------------------------------------


def test_l2_identity_is_zero():
    e = np.linspace(-1, 1, 128)
    assert l2_squared(e, e) == 0.0


def test_l2_basis_pair_is_two():
    assert l2_squared(basis(0), basis(1)) == 2.0


def test_l2_dimension_mismatch_rejected():
    with pytest.raises(EmbeddingError):
        l2_squared(np.zeros(127), np.zeros(128))


@given(seed=st.integers(0, 2**31))
@settings(max_examples=50)
def test_l2_matches_summation_oracle_and_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(128), rng.standard_normal(128)
    s = l2_squared(a, b)
    assert s >= 0.0
    assert abs(s - loop_l2(a, b)) <= 1e-12
    assert s == l2_squared(b, a)


def test_predicate_distance_match_small_means_match():
    assert identifier_predicate(0.0, 1.0, PredicateMode.DISTANCE_MATCH) == 1
    assert identifier_predicate(2.0, 1.0, PredicateMode.DISTANCE_MATCH) == 0


def test_predicate_literal_mode_is_high_pass():
    assert identifier_predicate(0.0, 1.0, PredicateMode.HIGH_PASS) == 0
    assert identifier_predicate(2.0, 1.0, PredicateMode.HIGH_PASS) == 1


def test_predicate_boundary_inclusive_in_both_modes():
    assert identifier_predicate(1.0, 1.0, PredicateMode.DISTANCE_MATCH) == 1
    assert identifier_predicate(1.0, 1.0, PredicateMode.HIGH_PASS) == 1


def test_predicate_negative_threshold_rejected():
    with pytest.raises(EmbeddingError):
        identifier_predicate(0.0, -1.0)


def test_identify_exact_member():
    gallery = {"alice": basis(0)}
    assert identify(basis(0), gallery, 0.5) == Identity(name="alice", score=0.0)


def test_identify_prefers_nearest_within_threshold():
    gallery = {"alice": basis(0), "bob": basis(1)}
    result = identify(basis(0), gallery, 1.0)
    assert result == Identity(name="alice", score=0.0)


def test_identify_unknown_when_all_too_far():
    gallery = {"alice": basis(0), "bob": basis(1)}
    result = identify(basis(5), gallery, 1.0)
    assert result == Unknown(min_score=2.0)


def test_identify_tie_breaks_lexicographically():
    q = (basis(0) + basis(1)) / 2  # equidistant to both
    result = identify(q, {"zed": basis(1), "amy": basis(0)}, 1.0)
    assert isinstance(result, Identity) and result.name == "amy"


def test_identify_empty_gallery_rejected():
    with pytest.raises(EmbeddingError):
        identify(basis(0), {}, 1.0)


def test_identify_unaffected_by_farther_additions():
    rng = np.random.default_rng(11)
    gallery = {"near": rng.standard_normal(128)}
    query = gallery["near"] + 0.01
    first = identify(query, gallery, 10.0)
    gallery["far"] = gallery["near"] + 5.0
    second = identify(query, gallery, 10.0)
    assert first == second


def test_gallery_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    gallery = {"a": rng.standard_normal(128), "b": rng.standard_normal(128)}
    path = tmp_path / "gallery.json"
    save_gallery(path, gallery)
    back = load_gallery(path)
    assert set(back) == {"a", "b"}
    np.testing.assert_allclose(back["a"], gallery["a"])


def test_gallery_rejects_bad_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"name": "x"}]')
    with pytest.raises(EmbeddingError):
        load_gallery(path)


# -- image normalization --------------------------------------------------------


def test_constant_image_maps_to_128():
    out = normalize_image(np.full((4, 4), 7, dtype=np.uint8))
    assert out.dtype == np.uint8
    assert np.all(out == 128)


def test_two_pixel_extremes():
    out = normalize_image(np.array([0, 255], dtype=np.uint8))
    assert out.tolist() == [0, 255]


def test_preclamp_moments_are_exactly_128():
    # the affine map itself standardizes exactly; only rounding/clamping
    # can move the output moments afterwards
    rng = np.random.default_rng(8)
    for _ in range(10):
        img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8).astype(float)
        y = (img - img.mean()) / img.std() * 128.0 + 128.0
        assert y.mean() == pytest.approx(128.0, abs=1e-9)
        assert y.std() == pytest.approx(128.0, abs=1e-9)


def test_output_moments_near_128_when_nothing_clips():
    # balanced two-level images standardize to z = +/-1, the widest spread
    # that stays inside [0, 255] after the affine map
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = sorted(rng.choice(256, size=2, replace=False))
        img = np.array([a, b] * 128, dtype=np.uint8)
        out = normalize_image(img).astype(float)
        assert abs(out.mean() - 128.0) <= 1.0
        assert abs(out.std() - 128.0) <= 2.0


def test_empty_image_rejected():
    with pytest.raises(ImageError):
        normalize_image(np.zeros((0,), dtype=np.uint8))


def test_out_of_range_pixels_rejected():
    with pytest.raises(ImageError, match=r"within \[0, 255\]"):
        normalize_image(np.array([0.0, 256.0]))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"name": "ada", "embedding": [0.0] * 128}, "gallery document must be a JSON list"),
        ([{"name": "ada", "embedding": [0.0] * 128}] * 2, "duplicate gallery name 'ada'"),
    ],
    ids=["not-a-list", "duplicate-name"],
)
def test_bad_gallery_document_rejected(tmp_path, doc, message):
    path = tmp_path / "gallery.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(EmbeddingError) as exc:
        load_gallery(path)
    assert str(exc.value) == message


# -- quantization ----------------------------------------------------------------


def test_dequantize_zero_is_zero():
    assert dequantize(0, QuantParams(scale=0.123)) == 0.0


def test_dequantize_follows_the_equation():
    assert dequantize(-128, QuantParams(scale=0.5)) == -64.0
    assert dequantize(127, QuantParams(scale=0.5)) == 63.5


def test_quantize_rounds_half_away_from_zero():
    params = QuantParams(scale=0.5)
    assert quantize(0.26, params) == 1
    assert dequantize(quantize(0.26, params), params) == 0.5
    assert quantize(0.25, params) == 1  # 0.5 rounds up, away from zero
    assert quantize(-0.25, params) == -1


def test_quantize_clamps_to_int8():
    params = QuantParams(scale=0.1)
    assert quantize(1e9, params) == 127
    assert quantize(-1e9, params) == -128


def test_scale_must_be_positive():
    with pytest.raises(QuantError):
        QuantParams(scale=0.0)
    with pytest.raises(QuantError):
        QuantParams(scale=-1.0)


def test_symmetric_mode_pins_zero_point():
    with pytest.raises(QuantError):
        QuantParams(scale=1.0, zero_point=3)
    asym = QuantParams(scale=1.0, zero_point=3, symmetric=False)
    assert dequantize(3, asym) == 0.0


def test_dequantize_rejects_out_of_range_codes():
    with pytest.raises(QuantError):
        dequantize(200, QuantParams(scale=1.0))


@given(
    scale=st.floats(1e-3, 10.0, allow_nan=False),
    frac=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=200)
def test_round_trip_error_bounded_by_half_scale(scale, frac):
    params = QuantParams(scale=scale)
    lo, hi = representable_range(params)
    x = lo + frac * (hi - lo)
    err = abs(x - dequantize(quantize(x, params), params))
    assert err <= scale / 2 * (1 + 1e-9)


# -- parameter table ---------------------------------------------------------------


def test_conv_row_count():
    assert layer_param_count(LayerSpec(kind="conv", m=24, r=10, n=64, in_channels=1)) == 15360


def test_dense_row_counts_without_bias():
    assert layer_param_count(LayerSpec(kind="lin", n=32, in_features=2048)) == 65536
    assert layer_param_count(LayerSpec(kind="dnn", n=128, in_features=32)) == 4096
    assert layer_param_count(LayerSpec(kind="softmax", n=4, in_features=128)) == 512


def test_second_conv_row_not_derivable_for_any_channel_count():
    for channels in range(1, 257):
        assert 12 * 5 * 64 * channels != 164800


def test_reference_table_total():
    table = kws_reference_table()
    assert [r.count for r in table.rows] == [15360, 164800, 65536, 4096, 512]
    assert [r.derivable for r in table.rows] == [True, False, True, True, True]
    assert table.total == 250304
    assert "250304" in table.format()


def test_layer_spec_validation():
    with pytest.raises(LayerSpecError):
        LayerSpec(kind="conv", n=64)  # missing kernel fields
    with pytest.raises(LayerSpecError):
        LayerSpec(kind="lin", n=32)  # missing in_features
    with pytest.raises(LayerSpecError):
        LayerSpec(kind="pool", n=1)


def test_model_param_table_sums_rows():
    table = model_param_table(
        [
            LayerSpec(kind="conv", m=2, r=3, n=4, in_channels=5),
            LayerSpec(kind="lin", n=10, in_features=7),
        ]
    )
    assert table.total == 2 * 3 * 4 * 5 + 70
