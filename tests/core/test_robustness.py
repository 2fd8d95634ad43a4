"""Robustness: hostile inputs never crash, they raise clean errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GradientMetadata, codec_by_name
from repro.packet import GradientHeader


ALL_CODECS = ["sign", "sq", "sd", "rht", "eden"]


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_nan_rejected(self, name):
        codec = codec_by_name(name, root_seed=0)
        bad = np.ones(100)
        bad[7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            codec.encode(bad)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_inf_rejected(self, name):
        codec = codec_by_name(name, root_seed=0)
        bad = np.ones(100)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            codec.encode(bad)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_empty_rejected(self, name):
        codec = codec_by_name(name, root_seed=0)
        with pytest.raises(ValueError, match="empty"):
            codec.encode(np.zeros(0))


class TestRotatedMetadataChecked:
    """A rotating codec's decode checks the row geometry and every per-row
    scale array against the planes before it reads them: a typed
    ``ValueError`` naming the mismatch, where EDEN and the multi-level
    code used to divide by a zero row size or fail a broadcast."""

    @pytest.mark.parametrize("name", ["rht", "eden", "multilevel"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("row_size", 0, "not a multiple of row 0"),
            ("row_size", 48, "not a multiple of row 48"),
            ("row_scales", np.ones(1), "1 row scales cannot cover 4 rows of 64"),
        ],
        ids=["zero-row", "row-48", "short-scales"],
    )
    def test_bad_row_geometry_is_refused(self, name, field, value, message):
        codec = codec_by_name(name, row_size=64)
        encoded = codec.encode(np.random.default_rng(0).standard_normal(256))
        setattr(encoded.metadata, field, value)
        with pytest.raises(ValueError, match=message):
            codec.decode(encoded)

    def test_multilevel_range_per_row(self):
        codec = codec_by_name("multilevel", row_size=64)
        encoded = codec.encode(np.random.default_rng(0).standard_normal(256))
        encoded.metadata.aux_scales = np.ones(1)
        with pytest.raises(ValueError, match="1 row scales cannot cover 4 rows of 64"):
            codec.decode(encoded)


@settings(max_examples=100)
@given(data=st.binary(min_size=0, max_size=64))
def test_header_parser_never_crashes(data):
    """Random bytes either parse into a header or raise ValueError."""
    try:
        header = GradientHeader.from_bytes(data)
    except ValueError:
        return
    assert header.coord_count >= 0


@settings(max_examples=100)
@given(data=st.binary(min_size=0, max_size=200))
def test_metadata_parser_never_crashes(data):
    """Random bytes either parse into metadata or raise ValueError."""
    try:
        meta = GradientMetadata.from_bytes(data)
    except ValueError:
        return
    assert meta.original_length >= 0


@settings(max_examples=50)
@given(
    cut=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_truncated_metadata_raises_not_corrupts(cut, seed):
    """Any prefix truncation of a real metadata payload raises."""
    meta = GradientMetadata(
        message_id=1,
        epoch=2,
        original_length=1000,
        row_size=256,
        seed=seed,
        sigma=1.0,
        row_scales=np.random.default_rng(seed).random(8),
    )
    payload = meta.to_bytes()
    truncated = payload[: min(cut, len(payload) - 1)]
    with pytest.raises(ValueError):
        GradientMetadata.from_bytes(truncated)
