"""The paper's contribution: trimmable gradient encodings and packet layout."""

from .analysis import codec_error_profile, heavy_tail_index, per_parameter_scales
from .codec import (
    EncodedGradient,
    GradientCodec,
    RowGroups,
    available_codecs,
    codec_by_id,
    codec_by_name,
    nmse,
    register_codec,
)
from .eden import EdenCodec, lloyd_max_centroids
from .layout import (
    TrimmableLayout,
    coords_per_packet,
    magnitude_order,
    paper_worked_example,
)
from .metadata import GradientMetadata
from .multilevel import LEVEL_BITS, MultiLevelCodec
from .packetizer import (
    GradientMessage,
    decode_message,
    decode_packets,
    depacketize,
    depacketize_many,
    packetize,
    packetize_many,
)
from .quantizers import (
    ScalarCodec,
    SignMagnitudeCodec,
    StochasticQuantizationCodec,
    SubtractiveDitheringCodec,
)
from .rht import DEFAULT_ROW_SIZE, RHTCodec, unbiased_row_scales

__all__ = [
    "codec_error_profile",
    "heavy_tail_index",
    "per_parameter_scales",
    "EdenCodec",
    "lloyd_max_centroids",
    "EncodedGradient",
    "GradientCodec",
    "RowGroups",
    "available_codecs",
    "codec_by_id",
    "codec_by_name",
    "nmse",
    "register_codec",
    "TrimmableLayout",
    "coords_per_packet",
    "magnitude_order",
    "paper_worked_example",
    "GradientMetadata",
    "LEVEL_BITS",
    "MultiLevelCodec",
    "GradientMessage",
    "decode_message",
    "decode_packets",
    "depacketize",
    "depacketize_many",
    "packetize",
    "packetize_many",
    "ScalarCodec",
    "SignMagnitudeCodec",
    "StochasticQuantizationCodec",
    "SubtractiveDitheringCodec",
    "DEFAULT_ROW_SIZE",
    "RHTCodec",
    "unbiased_row_scales",
]
