"""Wire substrate: bit packing, headers, packets, trim policies."""

from .bitpack import (
    PackedSegments,
    pack_segments,
    packed_size,
    unpack_batch,
    unpack_bits,
    unpack_signs,
)
from .header import (
    ETHERNET_HEADER_BYTES,
    FLAG_INT,
    FLAG_METADATA,
    FLAG_TRIMMED,
    GRADIENT_HEADER_BYTES,
    IPV4_HEADER_BYTES,
    UDP_HEADER_BYTES,
    WIRE_HEADER_BYTES,
    GradientHeader,
)
from .packet import DEFAULT_MTU_BYTES, Packet
from .trim import MultiLevelTrim, NeverTrim, SingleLevelTrim, TrimPolicy

__all__ = [
    "PackedSegments",
    "pack_segments",
    "packed_size",
    "unpack_batch",
    "unpack_bits",
    "unpack_signs",
    "ETHERNET_HEADER_BYTES",
    "FLAG_INT",
    "FLAG_METADATA",
    "FLAG_TRIMMED",
    "GRADIENT_HEADER_BYTES",
    "IPV4_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "WIRE_HEADER_BYTES",
    "GradientHeader",
    "DEFAULT_MTU_BYTES",
    "Packet",
    "MultiLevelTrim",
    "NeverTrim",
    "SingleLevelTrim",
    "TrimPolicy",
]
