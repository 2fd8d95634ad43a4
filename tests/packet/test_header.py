"""Tests for the self-describing gradient header."""

import copy
import dataclasses
import pickle
import random

import numpy as np
import pytest

from repro.packet import (
    FLAG_METADATA,
    FLAG_TRIMMED,
    GRADIENT_HEADER_BYTES,
    WIRE_HEADER_BYTES,
    GradientHeader,
)
from repro.packet.header import pack_runs


def make_header(**overrides):
    fields = dict(
        codec_id=4,
        head_bits=1,
        tail_bits=31,
        message_id=1234,
        epoch=7,
        chunk_index=3,
        coord_offset=1095,
        coord_count=365,
        seed=0xDEADBEEFCAFE,
    )
    fields.update(overrides)
    return GradientHeader(**fields)


class TestWireConstants:
    def test_standard_header_is_42_bytes(self):
        """The paper's Section 2 arithmetic: Ethernet + IP + UDP = 42 B."""
        assert WIRE_HEADER_BYTES == 42

    def test_gradient_header_is_32_bytes(self):
        assert GRADIENT_HEADER_BYTES == 32


class TestSerialization:
    def test_round_trip(self):
        header = make_header()
        assert GradientHeader.from_bytes(header.to_bytes()) == header

    def test_round_trip_with_flags(self):
        header = make_header(flags=FLAG_TRIMMED | FLAG_METADATA)
        parsed = GradientHeader.from_bytes(header.to_bytes())
        assert parsed.trimmed
        assert parsed.is_metadata

    def test_serialized_length(self):
        assert len(make_header().to_bytes()) == GRADIENT_HEADER_BYTES

    def test_bad_magic_rejected(self):
        data = bytearray(make_header().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(ValueError, match="bad magic"):
            GradientHeader.from_bytes(bytes(data))

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            GradientHeader.from_bytes(b"\x00" * 10)

    def test_extra_bytes_ignored(self):
        header = make_header()
        assert GradientHeader.from_bytes(header.to_bytes() + b"payload") == header

    def test_large_seed_round_trips(self):
        header = make_header(seed=2**63 - 1)
        assert GradientHeader.from_bytes(header.to_bytes()).seed == 2**63 - 1


class TestFlags:
    def test_defaults(self):
        header = make_header()
        assert not header.trimmed
        assert not header.is_metadata


class TestStillAFrozenDataclass:
    """The header is a slotted frozen dataclass; everything a caller could
    see of the ``@dataclass(frozen=True)`` it always was must hold."""

    GOLDEN_REPR = (
        "GradientHeader(codec_id=4, head_bits=1, tail_bits=31, message_id=1234, "
        "epoch=7, chunk_index=3, coord_offset=1095, coord_count=365, "
        "seed=244837814094590, version=1, flags=0)"
    )
    FIELD_ORDER = [
        "codec_id", "head_bits", "tail_bits", "message_id", "epoch", "chunk_index",
        "coord_offset", "coord_count", "seed", "version", "flags",
    ]  # fmt: skip

    def test_assignment_and_deletion_raise(self):
        header = make_header()
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'flags'"):
            header.flags = FLAG_TRIMMED
        with pytest.raises(dataclasses.FrozenInstanceError):
            del header.seed
        # No new attribute either; which error depends on the interpreter
        # (3.10/3.11 trip over gh-90562 in the generated __setattr__).
        with pytest.raises((AttributeError, TypeError)):
            header.extra = 1
        assert header == make_header()

    def test_repr_hash_eq_are_the_generated_ones(self):
        header = make_header()
        assert repr(header) == self.GOLDEN_REPR
        # What dataclass generates for eq=True, frozen=True: the field tuple's hash.
        assert hash(header) == hash((4, 1, 31, 1234, 7, 3, 1095, 365, 0xDEADBEEFCAFE, 1, 0))
        assert header == make_header() and hash(header) == hash(make_header())
        assert header != make_header(flags=FLAG_TRIMMED)
        assert header != make_header(chunk_index=4)
        assert header.__eq__(object()) is NotImplemented
        assert len({header, make_header(), make_header(epoch=8)}) == 2

    def test_fields_names_order_defaults(self):
        specs = dataclasses.fields(GradientHeader)
        assert [spec.name for spec in specs] == self.FIELD_ORDER
        assert {spec.name: spec.default for spec in specs[-2:]} == {"version": 1, "flags": 0}
        assert all(spec.default is dataclasses.MISSING for spec in specs[:-2])
        assert dataclasses.asdict(make_header())["coord_offset"] == 1095
        assert dataclasses.astuple(make_header())[:3] == (4, 1, 31)

    def test_positional_and_keyword_construction_agree(self):
        positional = GradientHeader(4, 1, 31, 1234, 7, 3, 1095, 365, 0xDEADBEEFCAFE, 1, 0)
        mixed = GradientHeader(4, 1, 31, 1234, 7, chunk_index=3, coord_offset=1095,
                               coord_count=365, seed=0xDEADBEEFCAFE)  # fmt: skip
        assert positional == mixed == make_header()
        assert GradientHeader(4, 1, 31, 1234, 7, 3, 1095, 365, 9, 2).version == 2
        with pytest.raises(TypeError):
            GradientHeader(4, 1, 31)
        with pytest.raises(TypeError):
            make_header(bogus=1)

    def test_replace_copy_deepcopy_pickle_round_trip(self):
        header = make_header(flags=FLAG_METADATA)
        changed = dataclasses.replace(header, flags=FLAG_TRIMMED, chunk_index=9)
        assert (changed.flags, changed.chunk_index) == (FLAG_TRIMMED, 9)
        assert dataclasses.replace(changed, flags=FLAG_METADATA, chunk_index=3) == header
        for clone in (copy.copy(header), copy.deepcopy(header), pickle.loads(pickle.dumps(header))):
            assert clone == header and hash(clone) == hash(header)
            assert type(clone) is GradientHeader
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(header, protocol)) == header

    def test_no_instance_dict(self):
        header = make_header()
        assert not hasattr(header, "__dict__")
        assert set(GradientHeader.__slots__) == set(self.FIELD_ORDER)

    def test_bytes_round_trip_over_a_seeded_sweep(self):
        rng = random.Random(20)
        widths = (8, 8, 16, 32, 16, 16, 32, 32, 64, 8, 8)
        for _ in range(300):
            # Each field at an edge of its wire width or anywhere inside it.
            values = [rng.choice((0, 1, (1 << bits) - 1, rng.getrandbits(bits))) for bits in widths]
            header = GradientHeader(*values)
            wire = header.to_bytes()
            assert len(wire) == GRADIENT_HEADER_BYTES
            parsed = GradientHeader.from_bytes(wire)
            assert parsed == header and parsed.to_bytes() == wire
            buffer = bytearray(40)
            header.pack_into(buffer, 5)
            assert bytes(buffer[5:37]) == wire and not any(buffer[:5]) and not any(buffer[37:])
            header.check_fits()


class TestCheckFits:
    @pytest.mark.parametrize(
        "field, limit",
        [
            ("codec_id", 0xFF),
            ("head_bits", 0xFF),
            ("tail_bits", 0xFFFF),
            ("message_id", 0xFFFFFFFF),
            ("epoch", 0xFFFF),
            ("chunk_index", 0xFFFF),
            ("coord_offset", 0xFFFFFFFF),
            ("coord_count", 0xFFFFFFFF),
            ("seed", 0xFFFFFFFFFFFFFFFF),
            ("version", 0xFF),
            ("flags", 0xFF),
        ],
    )
    def test_names_field_value_and_limit(self, field, limit):
        make_header(**{field: limit}).check_fits()
        assert GradientHeader.from_bytes(make_header(**{field: limit}).to_bytes()) == make_header(
            **{field: limit}
        )
        for bad in (limit + 1, -1):
            with pytest.raises(ValueError, match=rf"{field}={bad} .*limit {limit}\b"):
                make_header(**{field: bad}).check_fits()


class TestPackRun:
    @pytest.mark.parametrize("rows, stride", [(0, 40), (1, 32), (7, 32), (300, 1490)])
    def test_equals_one_pack_into_per_row(self, rows, stride):
        first = make_header(chunk_index=1, coord_offset=0, coord_count=356, flags=FLAG_METADATA)
        block = np.full((rows, stride), 0xAA, dtype=np.uint8)
        pack_runs([first], block[:, :GRADIENT_HEADER_BYTES], coord_step=356)
        for i in range(rows):
            expected = dataclasses.replace(first, chunk_index=1 + i, coord_offset=356 * i)
            assert block[i, :GRADIENT_HEADER_BYTES].tobytes() == expected.to_bytes()
        assert (block[:, GRADIENT_HEADER_BYTES:] == 0xAA).all()

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_several_runs_one_after_another(self, rows):
        headers = [make_header(chunk_index=1, coord_offset=0, message_id=m) for m in (5, 6, 7)]
        block = np.full((3 * rows, 1490), 0xAA, dtype=np.uint8)
        pack_runs(headers, block[:, :GRADIENT_HEADER_BYTES], coord_step=356)
        for run, first in enumerate(headers):
            for i in range(rows):
                expected = dataclasses.replace(first, chunk_index=1 + i, coord_offset=356 * i)
                assert block[run * rows + i, :GRADIENT_HEADER_BYTES].tobytes() == expected.to_bytes()
        assert (block[:, GRADIENT_HEADER_BYTES:] == 0xAA).all()

    def test_widest_values_that_fit(self):
        first = make_header(chunk_index=0xFFFF - 2, coord_offset=0xFFFFFFFF - 2 * 9000)
        block = np.zeros((3, GRADIENT_HEADER_BYTES), dtype=np.uint8)
        pack_runs([first], block, coord_step=9000)
        last = GradientHeader.from_bytes(block[2].tobytes())
        assert (last.chunk_index, last.coord_offset) == (0xFFFF, 0xFFFFFFFF)
