"""Math substrate: fast Hadamard transforms and shared-randomness streams."""

from .hadamard import (
    fwht,
    fwht_inplace,
    hadamard_matrix,
    is_power_of_two,
    next_power_of_two,
)
from .prng import StreamKey, derive_seed, shared_generator
from .rotation import RotatedRows, irht, random_signs, rht, rotate_rows, unrotate_rows

__all__ = [
    "fwht",
    "fwht_inplace",
    "hadamard_matrix",
    "is_power_of_two",
    "next_power_of_two",
    "StreamKey",
    "derive_seed",
    "shared_generator",
    "RotatedRows",
    "irht",
    "random_signs",
    "rht",
    "rotate_rows",
    "unrotate_rows",
]
