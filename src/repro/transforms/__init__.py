"""Math substrate: fast Hadamard transforms and shared-randomness streams."""

from .hadamard import (
    fwht,
    fwht_inplace,
    hadamard_matrix,
    is_power_of_two,
    next_power_of_two,
)
from .prng import StreamKey, derive_seed, shared_generator
from .rotation import random_signs

__all__ = [
    "fwht",
    "fwht_inplace",
    "hadamard_matrix",
    "is_power_of_two",
    "next_power_of_two",
    "StreamKey",
    "derive_seed",
    "shared_generator",
    "random_signs",
]
