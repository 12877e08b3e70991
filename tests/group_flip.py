"""Single-value and single-group views of the bit-flip kernels.

The library flips whole layers (bitflip.flip_layer). These wrappers call its
two kernels on one value or one group, so the tests can state the tie rules,
the sign restriction and the brute-force optimality checks one case at a
time. They call the code under test, so they are not oracles.
"""

from typing import NamedTuple

import numpy as np

from bitcol import bitflip, codec


def nearest_with_mask(v: int, allowed_mask: int, allow_negative: bool = True) -> int:
    """Nearest int8 to v whose magnitude is a submask of the 7-bit allowed_mask."""
    return int(bitflip._nearest_table(not allow_negative)[allowed_mask, v + 128])


class BestFlip(NamedTuple):
    flipped: np.ndarray  # (G,) int8
    index: int
    sq_error: int


def best_column_set(group, z: int) -> BestFlip:
    """Optimal flip of a single group (values clamped to [-127, 127])."""
    flip, idx, err = bitflip._solve_groups(codec.sm_clamp(group)[None, :], z)
    return BestFlip(flip[0], int(idx[0]), int(err[0]))
