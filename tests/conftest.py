"""Shared helpers for the test suite: reproducible random draws of algebra
elements and parameter records. The draws are the verify battery's own."""

import numpy as np

from susy_ladder.verify import (random_dirac, random_nr, random_phys,  # noqa: F401
                                random_poly, random_spinor)


def rng_for(tag: int):
    return np.random.default_rng(20121028 + tag)
