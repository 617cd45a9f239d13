"""Deterministic random-stream derivation.

All simulation randomness flows through numpy Generators built here.  A run
is keyed by one integer seed; independent work items (replications, sample
draws) each get their own substream derived from (seed, index) alone, so
results never depend on execution order or worker count.

Stream contract, which cross-language reimplementations must match:

* substream(seed, k) is ``Generator(PCG64(SeedSequence(entropy=seed,
  spawn_key=(k,))))``.
* One scheduling draw consumes ``n`` uniforms for the eigenvector coin
  flips (in eigenvalue order as returned by the decomposition) and then
  one uniform per selected point.
* A coverage replication consumes its scheduling draw first, then an
  n-by-n block of uniforms, row major, mapped to fading through
  ``fading = -mean * log1p(-u)``.  It may draw further uniforms past that
  block; they are never read.
"""

import numpy as np


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for work item ``index`` of the run seeded with ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def exponential_fading(rng: np.random.Generator, mean: float, size) -> np.ndarray:
    """Exponential fading draws via inverse transform.

    Uses -mean*log1p(-u) with u uniform in [0, 1), which stays finite
    (at most about 36.7 * mean in double precision) without ever taking
    log of zero.
    """
    u = rng.random(size)
    return -mean * np.log1p(-u)
