"""Dense linear-algebra and randomness primitives shared by the whole package.

All random sampling goes through numpy Generators derived from a single
64-bit seed, so every experiment is reproducible and trajectories can be
split into independent child streams.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


class Rng:
    """Seeded random stream with deterministic per-trajectory splitting.

    Child streams obtained from :meth:`child` have statistically independent
    subsequences (numpy ``SeedSequence`` spawn keys), and the same seed always
    reproduces the same stream.
    """

    def __init__(self, seed, _seq=None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self.gen = np.random.Generator(np.random.PCG64(self._seq))

    def child(self, index):
        """Independent stream for trajectory `index`."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(int(index),))
        return Rng(self.seed, _seq=seq)

    # passthroughs used throughout the package
    def normal(self, *a, **kw):
        return self.gen.normal(*a, **kw)

    def integers(self, *a, **kw):
        return self.gen.integers(*a, **kw)

    def random(self, *a, **kw):
        return self.gen.random(*a, **kw)


def haar_unitary(dim, rng):
    """Haar-random unitary of size `dim`.

    QR of a complex Ginibre matrix, with the R diagonal phase divided out.
    The phase fix is required: plain QR is *not* Haar distributed.
    """
    if dim < 1:
        raise ValueError(f"invalid unitary dimension {dim}")
    g = rng.gen
    z = (g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def svd_truncate(m, chi_max, cutoff=0.0):
    """Truncated SVD: keep at most `chi_max` singular values above `cutoff`.

    Returns (U, S, Vh, discarded_weight) with S sorted descending and
    discarded_weight the sum of squared dropped singular values.
    """
    if chi_max < 1:
        raise ValueError(f"invalid chi_max {chi_max}")
    u, s, vh = np.linalg.svd(np.asarray(m), full_matrices=False)
    keep = min(chi_max, len(s))
    if cutoff > 0.0:
        above = int(np.sum(s > cutoff))
        keep = min(keep, max(above, 1))
    discarded = float(np.sum(s[keep:] ** 2))
    return u[:, :keep], s[:keep], vh[:keep, :], discarded


def indexed_map(fn, count, workers=1):
    """[fn(0), ..., fn(count - 1)], on `workers` threads when workers > 1.

    Results come back in index order, so with per-index random streams
    (``rng.child(i)``) they do not depend on the thread count.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]
