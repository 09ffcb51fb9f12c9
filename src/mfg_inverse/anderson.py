"""Anderson mixing of a fixed-point iteration x <- G(x).

Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 49,
2011): with f = G(x) - x, the next iterate is G(x_k) - sum_j gamma_j
dG_j, where dG_j and dF_j are the differences of G and f between
consecutive iterates of the last ``depth`` steps, and gamma minimizes
|f_k - sum_j gamma_j dF_j| in least squares.  The next iterate is thus
an affine combination of G values alone.  On a linear map this is
GMRES in disguise; on the policy iterations it about halves the sweeps.
"""

from __future__ import annotations

import numpy as np

# History depth of every mixed loop of the package: the smallest depth
# that comes within one sweep of the best of depths 1 to 5 on each of
# the forward, inverse and coupled-adjoint loops of the benchmark (see
# ROADMAP item 2).  Depth 0 is the plain iteration.
DEPTH = 3

# The least-squares solve drops the directions of the difference history
# whose singular value is below sqrt(RCOND) = 1e-6 times the largest
# (RCOND applies to its Gram matrix), which guards it against a nearly
# dependent history.
RCOND = 1e-12


class Anderson:
    """Mixing state of one fixed-point loop over fields of one shape.

    ``mix(x, gx, gap)`` takes the current iterate, its image G(x) and
    the loop's gap |G(x) - x|, and returns the next iterate.  The history
    restarts, and the step is the plain G(x), whenever the gap rises.
    The least-squares norm is |r|^2 = r . metric(r) for a symmetric
    positive semi-definite ``metric`` that maps a field to a field; None
    means the Euclidean norm.  Each mix applies the metric to f and to
    the newest f difference only, and keeps the weighted differences.
    The history lives in one block allocated with the state; with depth
    0, ``mix`` returns G(x) and nothing is allocated.
    """

    def __init__(self, depth: int, shape: tuple[int, ...], metric=None):
        self.depth, self.metric = depth, metric
        self.size = self.slot = 0  # stored differences; the next row to write
        self.last_gap = None
        # rows: f = G(x) - x, the last `depth` differences of f, G(x), those
        # of G(x), and under a metric the metric of each stored f difference
        rows = (2 + (3 if metric else 2) * depth) if depth else 0
        self.block = np.empty((rows,) + tuple(shape))

    def mix(self, x: np.ndarray, gx: np.ndarray, gap: float) -> np.ndarray:
        if self.depth == 0:
            return gx
        m = self.depth
        f, df, g, dg = self.block[0], self.block[1 : m + 1], self.block[m + 1], self.block[m + 2 : 2 * m + 2]
        weighted_df = df if self.metric is None else self.block[2 * m + 2 :]
        if self.last_gap is None or gap > self.last_gap:
            self.size = self.slot = 0
            np.subtract(gx, x, out=f)
        else:
            row = df[self.slot]
            np.subtract(gx, x, out=row)
            row -= f  # f_k - f_{k-1}
            f += row
            if self.metric is not None:
                weighted_df[self.slot] = self.metric(row)
            np.subtract(gx, g, out=dg[self.slot])
            self.slot = (self.slot + 1) % m
            self.size = min(self.size + 1, m)
        g[...] = gx
        self.last_gap = gap
        if self.size == 0:
            return gx
        weighted_f = f if self.metric is None else self.metric(f)
        rows = df[: self.size].reshape(self.size, -1)
        gram = rows @ weighted_df[: self.size].reshape(self.size, -1).T
        gamma = np.linalg.lstsq(gram, rows @ weighted_f.reshape(-1), rcond=RCOND)[0]
        return gx - np.tensordot(gamma, dg[: self.size], axes=1)
