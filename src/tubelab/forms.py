"""Quadratic-form matrices by their cyclic diagonals, in numpy alone.

A Form is a square matrix held as Q[i, (i + o) mod n] = diagonals[o][i],
offsets o normalized to (-n/2, n/2].  Every form tubelab assembles is a few
such diagonals: the fiber's difference stencils, and their Kronecker
products with base stencils on the product grid, whose index is base-major
in blocks of `block` fiber nodes.  The layout carries the base wrap-around
like any other row, so a form that does not change along the base has
diagonals that repeat bit for bit per base node, and that repetition is
the exact block-circulant test (circulant_blocks) of
semigroup.fourier_blocks.

Gram assembly D^H diag(c) D (Form.gram) forms each entry as
(conj(D[i, p]) c[i]) D[i, q] and gives entry (q, p) the conjugate of that
same number, so every assembled form is Hermitian bit for bit.  A product
(Form @ x) takes a field (n,) or each row of a C-ordered stack (m, n), a
few fields at a time, and sums every row of Q in offset order.  That order
is fixed by the form alone, not by the stack or its chunks, so a field of a
stack has the bits of its product alone.  Fiber-sized matrices that a
dense solver needs come from Form.toarray.
"""

from __future__ import annotations

import math

import numpy as np

# the number of stack entries a product works on at a time
PRODUCT_CHUNK = 1 << 15


def _signed(offset, n):
    """The offset of a diagonal of an n x n form, normalized to (-n/2, n/2]."""
    offset = int(offset) % n
    return offset - n if offset > n // 2 else offset


def _accumulate(diagonals, offset, values):
    """Add values to the diagonal `offset` of a {offset: array} map."""
    diagonals[offset] = diagonals[offset] + values if offset in diagonals else values


class Form:
    """An n x n matrix by its cyclic diagonals (module docstring).

    diagonals maps an offset to its n values; all-zero diagonals are
    dropped.  block is the number of fiber nodes per base node of the
    product grid the form lives on: the period along the index that
    circulant_blocks tests (1 for a form on the base alone)."""

    def __init__(self, n, diagonals, block=1):
        self.n = int(n)
        self.block = int(block)
        out = {}
        for offset, values in diagonals.items():
            values = np.broadcast_to(values, (self.n,))
            if np.any(values):
                _accumulate(out, _signed(offset, self.n), values)
        self.diagonals = dict(sorted(out.items()))

    @classmethod
    def diagonal(cls, values):
        """The diagonal matrix diag(values)."""
        return cls(len(values), {0: np.asarray(values)})

    @classmethod
    def identity(cls, n):
        return cls(n, {0: np.ones(n)})

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def dtype(self):
        return np.result_type(float, *self.diagonals.values())

    def __add__(self, other):
        out = dict(self.diagonals)
        for offset, values in other.diagonals.items():
            _accumulate(out, offset, values)
        return Form(self.n, out, math.lcm(self.block, other.block))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return Form(self.n, {o: d * scalar for o, d in self.diagonals.items()}, self.block)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """The form times 1 / scalar."""
        return self * (1.0 / scalar)

    def scale_rows(self, values):
        """diag(values) @ Q."""
        return Form(self.n, {o: values * d for o, d in self.diagonals.items()}, self.block)

    def gram(self, c):
        """D^H diag(c) D for this form D, a difference operator whose row i
        is one edge of weight c[i]: row i adds (conj(D[i, p]) c[i]) D[i, q]
        to entry (p, q), and the conjugate of that number to entry (q, p)."""
        out = {}
        offsets = list(self.diagonals)
        for k, a in enumerate(offsets):
            left = self.diagonals[a].conj() * c
            for b in offsets[k:]:
                term = left * self.diagonals[b]  # row i: entry (i + a, i + b)
                _accumulate(out, _signed(b - a, self.n), np.roll(term, a))
                if b != a:
                    _accumulate(out, _signed(a - b, self.n), np.roll(term.conj(), b))
        return Form(self.n, out, self.block)

    def __matmul__(self, x):
        """Q x for a field x (n,), or Q x_k for each row x_k of a stack (m, n)."""
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"a form of shape {self.shape} cannot multiply shape {x.shape}")
        n = self.n
        out = np.zeros(x.shape, np.result_type(self.dtype, x))
        fields, products = x.reshape(-1, n), out.reshape(-1, n)
        # column lo + i + o of the window [x[n-lo:], x, x[:hi]] holds
        # x[(i + o) mod n] for every offset o in [-lo, hi]
        offsets = [0, *self.diagonals]
        lo, hi = -min(offsets), max(offsets)
        # a few fields at a time, so that their products stay in cache
        step = max(1, PRODUCT_CHUNK // n)
        window = np.empty((min(step, len(fields)), lo + n + hi), x.dtype)
        term = np.empty((len(window), n), out.dtype)
        for start in range(0, len(fields), step):
            xs, ys = fields[start : start + step], products[start : start + step]
            ws, ts = window[: len(xs)], term[: len(xs)]
            ws[:, :lo], ws[:, lo : lo + n], ws[:, lo + n :] = xs[:, n - lo :], xs, xs[:, :hi]
            # every row sums its terms in offset order
            for o, d in self.diagonals.items():
                np.multiply(d, ws[:, lo + o : lo + o + n], out=ts)
                ys += ts
        return out

    def abs_row_sums(self):
        """sum_j |Q[i, j]| for each row i."""
        return sum((np.abs(d) for d in self.diagonals.values()), np.zeros(self.n))

    def toarray(self):
        out = np.zeros(self.shape, self.dtype)
        rows = np.arange(self.n)
        for o, d in self.diagonals.items():
            out[rows, (rows + o) % self.n] = d
        return out

    def circulant_blocks(self):
        """(D, N), dense block x block, when the form is exactly
        kron(I, D) + kron(S, N) + kron(S^T, N^T) over n / block >= 3 base
        nodes, S the cyclic base shift (S[i, i+1] = 1): every diagonal
        repeats bit for bit per base node, every nonzero entry lies in the
        base offsets 0, 1 and -1, and the -1 block is N^T.  None otherwise."""
        nf = self.block
        n_base = self.n // nf
        if n_base < 3 or self.n % nf:
            return None
        j = np.arange(nf)
        parts = np.zeros((3, nf, nf), self.dtype)
        for o, d in self.diagonals.items():
            rows = d.reshape(n_base, nf)
            if not np.array_equal(rows, np.broadcast_to(rows[0], rows.shape)):
                return None
            col = (j + o) % self.n
            part = np.select([col < nf, col < 2 * nf, col >= self.n - nf], [0, 1, 2], -1)
            nz = rows[0] != 0
            if np.any(part[nz] < 0):
                return None
            parts[part[nz], j[nz], col[nz] % nf] = rows[0][nz]
        D, N, transposed = parts
        return (D, N) if np.array_equal(transposed, N.T) else None


def kron(B, F):
    """The Kronecker product kron(B, F): B over the base nodes, F within
    each; its block is B.block * F.n."""
    nf = F.n
    j = np.arange(nf)
    out = {}
    for b, db in B.diagonals.items():
        for f, df in F.diagonals.items():
            # F's entries past either end of a block wrap within the block
            inside = (j + f >= 0) & (j + f < nf)
            for offset, part in ((b * nf + f, inside), (b * nf + f - np.sign(f) * nf, ~inside)):
                values = np.where(part, df, 0)
                if np.any(values):
                    _accumulate(out, _signed(offset, B.n * nf), np.kron(db, values))
    return Form(B.n * nf, out, B.block * nf)
