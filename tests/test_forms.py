"""The numpy forms (tubelab.forms) against a scipy.sparse reference assembly.

scipy is the oracle here: every form below is also assembled in
scipy.sparse, term for term as coefficient times squared difference summed
over the edges, and the two agree entry by entry to roundoff."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from tubelab import discretize, fiber as fiber_mod, geometry, semigroup
from tubelab.forms import PRODUCT_CHUNK, Form, kron

UNIT_ROUNDOFF = np.finfo(float).eps / 2
# largest entrywise distance from the reference, in units of u times the
# reference's largest entry: each entry is a sum of at most a few dozen
# products, which the two assemblies group differently only in the twisted
# horizontal forms (measured there: 2.0 u)
ENTRY_BOUND_U = 16

MODELS = {
    "circle": (geometry.CircleInPlane(1.0), 16, 13, 16),
    "twisted-curve": (geometry.constant_curve(1.0, 1.0, 2.0 * math.pi), 12, 8, 8),
    "ellipse": (geometry.ellipse_curve(1.2, 0.8), 12, 8, 8),
    "synthetic": (geometry.SyntheticFiberModel(1.5), 1, 12, 8),
}


# ---------------------------------------------------------------------------
# the scipy.sparse reference
# ---------------------------------------------------------------------------


def gram(D, c):
    """D^H diag(c) D."""
    return (D.conj().T @ sp.diags(c) @ D).tocsr()


def ref_vertical_form(fib, vertical=None):
    """The fiber grid's vertical form: interval edges with half-length wall
    edges, or disc radial and angular edges (fiber.vertical_form)."""
    vertical = vertical or (lambda w: np.broadcast_to(np.eye(w.shape[-1]), w.shape + w.shape[-1:]))
    if isinstance(fib, fiber_mod.IntervalFiberGrid):
        n, h = fib.n, fib.h
        lens = np.full(n + 1, h)
        lens[0] = lens[-1] = 0.5 * h
        D = sp.diags([-1.0 / lens[1:], 1.0 / lens[:-1]], [-1, 0], shape=(n + 1, n))
        mids = np.concatenate([[-1.0 + 0.25 * h], fib.s[:-1] + 0.5 * h, [1.0 - 0.25 * h]])
        return gram(D, vertical(mids[:, None])[:, 0, 0] * lens)
    nr, nt, h, dt = fib.n_r, fib.n_theta, fib.h_r, fib.dtheta
    r_edge = np.append(np.arange(1, nr) * h, 1.0 - 0.5 * h)
    g_edge, g_ring = (vertical(np.stack([r, np.zeros_like(r)], axis=-1)) for r in (r_edge, fib.r))
    D_r = sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(nr, nr))
    D_t = sp.diags([-1.0 / dt, 1.0 / dt, 1.0 / dt], [0, 1, 1 - nt], shape=(nt, nt))
    radial = gram(sp.kron(D_r, sp.identity(nt)), np.repeat(g_edge[:, 0, 0] * (h * r_edge * dt), nt))
    angular = gram(sp.kron(sp.identity(nr), D_t),
                   np.repeat(g_ring[:, 1, 1] / fib.r**2 * (h * fib.r * dt), nt))
    return (radial + angular).tocsr()


def ref_rotation_generator(fib):
    """The centered -d_theta on each ring of a disc grid."""
    nt, a = fib.n_theta, 1.0 / (2 * fib.dtheta)
    ring = sp.diags([-a, a, -a, a], [1, -1, 1 - nt, nt - 1], shape=(nt, nt))
    return sp.kron(sp.identity(fib.n_r), ring, format="csr")


def ref_base_parts(grid):
    """(forward difference / h, edge twist or None) on the base."""
    n, h = grid.n_base, grid.base_h
    Db = sp.diags([-1.0 / h, 1.0 / h, 1.0 / h], [0, 1, 1 - n], shape=(n, n), format="csr")
    if not isinstance(grid.model, geometry.CurveInSpace):
        return Db, None
    tau = np.broadcast_to(grid.model.tau(grid.base_x + 0.5 * h), n).astype(float)
    if not np.any(tau):
        return Db, None
    return Db, (sp.diags(0.5 * tau) @ sp.diags([1.0, 1.0, 1.0], [0, 1, 1 - n], shape=(n, n))).tocsr()


def ref_horizontal(grid, coeff):
    if grid.n_base == 1:
        return sp.csr_matrix((grid.n, grid.n))
    Db, twist = ref_base_parts(grid)
    X = sp.kron(Db, sp.identity(grid.n_fiber))
    if twist is not None:
        X = X - sp.kron(twist, -ref_rotation_generator(grid.fiber))
    return gram(X, (grid.base_h * grid.fiber.weights[None, :] * coeff).ravel())


def ref_base_form(grid, zeta):
    if grid.n_base == 1:
        return sp.csr_matrix((1, 1))
    X, twist = ref_base_parts(grid)
    if zeta and twist is not None:
        X = X - 1j * zeta * twist
    return gram(X, np.full(grid.n_base, grid.base_h))


def ref_form(grid, which, eps):
    """The named form (discretize.FORM_NAMES) in scipy.sparse."""
    model, fib = grid.model, grid.fiber
    synthetic = isinstance(model, geometry.SyntheticFiberModel)
    base = sp.diags(grid.base_w)
    if which == "V":
        return sp.kron(base, ref_vertical_form(fib))
    if which == "H":
        return ref_horizontal(grid, np.ones((grid.n_base, grid.n_fiber)))
    if which == "SasakiEps":
        return ref_form(grid, "V", eps) / eps**2 + ref_form(grid, "H", eps)
    if which == "InducedEps":
        vert = ref_vertical_form(
            fib, lambda w: geometry.cometric(model, geometry.TubePoint(0.0, w, eps)).vertical)
        Q = sp.kron(base, vert)
        if grid.n_base > 1:
            xmid = grid.base_x + 0.5 * grid.base_h
            points = geometry.TubePoint(xmid[:, None], fib.node_w()[None], eps)
            Q = Q + ref_horizontal(grid, geometry.cometric(model, points).horizontal[..., 0, 0])
        return Q
    if which == "Omega" and synthetic:
        rot = ref_vertical_form(fib, geometry.rotation_cometric)
        return (-model.curvature / 3.0) * sp.kron(base, rot)
    if which == "P" and synthetic:
        Z = sp.kron(sp.identity(grid.n_base), ref_rotation_generator(fib))
        Q = sp.diags(grid.weights) @ ((model.curvature / 3.0) * (Z @ Z))
        return (Q + Q.T) * 0.5
    return sp.csr_matrix((grid.n, grid.n))


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(MODELS))
def model_grid(request):
    return request.param, discretize.build_grid(*MODELS[request.param])


def cases(name, grid):
    """(label, numpy form, scipy reference) of every form of one grid."""
    eps = 0.2
    out = [(which, discretize.assemble_form(grid, which, eps), ref_form(grid, which, eps))
           for which in discretize.FORM_NAMES]
    out += [(f"base_form({zeta})", discretize.base_form(grid, zeta), ref_base_form(grid, zeta))
            for zeta in (0.0, 1.5)]
    out.append(("vertical_form", grid.fiber.vertical_form(), ref_vertical_form(grid.fiber)))
    if isinstance(grid.fiber, fiber_mod.PolarFiberGrid):
        out.append(("rotation_generator", grid.fiber.rotation_generator(),
                    ref_rotation_generator(grid.fiber)))
    return out


def assert_close(value, ref, scale):
    assert np.max(np.abs(value - ref), initial=0.0) <= ENTRY_BOUND_U * UNIT_ROUNDOFF * scale


def test_forms_match_the_scipy_assembly(model_grid):
    name, grid = model_grid
    for label, form, ref in cases(name, grid):
        ref = ref.toarray()
        assert form.shape == ref.shape, label
        dense = form.toarray()
        assert_close(dense, ref, np.max(np.abs(ref), initial=0.0))
        # every form assembled here is Hermitian bit for bit
        if label != "rotation_generator":
            assert np.array_equal(dense, dense.conj().T), label
        # every other form keeps the reference's bits
        if name != "twisted-curve" or label not in ("H", "SasakiEps", "InducedEps"):
            assert np.array_equal(dense, ref), label


def test_products_match_scipy_and_hold_the_per_field_bits(model_grid):
    name, grid = model_grid
    rng = np.random.Generator(np.random.Philox(key=11))
    for label, form, ref in cases(name, grid):
        # a few fields, and a stack that crosses a product chunk boundary
        for m in (5, PRODUCT_CHUNK // form.n + 3):
            x = rng.standard_normal((m, form.n))
            product = form @ x
            ref_product = np.asarray(ref @ x.T).T
            # |Q x - R x| <= (entry bound + summation) |R| |x|, row by row
            scale = np.asarray(abs(ref) @ np.abs(x).T).T
            assert np.all(np.abs(product - ref_product)
                          <= 2 * ENTRY_BOUND_U * UNIT_ROUNDOFF * scale), label
            for row, field in zip(product, x):
                assert np.array_equal(row, form @ field), label
        rows = np.asarray(abs(ref).sum(axis=1)).ravel()
        assert_close(form.abs_row_sums(), rows, np.max(rows, initial=0.0))


def test_circulant_blocks_are_the_reference_blocks(model_grid):
    name, grid = model_grid
    for which in ("V", "H", "SasakiEps", "InducedEps"):
        # the ellipse's induced coefficients change along its base
        split = name != "synthetic" and (name, which) != ("ellipse", "InducedEps")
        form = discretize.assemble_form(grid, which, 0.2)
        blocks = form.circulant_blocks()
        assert (blocks is not None) == split, which
        assert (semigroup.fourier_blocks(form, grid.weights).n_base > 1) == split
        if split:
            nf, ref = grid.n_fiber, form.toarray()
            assert np.array_equal(blocks[0], ref[:nf, :nf])
            assert np.array_equal(blocks[1], ref[:nf, nf : 2 * nf])


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_products_of_random_cyclic_forms(n):
    # offsets at both ends of (-n/2, n/2], one-signed sets and the empty
    # form.  Each entry of Q x sums k products, one per diagonal, so either
    # product lies within about k u |Q| |x| of the exact one (Higham 2002,
    # sec. 3.1), and the two within twice that of each other
    rng = np.random.Generator(np.random.Philox(key=n))
    ends = sorted({-((n - 1) // 2), 0, n // 2})
    offset_sets = [[], [0], ends, [o for o in ends if o >= 0], [o for o in ends if o <= 0],
                   list(range(-((n - 1) // 2), n // 2 + 1))]
    for offsets in offset_sets:
        form = Form(n, {o: rng.standard_normal(n) for o in offsets})
        x = rng.standard_normal((PRODUCT_CHUNK // n + 3, n))
        Q = form.toarray()
        k = max(len(form.diagonals), 1)
        bound = 2 * k * UNIT_ROUNDOFF * (np.abs(x) @ np.abs(Q).T)
        assert np.all(np.abs(form @ x - x @ Q.T) <= bound), offsets
        assert np.array_equal(form @ x[3], (form @ x)[3]), offsets


def test_product_refuses_a_mismatched_operand():
    Q = Form.identity(4)
    for x in (np.ones(8), np.ones((2, 3)), np.ones((2, 2, 4))):
        with pytest.raises(ValueError):
            Q @ x


def test_kron_and_gram_match_scipy():
    rng = np.random.Generator(np.random.Philox(key=3))
    # a cyclic base stencil and a fiber stencil whose entries wrap within it
    B = Form(7, {0: rng.standard_normal(7), 1: rng.standard_normal(7), -2: rng.standard_normal(7)})
    F = Form(5, {0: rng.standard_normal(5), 2: rng.standard_normal(5), -1: rng.standard_normal(5)})
    dense = np.kron(B.toarray(), F.toarray())
    assert np.array_equal(kron(B, F).toarray(), dense)
    assert kron(B, F).block == 5
    c = rng.standard_normal(35)
    X = kron(B, F) - 0.5j * kron(F, B)
    ref = gram(sp.csr_matrix(X.toarray()), c).toarray()
    assert_close(X.gram(c).toarray(), ref, np.max(np.abs(ref)))
