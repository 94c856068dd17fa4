"""Metric data checked against closed forms and an independent embedding oracle."""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from tubelab import geometry
from tubelab.errors import FocalRadiusExceeded


def embedding_cometric_circle(R, eps, s, h=1e-6):
    """Cometric blocks computed straight from the ambient embedding.

    The tube chart is (x, s) -> (R + eps*s) * (cos(x/R), sin(x/R)); s is the
    rescaled fiber coordinate, so the cometric is simply the inverse of the
    numerical J^T J.  Shares no code with the library path."""

    def emb(x, sv):
        r = R + eps * sv
        return np.array([r * math.cos(x / R), r * math.sin(x / R)])

    jx = (emb(h, s) - emb(-h, s)) / (2 * h)
    js = (emb(0.0, s + h) - emb(0.0, s - h)) / (2 * h)
    J = np.stack([jx, js], axis=1)
    return np.linalg.inv(J.T @ J)


class TestCircle:
    def test_horizontal_closed_form(self):
        m = geometry.CircleInPlane(1.0)
        p = geometry.TubePoint(0.3, [0.5], 0.1)
        cm = geometry.cometric(m, p)
        assert cm.horizontal[0, 0] == pytest.approx(1.05**-2, abs=1e-14)
        assert cm.vertical[0, 0] == pytest.approx(100.0, abs=1e-10)

    def test_matches_embedding_oracle(self):
        m = geometry.CircleInPlane(1.3)
        for eps in (0.3, 0.1):
            for s in (-0.9, -0.2, 0.0, 0.5, 1.0):
                cm = geometry.cometric(m, geometry.TubePoint(0.7, [s], eps))
                full = np.diag([cm.horizontal[0, 0], cm.vertical[0, 0]])
                ref = embedding_cometric_circle(1.3, eps, s)
                # the block-diagonal comparison also bounds the oracle's
                # off-diagonal (tangent-normal) entry
                assert np.max(np.abs(full - ref)) < 1e-6 * np.max(np.abs(ref))

    def test_density_closed_form(self):
        m = geometry.CircleInPlane(2.0)
        # det of the 2x2 endomorphism is the horizontal stretch 1 + eps*s/R
        assert geometry.density_rho(m, geometry.TubePoint(0.0, [0.6], 0.1)) == pytest.approx(
            1.03, abs=1e-14
        )
        assert geometry.density_rho(m, geometry.TubePoint(1.0, [0.0], 0.1)) == 1.0

    def test_weingarten_sign(self):
        # outward normal bends the tangent circle away: A_W = -s/R
        m = geometry.CircleInPlane(2.0)
        assert geometry.weingarten(m, 0.0, [1.0])[0, 0] == pytest.approx(-0.5)


class TestCurve:
    def test_reduces_to_circle(self):
        # planar unit-curvature closed curve of length 2*pi is the unit circle;
        # its inward-pointing first frame vector flips the sign of s
        R = 1.0
        curve = geometry.constant_curve(1.0 / R, 0.0, 2 * math.pi * R)
        circ = geometry.CircleInPlane(R)
        for s in (-0.7, 0.2, 0.8):
            pc = geometry.TubePoint(0.5, [-s, 0.0], 0.1)
            ps = geometry.TubePoint(0.5, [s], 0.1)
            assert geometry.density_rho(curve, pc) == pytest.approx(
                geometry.density_rho(circ, ps), abs=1e-12
            )
            hc = geometry.cometric(curve, pc).horizontal[0, 0]
            hs = geometry.cometric(circ, ps).horizontal[0, 0]
            assert hc == pytest.approx(hs, abs=1e-12)

    def test_vertical_block_flat(self):
        curve = geometry.constant_curve(0.8, 0.0, 5.0)
        cm = geometry.cometric(curve, geometry.TubePoint(1.0, [0.3, 0.4], 0.1))
        assert np.allclose(cm.vertical, 100.0 * np.eye(2), atol=1e-10)

    def test_torsion_leaves_curvature_vector_fixed(self):
        # the normal frame co-rotates: torsion enters only through the
        # horizontal lift (discretize), never through the curvature vector,
        # so the twisted curve's metric data is the untwisted curve's
        twisted = geometry.constant_curve(1.0, 0.5, 4 * math.pi)
        flat = geometry.constant_curve(1.0, 0.0, 4 * math.pi)
        s = np.linspace(-1.0, 5 * math.pi, 7)
        w = np.random.Generator(np.random.Philox(key=3)).uniform(-0.7, 0.7, (7, 2))
        assert np.array_equal(geometry.weingarten(twisted, s, w), geometry.weingarten(flat, s, w))
        points = geometry.TubePoint(s, w, 0.1)
        ct, cf = geometry.cometric(twisted, points), geometry.cometric(flat, points)
        assert np.array_equal(ct.horizontal, cf.horizontal)
        assert np.array_equal(ct.vertical, cf.vertical)

    def test_ellipse_curvature_range(self):
        curve = geometry.ellipse_curve(2.0, 1.0)
        ks = [curve.kappa(s) for s in np.linspace(0, curve.length, 200)]
        # extremes a/b^2 and b/a^2
        assert min(ks) == pytest.approx(0.25, rel=1e-3)
        assert max(ks) == pytest.approx(2.0, rel=1e-3)

    def test_focal_radius_exceeded(self):
        curve = geometry.constant_curve(3.0, 0.0, 10.0)
        with pytest.raises(FocalRadiusExceeded):
            geometry.jacobi_endomorphism(curve, 0.0, [1.0, 0.0], 0.5)


def curvature_tensor(c):
    """The four-index components c[mu, alpha, nu, beta] =
    <R(e_mu, e_alpha) e_nu, e_beta> of codimension 2 with the single
    independent component <R(e2, e1) e2, e1> = c."""
    comp = np.zeros((2, 2, 2, 2))
    comp[1, 0, 1, 0] = comp[0, 1, 0, 1] = c
    comp[1, 0, 0, 1] = comp[0, 1, 1, 0] = -c
    return comp


class TestSynthetic:
    def test_curvature_operator(self):
        m = geometry.SyntheticFiberModel(2.0)
        # R(W, W) W vanishes, and for W = e1 the operator is diag(0, c)
        assert np.allclose(m.curvature_operator([1.0, 0.0]) @ [1.0, 0.0], 0.0)
        assert np.allclose(m.curvature_operator([1.0, 0.0]), np.diag([0.0, 2.0]))
        assert np.allclose(m.curvature_operator([0.0, 1.0]), np.diag([2.0, 0.0]))

    @pytest.mark.parametrize("c", [1.5, -0.7, 2.0, 1.0 / 3.0, 0.1])
    def test_curvature_operator_is_the_tensor_contraction(self, c):
        # the closed form c Z Z^T is the contraction of the full tensor,
        # M[..., beta, alpha] = w_mu w_nu c[mu, alpha, nu, beta], bit for bit
        m = geometry.SyntheticFiberModel(c)
        comp = curvature_tensor(c)
        rng = np.random.Generator(np.random.Philox(key=11))
        w = rng.uniform(-0.7, 0.7, (5, 7, 2))
        ref = np.einsum("...m,...n,manb->...ba", w, w, comp)
        assert m.curvature_operator(w).shape == (5, 7, 2, 2)
        assert np.array_equal(m.curvature_operator(w), ref)
        for point in w[0]:
            one = np.einsum("m,n,manb->ba", point, point, comp)
            assert np.array_equal(m.curvature_operator(point), one)

    def test_vertical_cometric_expansion(self):
        # induced - sasaki -> -(1/3) R_W blockwise, with O(eps^2) remainder
        c = 1.5
        m = geometry.SyntheticFiberModel(c)
        w = np.array([0.8, 0.0])
        errs = []
        for eps in (0.2, 0.1):
            p = geometry.TubePoint(0.0, w, eps)
            diff = geometry.cometric(m, p).vertical - np.eye(2) / eps**2
            errs.append(np.max(np.abs(diff + m.curvature_operator(w) / 3.0)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_jacobi_identity_on_submanifold():
    for model, w in (
        (geometry.CircleInPlane(1.0), [0.0]),
        (geometry.constant_curve(1.0, 0.0, 5.0), [0.0, 0.0]),
        (geometry.SyntheticFiberModel(1.0), [0.0, 0.0]),
    ):
        A = geometry.jacobi_endomorphism(model, 0.0, w, 0.1)
        assert np.allclose(A, np.eye(A.shape[0]), atol=1e-14)


def test_tube_point_validation():
    with pytest.raises(ValueError):
        geometry.TubePoint(0.0, [1.5], 0.1)
    with pytest.raises(ValueError):
        geometry.TubePoint(0.0, [0.5], -0.1)


# One model of each kind the geometry knows, the twisted curve and the
# ellipse for a base-dependent curvature vector.
BATCH_MODELS = {
    "circle": geometry.CircleInPlane(1.0),
    "twisted_curve": geometry.constant_curve(1.0, 0.5, 4 * math.pi),
    "ellipse": geometry.ellipse_curve(1.2, 0.8),
    "synthetic": geometry.SyntheticFiberModel(1.5),
}


class TestArrays:
    @pytest.mark.parametrize("name", sorted(BATCH_MODELS))
    def test_batch_equals_pointwise(self, name):
        model = BATCH_MODELS[name]
        rng = np.random.Generator(np.random.Philox(key=6))
        base = rng.uniform(0.0, max(model.base_length, 1.0), 5)
        w = rng.uniform(-0.7, 0.7, (7, model.codim))
        points = geometry.TubePoint(base[:, None], w[None], 0.1)
        cm = geometry.cometric(model, points)
        rho = geometry.density_rho(model, points)
        l, q = model.dim_base, model.codim
        assert cm.horizontal.shape == (5, 7, l, l)
        assert cm.vertical.shape == (5, 7, q, q)
        assert rho.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                point = geometry.TubePoint(base[i], w[j], 0.1)
                one = geometry.cometric(model, point)
                assert np.array_equal(one.horizontal, cm.horizontal[i, j])
                assert np.array_equal(one.vertical, cm.vertical[i, j])
                assert np.array_equal(geometry.density_rho(model, point), rho[i, j])

    def test_one_point_outside_the_ball(self):
        w = np.zeros((4, 2))
        w[2] = [0.9, 0.6]
        with pytest.raises(ValueError):
            geometry.TubePoint(np.zeros(4), w, 0.1)

    def test_one_point_past_the_focal_radius(self):
        curve = geometry.constant_curve(3.0, 0.0, 10.0)
        w = np.zeros((4, 2))
        points = geometry.TubePoint(np.zeros(4), w, 0.5)
        assert np.array_equal(geometry.density_rho(curve, points), np.ones(4))
        w[2] = [1.0, 0.0]
        points = geometry.TubePoint(np.zeros(4), w, 0.5)
        with pytest.raises(FocalRadiusExceeded):
            geometry.cometric(curve, points)
        with pytest.raises(FocalRadiusExceeded):
            geometry.density_rho(curve, points)


# a circle config small enough that the five subcommands run in seconds
TRACE_CONFIG = """\
seed: 7
model: {kind: circle, radius: 1.0}
grid: {n_base: 16, n_fiber: 15}
sweep: {eps_list: [0.2, 0.1], n_t: 2}
validate: {eps_list: [0.2, 0.1], n_fields: 4}
resolvent: {eps_list: [0.2, 0.1], n_perturbations: 2}
mc: {eps_list: [0.2], n_paths: 2000, horizon: 0.1, t_eval: [0.05, 0.1]}
"""


def _traced_run(tmp_path, config, commands):
    """The traced benchmark worker's record of one run of the commands."""
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = tmp_path / "trace.yaml"
    cfg.write_text(config)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "--config", str(cfg),
         "--workers", "1", "--out", str(tmp_path / "out"), "--trace", "--commands", *commands],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(record["exit_codes"]) == sorted(commands)
    assert "exception" not in record["exit_codes"].values(), proc.stderr
    return record


def test_benchmark_tracer_installs(tmp_path):
    """perfbench/layers.py wraps package functions and reads attributes of
    their results by name, so a rename or deletion it relies on fails here
    rather than in a traced benchmark run.  The traced benchmark worker runs
    all five subcommands in a subprocess, which keeps the wrappers out of
    this test process."""
    record = _traced_run(tmp_path, TRACE_CONFIG, ["fiber", "validate", "sweep", "resolvent", "mc"])
    # one propagator per eps and one base propagator per collapse study
    # (validate, sweep), one per eps in mc; one fiber projection of
    # validate's whole stack of fields, one per limit flow (validate, sweep)
    # and one in resolvent: a copied study loop, a rebuild per time or a
    # projection per field raises these counts
    assert record["layers"]["semigroup.propagator_builds"] == 7
    assert record["layers"]["fiber.projection_calls"] == 4


# a twisted curve: complex Fourier blocks under the same tracer
TWISTED_TRACE_CONFIG = """\
seed: 7
model: {kind: curve, kappa0: 1.0, tau0: 1.0}
grid: {n_base: 16, n_fiber: 8, n_theta: 8}
sweep: {eps_list: [0.2, 0.1], n_t: 2}
validate: {eps_list: [0.2, 0.1], n_fields: 4}
resolvent: {eps_list: [0.2, 0.1], n_perturbations: 2}
"""


def test_benchmark_tracer_on_a_twisted_tube(tmp_path):
    record = _traced_run(tmp_path, TWISTED_TRACE_CONFIG, ["validate", "sweep", "resolvent"])
    assert record["layers"]["semigroup.propagator_truncated_builds"] == 0
