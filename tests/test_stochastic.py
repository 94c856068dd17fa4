"""Killed and guided path samplers, marginal estimator, and the circle heat oracle."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tubelab import discretize, semigroup, stochastic
from tubelab.errors import (
    DegenerateConditioning,
    EmptyEnsemble,
    FocalRadiusExceeded,
    LowEffectiveSampleSize,
    StepSizeError,
)
from tubelab.geometry import CircleInPlane, constant_curve


@pytest.fixture(scope="module")
def feasible_ensemble():
    # tube of radius 0.2 over a short horizon: survival is a few percent,
    # which keeps the self-normalized estimator well conditioned
    eps = 0.2
    return stochastic.sample_conditioned(
        CircleInPlane(1.0), eps, 0.0, 0.1, eps**2 / 20, 30000, 12345,
        t_record=[0.0, 0.05, 0.1], guided=False,
    )


@pytest.fixture(scope="module")
def guided_ensemble():
    # the same law and horizon through the h-transformed sampler
    eps = 0.2
    return stochastic.sample_conditioned(
        CircleInPlane(1.0), eps, 0.0, 0.1, eps**2 / 20, 30000, 12345,
        t_record=[0.0, 0.05, 0.1],
    )


class TestSampler:
    def test_zero_time_marginal_exact(self, feasible_ensemble):
        est = stochastic.marginal_estimate(feasible_ensemble, np.cos, 0.0)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_constant_observable(self, feasible_ensemble):
        est = stochastic.marginal_estimate(feasible_ensemble, np.ones_like, 0.05)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_survivors_stay_inside(self, feasible_ensemble):
        # containment: TestKilledReference.test_matches_full_array_stepper
        assert np.all(np.isfinite(feasible_ensemble.log_weight))

    def test_keeps_survivors_only(self, feasible_ensemble):
        # one row per path that survived to T, however many were sampled: the
        # ensemble's memory scales with the survivors, not with n_paths
        ens = feasible_ensemble
        rows = round(ens.survival_steps[-1] * ens.n_paths)
        assert ens.n_paths == 30000 and 0 < rows < ens.n_paths // 10
        assert ens.theta.shape == (rows, len(ens.t_record))
        assert ens.log_weight.shape == (rows,)
        held = ens.theta.nbytes + ens.log_weight.nbytes
        assert held <= rows * (len(ens.t_record) + 1) * 8

    def test_deterministic_in_seed(self):
        m = CircleInPlane(1.0)
        kw = dict(eps=0.2, theta0=0.0, T=0.05, dt=0.002, n_paths=5000)
        a = stochastic.sample_conditioned(m, seed=7, **kw)
        b = stochastic.sample_conditioned(m, seed=7, **kw)
        c = stochastic.sample_conditioned(m, seed=8, **kw)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.log_weight, b.log_weight)
        assert not np.array_equal(a.theta, c.theta)

    @pytest.mark.parametrize("guided", [False, True])
    def test_largest_seed_repeats(self, guided, monkeypatch):
        # 2**64 - 1 is the largest seed the config accepts; its neighbour
        # draws another stream
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 300)
        m = CircleInPlane(1.0)
        kw = dict(eps=0.2, theta0=0.0, T=0.05, dt=0.002, n_paths=700,
                  t_record=[0.02, 0.05], guided=guided)
        a = stochastic.sample_conditioned(m, seed=2**64 - 1, **kw)
        b = stochastic.sample_conditioned(m, seed=2**64 - 1, **kw)
        c = stochastic.sample_conditioned(m, seed=2**64 - 2, **kw)
        for name in ("theta", "log_weight", "survival_steps"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.all(np.isfinite(a.theta)) and a.seed == 2**64 - 1
        assert not np.array_equal(a.theta, c.theta)

    def test_survival_slope_matches_fiber_ground_energy(self):
        # log-survival decays with slope -lambda0 / (2 eps^2)
        eps = 0.2
        ens = stochastic.sample_conditioned(
            CircleInPlane(1.0), eps, 0.0, 0.1, eps**2 / 20, 20000, 999,
            guided=False,
        )
        sv = ens.survival_steps
        n = len(sv) - 1
        steps = np.arange(n // 2, n + 1)
        slope = np.polyfit(steps * ens.dt, np.log(sv[steps]), 1)[0]
        theory = -((math.pi / 2) ** 2) / (2 * eps**2)
        assert slope == pytest.approx(theory, rel=0.1)

    @pytest.mark.parametrize("guided, n_paths, dt_divisor", [
        (False, 4_000_000, 20),
        # drift-implicit Euler biases the guided curve: at the step eps^2 / 20
        # it lies 2-3% below the series at every time (z -13 at t = 0.01 with
        # these paths), at eps^2 / 320 about 0.3%
        (True, 20000, 320),
    ])
    def test_survival_matches_the_killed_interval_series(self, guided, n_paths,
                                                          dt_divisor):
        # survival_steps is the survival of the radius's killed 1-D Brownian
        # motion, started at the centre of (R - eps, R + eps):
        # sum_n (4 / pi) (-1)^n / (2n + 1) exp(-(2n + 1)^2 pi^2 t / (8 eps^2)).
        # The planar paths survive more often, by the factor
        # E[(r_t / R)^(1/2) exp(integral ds / (8 r^2)) | survival] = 1.0054 at
        # t = 0.05, 6.6 SE of the killed curve here
        eps, times = 0.2, [0.01, 0.02, 0.05, 0.1]
        dt = eps**2 / dt_divisor
        ens = stochastic.sample_conditioned(
            CircleInPlane(1.0), eps, 0.0, 0.1, dt, n_paths, 99, t_record=times,
            guided=guided, workers=2,
        )
        j = 2 * np.arange(50) + 1
        for t in times:
            exact = np.sum(4 / math.pi * (-1.0) ** (j // 2) / j
                           * np.exp(-(j * math.pi) ** 2 * t / (8 * eps**2)))
            se = math.sqrt(exact * (1.0 - exact) / n_paths)
            assert abs(ens.survival_steps[round(t / dt)] - exact) < 4.0 * se, t

    def test_guards(self):
        m = CircleInPlane(1.0)
        with pytest.raises(StepSizeError):
            stochastic.sample_conditioned(m, 0.1, 0.0, 1.0, 0.01, 100, 1)
        with pytest.raises(StepSizeError):
            # horizon not a whole number of steps
            stochastic.sample_conditioned(m, 0.5, 0.0, 0.0105, 0.01, 100, 1)
        with pytest.raises(EmptyEnsemble):
            stochastic.sample_conditioned(m, 0.5, 0.0, 0.1, 0.01, 0, 1)
        with pytest.raises(NotImplementedError):
            stochastic.sample_conditioned(
                constant_curve(1.0, 0.0, 6.0), 0.5, 0.0, 0.1, 0.01, 100, 1
            )

    @pytest.mark.parametrize("t_record", [[-0.05, 0.1], [0.05, 0.3], [-0.05, 0.3],
                                          [math.nan, 0.1], [math.inf], []])
    def test_record_times_outside_horizon_rejected(self, t_record):
        # a time outside [0, T] is an error, not clipped onto 0 or T (a clip
        # would also pass 0.3 off as the horizon T = 0.1); so are a time that
        # is not finite, whose step would be garbage, and no time at all
        m = CircleInPlane(1.0)
        for guided in (False, True):
            with pytest.raises(ValueError, match=r"\[0, T\]"):
                stochastic.sample_conditioned(
                    m, 0.2, 0.0, 0.1, 0.002, 100, 1, t_record=t_record, guided=guided
                )

    @pytest.mark.parametrize("guided", [False, True])
    def test_horizon_record_moves_no_draw(self, guided, monkeypatch):
        # both samplers draw the angles at a record time after the step's
        # radial draws, so a last record at T follows every other draw
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 300)
        m = CircleInPlane(1.0)
        kw = dict(eps=0.2, theta0=0.0, T=0.1, dt=0.002, n_paths=700, seed=3,
                  guided=guided)
        a = stochastic.sample_conditioned(m, t_record=[0.02, 0.05], **kw)
        b = stochastic.sample_conditioned(m, t_record=[0.02, 0.05, 0.1], **kw)
        assert len(a.log_weight) > 0
        assert np.array_equal(a.theta, b.theta[:, :2])
        assert np.array_equal(a.log_weight, b.log_weight)
        assert np.array_equal(a.survival_steps, b.survival_steps)

    def test_estimator_guards(self, feasible_ensemble, monkeypatch):
        with pytest.raises(ValueError):
            stochastic.marginal_estimate(feasible_ensemble, np.cos, 0.033)
        monkeypatch.setattr(stochastic, "MIN_ESS", 1e9)
        with pytest.raises(LowEffectiveSampleSize):
            stochastic.marginal_estimate(feasible_ensemble, np.cos, 0.05)

    def test_no_survivors_degenerate(self):
        # one path over many steps in a thin tube dies almost surely
        eps = 0.1
        ens = stochastic.sample_conditioned(
            CircleInPlane(1.0), eps, 0.0, 0.1, eps**2 / 10, 1, 3, guided=False
        )
        if ens.survival_fraction() == 0.0:
            with pytest.raises(DegenerateConditioning):
                stochastic.marginal_estimate(ens, np.cos, 0.1)

    def test_dead_block_stops_stepping(self, monkeypatch):
        # survival to t = 0.5 is about exp(-pi^2 t / (8 eps^2)) ~ 1e-27, so every
        # block dies early, leaves no rows, and nothing depends on how long the
        # horizon runs past the last death
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 200)
        m = CircleInPlane(1.0)
        eps = 0.1
        kw = dict(eps=eps, theta0=0.0, dt=eps**2 / 10, n_paths=600, seed=5,
                  guided=False)
        long = stochastic.sample_conditioned(m, T=1.0, t_record=[0.5, 1.0], **kw)
        short = stochastic.sample_conditioned(m, T=0.5, t_record=[0.5], **kw)
        assert long.survival_fraction() == 0.0 and long.n_paths == 600
        assert long.theta.shape == (0, 2) and short.theta.shape == (0, 1)
        n_short = len(short.survival_steps)
        assert np.array_equal(long.survival_steps[:n_short], short.survival_steps)
        assert not long.survival_steps[n_short:].any()
        # a block draws one normal and one uniform per step up to the step of
        # its last death, and no more, plus one normal for the angles at each
        # record step after 0 that still has live paths: here step 3, not
        # step 0 and not the horizon
        n_steps = round(1.0 / kw["dt"])
        alive = np.zeros(n_steps + 1)
        rng = CountingRng(np.random.Generator(np.random.SFC64(5)))
        theta, _ = stochastic._killed_block(
            rng, 1.0, eps, 0.0, kw["dt"], np.array([0, 3, n_steps]), 200, alive
        )
        last_death = np.flatnonzero(alive)[-1] + 1
        assert theta.shape == (0, 3) and 3 < last_death < n_steps // 2
        assert rng.calls == 2 * last_death + 1


class CountingRng:
    """A generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def killed_reference(R, eps, theta0, T, dt, n_paths, seed, t_record, block_size):
    """The killed sampler as a plain masked radial stepper.  order[i] is the
    block index of row i and rows [0, n) are live: each step draws one normal
    and one uniform for order[:n] in row order, then the survivors in rows
    [k, n) trade places with the dead in rows [0, k); a record step after 0
    then draws one normal per survivor for its angle, from the trapezoid
    integral of r^-2 since the last record.  A dead path stops where it died,
    so its records keep that radius and angle.  The wall products keep their
    clips at 0, which the sampler does without."""
    n_steps = round(T / dt)
    rec = np.round(np.asarray(t_record) / dt).astype(int)
    theta = np.empty((n_paths, len(rec)))
    rad = np.empty((n_paths, len(rec)))
    alive_rec = np.empty((n_paths, len(rec)), dtype=bool)
    logw = np.empty(n_paths)
    count = np.zeros(n_steps + 1)
    c = -2.0 / dt
    for lo in range(0, n_paths, block_size):
        m = min(block_size, n_paths - lo)
        rows = slice(lo, lo + m)
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence([seed, lo // block_size]))
        )
        rho = np.zeros(m)   # r - R
        angle = np.full(m, theta0)
        alive = np.ones(m, dtype=bool)
        # the sum of r^-2 over the steps since the last record, with half
        # weight at the record's own step
        q = np.full(m, 0.5 / (R * R))
        order = np.arange(m)
        n = m
        for step in range(n_steps + 1):
            if step > 0:
                live = order[:n]
                old = rho[live]
                rho[live] = old + rng.standard_normal(n) * math.sqrt(dt)
                new = rho[live]
                # minus the probability that the bridge misses each wall
                miss_up = np.expm1(c * (np.maximum(eps - old, 0.0)
                                        * np.maximum(eps - new, 0.0)))
                miss_dn = np.expm1(c * (np.maximum(old + eps, 0.0)
                                        * np.maximum(new + eps, 0.0)))
                keep = rng.random(n) < miss_up * miss_dn
                alive[live[~keep]] = False
                n = int(np.count_nonzero(keep))
                holes = np.flatnonzero(~keep[:n])
                movers = n + np.flatnonzero(keep[n:])
                order[holes], order[movers] = order[movers], order[holes]
                live = order[:n]
                f = 1.0 / (rho[live] + R) ** 2
                q[live] += f
                if n and (rec == step).any():
                    sd = np.sqrt((q[live] - 0.5 * f) * dt)
                    angle[live] += rng.standard_normal(n) * sd
                    q[live] = 0.5 * f
            count[step] += np.count_nonzero(alive)
            for k in np.flatnonzero(rec == step):
                theta[rows, k] = np.remainder(angle + math.pi, 2.0 * math.pi) - math.pi
                rad[rows, k] = R + rho
                alive_rec[rows, k] = alive
        logw[rows] = 0.5 * np.log1p(rho / R)
    return dict(
        theta=theta, r=rad, alive=alive_rec, survived=alive_rec[:, rec == n_steps][:, 0],
        log_weight=logw, survival_steps=count / n_paths,
    )


class TestKilledReference:
    # 650 paths in blocks of 200, the last one short.  eps = 0.2 to T = 0.05
    # keeps survivors in every block; eps = 0.1 to T = 0.5, where survival is
    # about exp(-pi^2 T / (8 eps^2)) ~ 1e-27, has every block die out before
    # T: t = 0.02 is recorded while part of each block lives, t = 0.3 and 0.5
    # after every path died.
    SURVIVORS = dict(eps=0.2, theta0=0.4, T=0.05, dt=0.002, n_paths=650, seed=11,
                     t_record=[0.0, 0.02, 0.05])
    ALL_DIE = dict(eps=0.1, theta0=0.4, T=0.5, dt=0.001, n_paths=650, seed=11,
                   t_record=[0.0, 0.02, 0.3, 0.5])

    def test_matches_full_array_stepper(self, monkeypatch):
        # the sampler's rows are the reference's survivors, in path order
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 200)
        kw = self.SURVIVORS
        ens = stochastic.sample_conditioned(CircleInPlane(1.0), guided=False, **kw)
        want = killed_reference(1.0, block_size=200, **kw)
        s = want["survived"]
        for name in ("theta", "log_weight"):
            assert np.array_equal(getattr(ens, name), want[name][s]), name
        # the survivors lie inside the tube at every record time
        assert np.all(np.abs(want["r"][s] - 1.0) < kw["eps"])
        assert np.array_equal(ens.survival_steps, want["survival_steps"])
        # survivors in every block, and deaths in every block
        blocks = np.arange(kw["n_paths"]) // 200
        assert np.all(np.bincount(blocks[s]) > 0)
        assert np.all(np.bincount(blocks[~s]) > 0)

    def test_all_die_matches_full_array_stepper(self, monkeypatch):
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 200)
        kw = self.ALL_DIE
        ens = stochastic.sample_conditioned(CircleInPlane(1.0), guided=False, **kw)
        want = killed_reference(1.0, block_size=200, **kw)
        assert np.array_equal(ens.survival_steps, want["survival_steps"])
        assert ens.theta.shape == (0, 4) and ens.log_weight.shape == (0,)
        assert ens.n_paths == kw["n_paths"]
        # deaths before the first record after 0, none alive at T
        assert 0 < want["alive"][:, 1].sum() < kw["n_paths"]
        assert not want["alive"][:, 2:].any()
        assert ens.survival_steps[-1] == 0.0
        # some paths died by landing outside the tube, where the sampler's
        # unclipped wall products are negative and the reference's are 0
        assert (np.abs(want["r"][:, -1] - 1.0) >= kw["eps"]).any()


class TestBlockParallelism:
    # 650 paths in blocks of 200: four blocks, the last one short; five
    # workers are more than the blocks
    KW = dict(eps=0.2, theta0=0.0, T=0.05, dt=0.002, n_paths=650, seed=7,
              t_record=[0.02, 0.05])

    @pytest.mark.parametrize("guided", [False, True])
    def test_worker_count_invariance(self, guided, monkeypatch):
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 200)
        m = CircleInPlane(1.0)
        # a short switch interval interleaves the block threads finely, so
        # the short last block tends to finish first; summing the survival
        # parts in completion order instead of block order then changes bits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [
                stochastic.sample_conditioned(m, guided=guided, workers=w, **self.KW)
                for w in (1, 2, 5)
            ]
        finally:
            sys.setswitchinterval(interval)
        for ens in runs[1:]:
            for name in ("theta", "log_weight", "survival_steps"):
                assert np.array_equal(getattr(ens, name), getattr(runs[0], name)), name

    def test_pool_capped_at_block_count(self, monkeypatch):
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(stochastic, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 200)
        m = CircleInPlane(1.0)
        stochastic.sample_conditioned(m, workers=10**6, **self.KW)
        stochastic.sample_conditioned(m, workers=3, **self.KW)
        assert sizes == [4, 3]
        assert stochastic.pool_size(650, 10**6) == 4


class TestCrossValidation:
    def test_mc_matches_operator_route(self, feasible_ensemble, circle_grid,
                                       circle_spectrum):
        # the central cross-check: path estimator vs the two-sided heat-flow
        # ratio at the same tube radius (small dt-bias allowance)
        est = stochastic.marginal_estimate(feasible_ensemble, np.cos, 0.05)
        (op,), _ = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 0.1, [0.05], np.cos(circle_grid.base_x)
        )
        assert abs(est.value - op[0]) < 3.0 * est.std_error + 2e-3



class TestGuidedSampler:
    def test_paths_stay_inside_with_finite_weights(self, guided_ensemble):
        # containment: test_implicit_step_stays_inside
        ens = guided_ensemble
        assert len(ens.log_weight) == ens.n_paths
        assert np.all(np.isfinite(ens.log_weight))
        assert np.all(np.isfinite(ens.survival_steps))

    def test_matches_killed_sampler(self, guided_ensemble, feasible_ensemble):
        # two samplers of one conditioned law (same dt-bias allowance as
        # the operator cross-check), one survival curve, and one normalizing
        # constant: guided weights are likelihood ratios to the killed law
        g = stochastic.marginal_estimate(guided_ensemble, np.cos, 0.05)
        k = stochastic.marginal_estimate(feasible_ensemble, np.cos, 0.05)
        assert abs(g.value - k.value) < 3.0 * math.hypot(g.std_error, k.std_error) + 2e-3
        p = feasible_ensemble.survival_fraction()
        se = math.sqrt(p * (1.0 - p) / feasible_ensemble.n_paths)
        assert abs(guided_ensemble.survival_fraction() - p) < 3.0 * se
        wg = np.exp(guided_ensemble.log_weight)
        # the killed law's weight is 0 on each of the n_paths - rows dead paths
        wk = np.exp(feasible_ensemble.log_weight)
        wk = np.concatenate([wk, np.zeros(feasible_ensemble.n_paths - len(wk))])
        se = math.hypot(np.std(wg), np.std(wk)) / math.sqrt(len(wk))
        assert abs(np.mean(wg) - np.mean(wk)) < 3.0 * se

    def test_matches_operator_route(self, guided_ensemble, circle_grid,
                                    circle_spectrum):
        times = (0.05, 0.1)
        op, _ = semigroup.conditional_flow_operator(
            circle_grid, circle_spectrum, 0.2, 0.1, times, np.cos(circle_grid.base_x)
        )
        for t, row in zip(times, op):
            est = stochastic.marginal_estimate(guided_ensemble, np.cos, t)
            assert abs(est.value - row[0]) < 3.0 * est.std_error + 2e-3

    def test_deterministic_per_block(self, monkeypatch):
        # TestSampler.test_deterministic_in_seed covers reruns of the default
        # (guided) sampler; here each block's paths depend on (seed, block)
        # only, not on how many blocks follow, for either sampler
        monkeypatch.setattr(stochastic, "BLOCK_SIZE", 1000)
        m = CircleInPlane(1.0)
        for guided in (True, False):
            kw = dict(eps=0.2, theta0=0.0, T=0.05, dt=0.002, seed=7,
                      t_record=[0.02, 0.05], guided=guided)
            a = stochastic.sample_conditioned(m, n_paths=2000, **kw)
            b = stochastic.sample_conditioned(m, n_paths=2500, **kw)
            # rows are in path order, so the first blocks' rows lead
            n = len(a.log_weight)
            assert 0 < n < len(b.log_weight)
            assert np.array_equal(a.theta, b.theta[:n])
            assert np.array_equal(a.log_weight, b.log_weight[:n])
            again = stochastic.sample_conditioned(m, n_paths=2500, **kw)
            assert np.array_equal(b.survival_steps, again.survival_steps)

    def test_implicit_step_stays_inside(self):
        # rho_new = c - a w lies strictly inside (-1, 1), for draws far past
        # any a step makes (c = rho + sigma z, sigma = sqrt(2 a / pi)), for
        # a across the range the sampler's dt allows (0 < a <= pi / 20) and
        # past it.  c - a w carries an error of about u |c|, so
        # the bound holds while |c|^2 / a stays well below 2 / (pi u).
        c = np.array([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 2.0, 1e3, 1e6])
        c = np.concatenate([c, -c])
        for a in (1e-3, math.pi / 40, math.pi / 20, 10.0):
            w = stochastic._implicit_tan_root(c, a)
            assert np.all(np.abs(c - a * w) < 1.0), a
            assert np.all(np.sign(w) == np.sign(c)), a

    def test_tube_reaching_the_centre_rejected(self):
        # both samplers step the radius, which must stay positive
        m = CircleInPlane(1.0)
        for eps, guided in itertools.product((1.0, 1.5), (False, True)):
            with pytest.raises(FocalRadiusExceeded):
                stochastic.sample_conditioned(m, eps, 0.0, 0.1, 0.01, 100, 1,
                                              guided=guided)


class TestOracles:
    def test_heat_oracle_values(self):
        assert stochastic.circle_heat_oracle(1.0, 0.3, 2.0, [1.0]) == 1.0
        assert stochastic.circle_heat_oracle(1.0, 0.0, 1.0, [0.0, 1.0]) == pytest.approx(
            math.exp(-0.5), abs=1e-15
        )

    def test_heat_oracle_vs_base_propagator(self, circle_grid):
        prop = semigroup.Propagator(discretize.base_form(circle_grid, 0.0), circle_grid.base_w)
        f = np.cos(circle_grid.base_x)
        t = 0.5
        got = prop.apply(t, f)
        want = np.array(
            [stochastic.circle_heat_oracle(1.0, x, t, [0.0, 1.0])
             for x in circle_grid.base_x]
        )
        # discrete symbol deficit of the 64-node circle is ~ h^2/12
        assert np.max(np.abs(got - want)) < 5e-4
