"""Brownian motion conditioned to stay in a flat tube around the circle.

The target law: ambient planar Brownian motion X (variance t per coordinate)
started on the circle of radius R, killed on leaving the tube |r - R| < eps
and weighted by the Feynman-Kac factor exp(1/2 integral U ds), U = -1/(4 r^2).
The marginal estimator is self-normalized over the ensemble, so the
conditioned marginal E[f(theta_t)] is the ratio of two weighted sums.  Two
samplers represent this law.

Killed sampler (guided=False).  Paths are planar Brownian motion.  A survival
flag imposes the tube, with a Brownian-bridge exit correction in the radial
coordinate, and the log-weight is the trapezoid integral of U/2.  Survival
to T decays like exp(-pi^2 T / (8 eps^2)): about 4e-14 at T = 1, eps = 0.2,
where no ensemble of practical size keeps a path.  Each step draws for the
live paths only, in the order of their rows in the block: dx, dy, then one
uniform that decides survival at both walls at once (see _killed_block).
A dead path stops there and leaves no record: the estimator reads only the
paths that survive to T, so the ensemble holds the survivors alone, in
ascending path order, and its memory scales with the survivors, not with
n_paths.

Guided sampler (the default).  Doob's h-transform (Pinsky,
Positive Harmonic Functions and Diffusion, 1995) with

    h(r) = r^(-1/2) cos(pi (r - R) / (2 eps)),   k = pi / (2 eps).

Since Delta(r^(-1/2) g) = r^(-1/2) (g'' + g / (4 r^2)) for a radial g,
(1/2 Delta + 1/2 U) h = -(k^2 / 2) h exactly: the Feynman-Kac potential of the
killed law is what makes h an eigenfunction.  Under the h-transformed law Q
the drift grad log h is radial, so

    dr     = -k tan(k (r - R)) dt + dB_r   (the 1/(2r) drift of BM cancels),
    dtheta = dB_theta / r                  (unchanged),

and r never reaches the wall.  On the event of survival the likelihood ratio
of the killed, weighted law to Q over [0, T] is

    exp(-k^2 T / 2) h(X_0) / h(X_T),

which is the guided log_weight.  Every path survives; the weights
depend on the endpoint only and are nearly constant, so the effective sample
size stays near N at any horizon.  The same identity at each step gives
survival_steps, the weighted estimate of the killed process's survival
probability exp(-k^2 t / 2) h(x0) E_Q[exp(integral ds / (8 r^2)) / h(X_t)].

Radial stepping is drift-implicit Euler (Neuenkirch and Szpruch, Numer. Math.
2014) in rho = (r - R) / eps.  With w = tan(pi rho_new / 2) and
a = pi dt / (2 eps^2) the step is

    (2/pi) arctan w + a w = c,   c = rho + dB / eps,

whose left side is odd, strictly increasing and concave for w >= 0.  Newton's
method on |c| from the lower bound max(|c| / (2/pi + a), (|c| - 1) / a) rises
monotonically to the unique root, so rho_new = (2/pi) arctan w lies strictly
inside (-1, 1) for every draw.  log h is evaluated as
-1/2 log(r (1 + w^2)), which stays accurate next to the wall.

Given the radial path the angle is Gaussian, theta_t - theta_s ~
N(0, integral_s^t r^-2 du) exactly; it is drawn only at record times, with a
trapezoid integral of r^-2 along the radial steps.  The guided sampler draws
one normal per path per step plus one per path per record time.

Randomness.  Paths are processed in fixed-size blocks, and block b draws
from its own stream: an SFC64 generator seeded by SeedSequence([seed, b]),
which hashes the pair into the generator's state.  A block's stream is a
function of (seed, b) alone, not of the other blocks or of the thread that
runs it.

Block parallelism.  The blocks, of BLOCK_SIZE paths, run on a pool of
min(workers, n_blocks) threads; a pool of one is the calling thread.  numpy
releases the interpreter lock inside the draws and the elementwise ufuncs,
so the threads overlap; the per-call overhead is held under the lock, so a
block must be large enough (32768 paths; the killed sampler's live arrays
shrink as paths die) for the work outside it to dominate.  A block reads
only its own stream and returns its own rows, in path order, and its own
survival part, a row of length n_steps + 1.  The rows are concatenated and
the parts added into the survival curve in block order b = 0, 1, ..., the
same floating-point sums in the same order as one thread running the blocks
one after another.  Which thread runs a block, and when, changes no bit of
the result, so every result is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConditioning,
    EmptyEnsemble,
    FocalRadiusExceeded,
    LowEffectiveSampleSize,
    StepSizeError,
)
from .geometry import CircleInPlane

BLOCK_SIZE = 32768
MIN_ESS = 50.0
NEWTON_MAX_ITER = 50


@dataclass
class PathEnsemble:
    radius: float
    eps: float
    T: float
    dt: float
    # the requested record times on the step grid: any nonempty set of
    # finite times in [0, T], [T] by default
    t_record: np.ndarray
    n_paths: int             # paths sampled
    # one row per path inside the tube over the whole horizon, in ascending
    # path order: every guided path, the killed sampler's survivors only
    theta: np.ndarray        # (rows, n_record) angle at record times
    log_weight: np.ndarray   # (rows,) log-weight over [0, T]
    survival_steps: np.ndarray  # killed-process survival after each step
    seed: int

    def survival_fraction(self):
        return float(self.survival_steps[-1])


def sample_conditioned(
    model, eps, theta0, T, dt, n_paths, seed, t_record=None, guided=True, workers=1,
):
    """Sample an ensemble for the conditioned law; see the module docstring.

    t_record is any nonempty set of finite times in [0, T], [T] by default;
    each is snapped to the nearest step.
    The guided sampler runs unless guided=False selects the killed one,
    whose ensemble keeps only the paths that survive to T.  The path blocks
    run on min(workers, n_blocks) threads; the result does not depend on
    workers."""
    if not isinstance(model, CircleInPlane):
        raise NotImplementedError(
            "path sampling ships for the circle model only (space curves would "
            "need closest-point projection machinery)"
        )
    if n_paths < 1:
        raise EmptyEnsemble("n_paths must be at least 1")
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    if dt > eps**2 / 10.0 + 1e-15:
        raise StepSizeError(f"dt={dt} too coarse for the fiber scale eps^2/10")
    R = model.radius
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise StepSizeError("T must be a whole number of steps")
    t_record = np.array([T]) if t_record is None else np.asarray(t_record, dtype=float)
    if not (t_record.size and np.all((t_record >= 0) & (t_record <= T))):
        raise ValueError(f"t_record must be nonempty times in [0, T] = [0, {T}]")
    rec_steps = np.round(t_record / dt).astype(int)
    if guided and eps >= R:
        raise FocalRadiusExceeded(
            f"eps={eps} reaches the centre of the circle of radius {R}: "
            "the guiding function is undefined"
        )
    block = _guided_block if guided else _killed_block

    def run_block(b):
        m = min(BLOCK_SIZE, n_paths - b * BLOCK_SIZE)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, b])))
        part = np.zeros(n_steps + 1)
        return block(rng, R, eps, theta0, dt, rec_steps, m, part), part

    blocks = range(block_count(n_paths))
    n_threads = pool_size(n_paths, workers)
    rows, survival = [], np.zeros(n_steps + 1)
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        # map yields in block order, whatever order the blocks finish in; a
        # pool of one is the calling thread, whose blocks then allocate from
        # the memory the process already holds, not a fresh thread arena
        results = pool.map(run_block, blocks) if n_threads > 1 else map(run_block, blocks)
        for block_rows, part in results:
            rows.append(block_rows)
            survival += part
    theta, logw = (np.concatenate(parts) for parts in zip(*rows))
    return PathEnsemble(
        R,
        float(eps),
        n_steps * dt,
        float(dt),
        rec_steps * dt,
        int(n_paths),
        theta,
        logw,
        survival / n_paths,
        int(seed),
    )


def block_count(n_paths):
    """Blocks of BLOCK_SIZE paths sample_conditioned splits n_paths into."""
    return (n_paths + BLOCK_SIZE - 1) // BLOCK_SIZE


def pool_size(n_paths, workers):
    """Threads sample_conditioned runs its blocks on: one per block at most."""
    return min(workers, block_count(n_paths))


def _killed_block(rng, R, eps, theta0, dt, rec_steps, m, alive_count):
    """Killed, weighted planar Brownian paths of one block of m paths;
    alive_count[step] gains the block's survivors.  Returns the survivors'
    (theta, log_weight) in ascending path order.

    Each step draws for the n live paths only: n normals dx, n normals dy,
    then n uniforms, draw i going to live row i.  A path's state is its
    position, its radius at the previous step, its integral q of r^-2 and
    its block index, one row of buffers allocated once.  Rows [0, n) hold
    the live paths.  After a step that leaves k < n survivors, the
    survivors in rows [k, n) move into the holes the dead left in rows
    [0, k), so the work is per death and the live rows are in no fixed
    block order.  A dead path's state is never read again.  Record times
    write the live rows only, at their block index, so the records of the
    paths that survive to T are complete and no dead path's are read.  The
    steps end at the block's last death.

    One uniform u covers both walls: the path survives the step when

        u < expm1(-2 g_up b_up / dt) * expm1(-2 g_dn b_dn / dt),

    the probability (1 - p_up)(1 - p_dn) that the Brownian bridge between
    the two radii touched neither wall, with g and b the distances to the
    wall before and after the step.  A live path has g > 0 at both walls;
    one that lands outside the tube has b <= 0 at the wall it crossed and
    b > 0 at the other, so the product is <= 0 and the test, which needs
    no clip at the walls, holds the inside check too."""
    n_steps = len(alive_count) - 1
    x = np.full(m, R * math.cos(theta0))
    y = np.full(m, R * math.sin(theta0))
    r_prev = np.sqrt(x * x + y * y)
    q = np.zeros(m)
    idx = np.arange(m)
    r = np.empty(m)
    z = np.empty(m)   # the draws, then scratch
    t1, t2 = np.empty(m), np.empty(m)
    keep = np.empty(m, dtype=bool)
    theta = np.empty((m, len(rec_steps)))

    def record(step, n):
        for k in np.flatnonzero(rec_steps == step):
            theta[idx[:n], k] = np.arctan2(y[:n], x[:n])

    record(0, m)
    alive_count[0] += m
    n = m
    sdt = math.sqrt(dt)
    c = -2.0 / dt
    half_dt = 0.5 * dt
    for step in range(1, n_steps + 1):
        xs, ys, rp, qs, rs, zs = x[:n], y[:n], r_prev[:n], q[:n], r[:n], z[:n]
        a, b, ks = t1[:n], t2[:n], keep[:n]
        for coord in (xs, ys):
            rng.standard_normal(out=zs)
            zs *= sdt
            coord += zs
        np.multiply(xs, xs, out=rs)
        np.multiply(ys, ys, out=zs)
        rs += zs
        np.sqrt(rs, out=rs)
        # trapezoid step of the integral of r^-2
        np.multiply(rp, rp, out=a)
        np.divide(1.0, a, out=a)
        np.multiply(rs, rs, out=b)
        np.divide(1.0, b, out=b)
        a += b
        a *= half_dt
        qs += a
        # the survival probability of the step, wall by wall; rp turns
        # into the distance before the step, d_old, and is rewritten below
        np.subtract(rs, R, out=a)           # d_new
        rp -= R
        np.subtract(eps, a, out=b)
        np.subtract(eps, rp, out=zs)
        b *= zs
        b *= c
        np.expm1(b, out=b)                  # -(1 - p_up)
        a += eps
        rp += eps
        a *= rp
        a *= c
        np.expm1(a, out=a)                  # -(1 - p_dn)
        a *= b
        rng.random(out=zs)
        np.less(zs, a, out=ks)
        rp[:] = rs
        k = int(np.count_nonzero(ks))
        if k < n:
            # the survivors in rows [k, n) fill the holes of the dead in [0, k)
            holes = np.flatnonzero(~ks[:k])
            movers = k + np.flatnonzero(ks[k:])
            for buf in (x, y, q, r_prev, idx):
                buf[holes] = buf[movers]
            n = k
        alive_count[step] += n
        record(step, n)
        if n == 0:
            break
    order = np.argsort(idx[:n])
    rows = idx[order]
    return theta[rows], -0.125 * q[order]


def _guided_block(rng, R, eps, theta0, dt, rec_steps, m, survival):
    """h-transformed paths of one block of m paths; survival[step] gains
    the block's sum of survival weights.  Returns every path's
    (theta, log_weight) in path order."""
    n_steps = len(survival) - 1
    half_k2 = 0.5 * (math.pi / (2.0 * eps)) ** 2
    a = math.pi * dt / (2.0 * eps**2)
    sigma = math.sqrt(dt) / eps
    log_h0 = -0.5 * math.log(R)
    rho = np.zeros(m)
    angle = np.full(m, float(theta0))
    inv_r2 = np.full(m, 1.0 / (R * R))
    q_total = np.zeros(m)   # integral of r^-2 over [0, t]
    q_rec = np.zeros(m)     # integral of r^-2 since the last record time
    theta = np.empty((m, len(rec_steps)))

    def record(step):
        for k in np.where(rec_steps == step)[0]:
            angle[:] += np.sqrt(q_rec) * rng.standard_normal(m)
            q_rec[:] = 0.0
            theta[:, k] = np.remainder(angle + math.pi, 2.0 * math.pi) - math.pi

    survival[0] += m
    record(0)
    for step in range(1, n_steps + 1):
        c = rho + sigma * rng.standard_normal(m)
        w = _implicit_tan_root(c, a)
        rho = c - a * w   # = (2/pi) arctan w at the root
        r = R + eps * rho
        inv_old, inv_r2 = inv_r2, 1.0 / (r * r)
        dq = 0.5 * dt * (inv_old + inv_r2)
        q_total += dq
        q_rec += dq
        log_h = -0.5 * np.log(r * (1.0 + w * w))
        shift = log_h0 - half_k2 * step * dt
        survival[step] += float(np.sum(np.exp(shift + 0.125 * q_total - log_h)))
        record(step)
    return theta, log_h0 - half_k2 * n_steps * dt - log_h


def _implicit_tan_root(c, a):
    """The root w of (2/pi) arctan w + a w = c, elementwise, for a > 0.

    The left side is odd, strictly increasing and concave for w >= 0, so
    Newton's method on |c| started at a lower bound of the root rises
    monotonically to it."""
    s = np.abs(c)
    two_pi = 2.0 / math.pi
    w = np.maximum(s / (two_pi + a), (s - 1.0) / a)
    for _ in range(NEWTON_MAX_ITER):
        step = (s - two_pi * np.arctan(w) - a * w) / (two_pi / (1.0 + w * w) + a)
        w += step
        # the error left after a step d is below d^2 / 2 here
        if step.max() <= 1e-7:
            return np.copysign(w, c)
    raise ArithmeticError("implicit radial step did not converge")


@dataclass
class MarginalEstimate:
    value: float
    std_error: float
    ess: float
    n_survived: int


def marginal_estimate(ensemble, f, t):
    """Self-normalized estimate of the conditioned marginal E[f(theta_t)].

    The ratio of weighted sums runs over the ensemble's rows, the survivors,
    centred on the first survivor's value c0: c0 + sum(b (f - c0)) / sum(b).
    Standard error by the delta method for that ratio.  Raises
    LowEffectiveSampleSize when the effective sample size is below MIN_ESS."""
    k = int(np.argmin(np.abs(ensemble.t_record - t)))
    if abs(ensemble.t_record[k] - t) > 1e-9 * max(t, 1.0):
        raise ValueError(f"time {t} was not recorded")
    lw = ensemble.log_weight
    if len(lw) == 0:
        raise DegenerateConditioning("no path survived the horizon")
    b = np.exp(lw - np.max(lw))
    vals = np.asarray(f(ensemble.theta[:, k]), dtype=float)
    # centred on the first survivor's value, so a constant f is exact
    c0 = vals[0]
    dev = vals - c0
    bsum = float(np.sum(b))
    mean = float(np.sum(b * dev)) / bsum
    resid = b * (dev - mean)
    se = math.sqrt(float(np.sum(resid**2))) / bsum
    ess = bsum**2 / float(np.sum(b**2))
    if ess < MIN_ESS:
        raise LowEffectiveSampleSize(f"effective sample size {ess:.1f} below {MIN_ESS}")
    return MarginalEstimate(c0 + mean, se, ess, len(lw))


def circle_heat_oracle(radius, theta0, t, cos_coeffs):
    """Exact heat semigroup on the circle for a cosine polynomial.

    f(theta) = sum_n a_n cos(n theta); each mode decays as
    exp(-n^2 t / (2 R^2)) under the generator Delta/2."""
    a = np.asarray(cos_coeffs, dtype=float)
    n = np.arange(len(a))
    decay = np.exp(-(n**2) * t / (2.0 * radius**2))
    return float(np.sum(decay * (a * np.cos(n * theta0))))

