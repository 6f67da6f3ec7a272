"""Shared oracles and instance builders for the test suite.

The oracles are coded independently of the library internals: brute-force
quadrature, series expansions, golden-section minimization, tensor-grid
integration, the tau -> infinity limit of log Z in plain numpy
(zero_temp_log_z) and a log Z at any p by thermodynamic integration over
run_gibbs chains (ti_log_z).  Tests compare the fast library routines
against these.

Three references are not oracles: each is a plainer form of one library
loop and reads its private names.  gibbs_reference is the sampler's plain
loop over its two envelopes (gibbs._T), against which run_gibbs's flat loop
is held bit for bit.  marginal_plain_walk is marginal_sp's walk without its
tangent predictor or factor reuse (saddle._saddle_cd, partition._core),
against which marginal_sp's curves are held within 1e-6 of the peak.
cv_fold_by_fold is cross_validate with one tau_path per fold, its ML fits a
plain chain of solve_ml calls down each fold's mus (hyper._screen), against
which cross_validate's stacked ML path and its one stacked tau_path are held
bit for bit.
"""

import dataclasses
import math

import numpy as np
from scipy import integrate

import bayonet as bn
from bayonet.gibbs import _T


# ---------------------------------------------------------------------------
# quadrature oracle for the one-dimensional partition integral


def _side_limit(c, drift, tau):
    # Upper integration limit for one half-line of exp(-tau*(c x^2 + drift*x)).
    # The integrand peaks at max(0, -drift/(2c)); beyond the peak it decays on
    # the Gaussian scale 1/sqrt(tau c), or faster when drift > 0.
    mode = max(0.0, -drift / (2.0 * c))
    gauss = 15.0 / math.sqrt(tau * c)
    if drift > 0:
        return mode + min(gauss, 50.0 / (tau * drift))
    return mode + gauss


def quad_log_z(c, w, mu, tau):
    """Adaptive quadrature of log integral exp(-tau*(c x^2 - 2 w x + 2 mu |x|)).

    Split at the kink.  Each half-line is rescaled by its peak value so the
    integrator works with O(1) numbers; the log of the scale is added back.
    """

    def half(sign):
        # x = sign * t, t >= 0: exponent -tau*(c t^2 + drift t)
        drift = 2.0 * (mu - sign * w)
        hi = _side_limit(c, drift, tau)
        tpk = max(0.0, -drift / (2.0 * c))
        lpk = -tau * (c * tpk * tpk + drift * tpk)

        def f(t):
            return math.exp(-tau * (c * t * t + drift * t) - lpk)

        val, _ = integrate.quad(f, 0.0, hi, epsabs=1e-300, epsrel=1e-13, limit=400)
        return lpk, val

    lp, vp = half(+1.0)
    lm, vm = half(-1.0)
    return np.logaddexp(lp + math.log(vp), lm + math.log(vm))


def quad_density(c, w, mu, tau, xs):
    """Quadrature-normalized posterior density evaluated at the points xs."""
    lz = quad_log_z(c, w, mu, tau)
    xs = np.asarray(xs, dtype=float)
    return np.exp(-tau * (c * xs * xs - 2 * w * xs + 2 * mu * np.abs(xs)) - lz)


# ---------------------------------------------------------------------------
# tensor-grid oracle for two-dimensional problems


def _axis(lo, hi, m):
    # grid with a node exactly at 0 so the |x| kink sits on a breakpoint
    if lo < 0.0 < hi:
        return np.concatenate([np.linspace(lo, 0.0, m)[:-1], np.linspace(0.0, hi, m)])
    return np.linspace(lo, hi, 2 * m - 1)


def grid_2d(cmat, w, mu, tau, half_widths=None, centers=None, m=900):
    """Tensor grid and log weights for integral exp(-tau H) over R^2.

    Returns (x_axis, y_axis, log_integrand) where the integrand already
    includes trapezoid weights, so logsumexp over the array gives log Z.
    """
    cmat = np.asarray(cmat, dtype=float)
    w = np.asarray(w, dtype=float)
    if centers is None or half_widths is None:
        prob = bn.PenalizedProblem(c=cmat, w=w, mu=mu, lam=0.0, tau=tau)
        sad = bn.solve_saddle(prob, np.zeros(2), tol=1e-12)
        sds = bn.posterior_sd(prob, sad)
        centers = sad.x_tau if centers is None else centers
        half_widths = 10.0 * sds + mu / (tau * mu * mu) if half_widths is None else half_widths
    xs = _axis(centers[0] - half_widths[0], centers[0] + half_widths[0], m)
    ys = _axis(centers[1] - half_widths[1], centers[1] + half_widths[1], m)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    H = (
        cmat[0, 0] * X * X
        + 2 * cmat[0, 1] * X * Y
        + cmat[1, 1] * Y * Y
        - 2 * (w[0] * X + w[1] * Y)
        + 2 * mu * (np.abs(X) + np.abs(Y))
    )

    def trap_w(axis):
        d = np.diff(axis)
        out = np.zeros(len(axis))
        out[:-1] += d / 2
        out[1:] += d / 2
        return out

    lw = np.log(trap_w(xs))[:, None] + np.log(trap_w(ys))[None, :]
    return xs, ys, -tau * H + lw


def logsumexp2(a):
    amax = a.max()
    return amax + math.log(np.exp(a - amax).sum())


def grid_log_z_2d(cmat, w, mu, tau, m=900):
    _, _, la = grid_2d(cmat, w, mu, tau, m=m)
    return logsumexp2(la)


def grid_moments_2d(cmat, w, mu, tau, m=900):
    """Posterior mean vector and covariance matrix by tensor quadrature."""
    xs, ys, la = grid_2d(cmat, w, mu, tau, m=m)
    pz = np.exp(la - la.max())
    pz /= pz.sum()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    mx = (pz * X).sum()
    my = (pz * Y).sum()
    cov = np.array(
        [
            [(pz * (X - mx) ** 2).sum(), (pz * (X - mx) * (Y - my)).sum()],
            [(pz * (X - mx) * (Y - my)).sum(), (pz * (Y - my) ** 2).sum()],
        ]
    )
    return np.array([mx, my]), cov


# ---------------------------------------------------------------------------
# log Z oracles at any p


def zero_temp_log_z(problem, ml):
    """tau -> infinity limit of log Z from the converged ML solution alone.

    The active block A contributes a Gaussian integral around x_hat, whose
    exponent is tau*v'C_AA^{-1}v with v = w_A - mu*sign(u_A); each zero
    coordinate a two-sided exponential at the dual value u = w - C x_hat.
    The limit is discontinuous where a zero coordinate has |u_j| = mu, so
    a zero coordinate within 1e-8 of that point raises ValueError.
    """
    if not ml.converged:
        raise ValueError("ML solution not converged")
    c, w, mu, tau = problem.c, problem.w, problem.mu, problem.tau
    x = ml.x_hat
    u = w - c @ x
    at_edge = np.flatnonzero((np.abs(x) < 1e-8) & (mu - np.abs(u) < 1e-8))
    if at_edge.size:
        raise ValueError(
            f"coordinate {at_edge[0]} is at a transition point; "
            "the zero-temperature formula is invalid here"
        )
    act = np.array(ml.active_set, dtype=int)
    zero = np.setdiff1d(np.arange(problem.p), act)
    out = -(0.5 * act.size + zero.size) * math.log(tau) - 0.5 * act.size * math.log(2.0)
    if act.size:
        c_aa = c[np.ix_(act, act)]
        v = w[act] - mu * np.sign(u[act])
        out += tau * float(v @ np.linalg.solve(c_aa, v)) - 0.5 * np.linalg.slogdet(c_aa)[1]
    return out + float(np.sum(np.log(mu / (mu * mu - u[zero] ** 2))))


def ti_log_z(problem, nodes=16, sweeps=6000, seed=0):
    """log Z by thermodynamic integration along the off-diagonal of C;
    returns (value, SE).

    C(t) = diag(C) + t*O with O = C - diag(C) is positive definite for t in
    [0, 1].  At t = 0 log Z is the sum of the one-coordinate closed forms,
    and d log Z/dt = -tau E_t[x'Ox].  The derivative is integrated by
    Gauss-Legendre nodes in t, each expectation taken from one run_gibbs
    chain from zeros (seed + k at node k, default burn-in); the SE combines
    the chains' batch-means SEs in quadrature with the node weights.
    """
    c, w, mu, tau = problem.c, problem.w, problem.mu, problem.tau
    diag = np.diagonal(c)
    off = c - np.diag(diag)
    value = sum(
        bn.log_z_exact(bn.OneDimProblem(float(cj), float(wj), mu, tau))
        for cj, wj in zip(diag, w)
    )
    t, weights = np.polynomial.legendre.leggauss(nodes)
    var = 0.0
    for k, (tk, wk) in enumerate(zip((t + 1.0) / 2.0, weights / 2.0)):
        at_t = bn.PenalizedProblem(c=np.diag(diag) + tk * off, w=w, mu=mu, lam=0.0, tau=tau)
        x = bn.run_gibbs(at_t, np.zeros(problem.p), sweeps, seed=seed + k).samples
        slope = -tau * np.einsum("ij,jk,ik->i", x, off, x)
        value += wk * float(slope.mean())
        var += (wk * float(batch_se(slope))) ** 2
    return value, math.sqrt(var)


def grid_marginal_2d(cmat, w, mu, tau, axis, eval_grid, m=900):
    """Marginal density of one coordinate by integrating out the other."""
    xs, ys, la = grid_2d(cmat, w, mu, tau, m=m)
    amax = la.max()
    dens2 = np.exp(la - amax)
    # sum over the other coordinate; weights already folded into la
    keep, other = (xs, 1) if axis == 0 else (ys, 0)
    line = dens2.sum(axis=other)
    # line currently includes the kept axis trapezoid weight; strip it to get
    # a density, then renormalize on the evaluation grid
    d = np.diff(keep)
    tw = np.zeros(len(keep))
    tw[:-1] += d / 2
    tw[1:] += d / 2
    dens = line / tw
    vals = np.interp(eval_grid, keep, dens)
    vals /= np.trapezoid(vals, eval_grid)
    return vals


# ---------------------------------------------------------------------------
# special-function oracles


def erfc_series(x):
    """erfc via a 50-term Maclaurin series (|x| small) or a Laplace continued
    fraction (x large).  Independent of scipy.special."""
    if x < 0:
        return 2.0 - erfc_series(-x)
    if x <= 2.0:
        # erf(x) = 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1))
        s = 0.0
        term = x
        k = 0
        while k < 50:
            s += term / (2 * k + 1)
            k += 1
            term *= -x * x / k
        return 1.0 - 2.0 / math.sqrt(math.pi) * s
    # continued fraction: erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    cf = 0.0
    for k in range(120, 0, -1):
        cf = (k / 2.0) / (x + cf)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + cf)


def golden_min(f, lo, hi, iters=200):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - g * (b - a)
    x2 = a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Monte-Carlo statistics


def batch_se(samples, nbatch=100):
    """Batch-means standard error of the mean, per column."""
    samples = np.asarray(samples)
    m = (len(samples) // nbatch) * nbatch
    bm = samples[:m].reshape(nbatch, -1, *samples.shape[1:]).mean(axis=1)
    return bm.std(axis=0, ddof=1) / math.sqrt(nbatch)


def curve_cdf(grid, density):
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) * np.diff(grid) / 2.0)])
    return cdf / cdf[-1]


def ks_distance(samples, grid, density):
    """Two-sided KS statistic of samples against a tabulated density."""
    cdf = curve_cdf(grid, density)
    s = np.sort(np.asarray(samples))
    fs = np.interp(s, grid, cdf)
    m = len(s)
    ec = np.arange(1, m + 1) / m
    return max(np.abs(fs - ec).max(), np.abs(fs - (ec - 1.0 / m)).max())


# ---------------------------------------------------------------------------
# full-cycle coordinate descent for the penalized ML cost


def ml_cd_full_cycle(problem, x0, tol):
    """Cyclic coordinate descent over all p coordinates; (x, cycles, ok).

    Every cycle sweeps every coordinate with an incrementally updated
    residual, refreshed from scratch at the end of the cycle; it stops when
    no coordinate moved by tol * max(1, ||x||_inf) in a cycle.  The
    reference for the active-set solver in bayonet.mlfit.
    """
    c, w, mu, p = problem.c, problem.w, problem.mu, problem.p
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=float)
    diag = np.diagonal(c)
    r = w - c @ x
    for cycle in range(1, 100_001):
        dmax = 0.0
        for j in range(p):
            aj = r[j] + diag[j] * x[j]
            xj = math.copysign(max(abs(aj) - mu, 0.0), aj) / diag[j]
            d = xj - x[j]
            if d != 0.0:
                r -= c[:, j] * d
                x[j] = xj
                dmax = max(dmax, abs(d))
        r = w - c @ x
        if dmax < tol * max(1.0, float(np.max(np.abs(x)))):
            return x, cycle, True
    return x, 100_000, False


# ---------------------------------------------------------------------------
# the Gibbs sampler as a plain loop


def gibbs_conditional_reference(c, a, mu, tau, s, sd, rng):
    """One draw of bayonet.run_gibbs from exp(-tau*(c*x^2 - 2*a*x +
    2*mu*|x|)), by the envelope t = s*(|a| - mu) picks."""
    if s * (abs(a) - mu) >= _T:
        # propose N(sign(a)*(|a| - mu)/c, sd^2), written for a's side as
        # y >= 0; keep y < 0 with probability exp(-4*tau*mu*|y|)
        while True:
            y = (abs(a) - mu) / c + sd * rng.normal()
            if y >= 0.0 or rng.uniform() < math.exp(4.0 * tau * mu * y):
                return y if a > 0.0 else -y
    # propose the asymmetric Laplace exp(-tau*(2*mu*|x| - 2*a*x)): x >= 0
    # with probability (mu + a)/(2*mu), then an exponential magnitude
    # signed for its side; keep it with probability exp(-tau*c*x^2)
    while True:
        if rng.uniform() < (mu + a) / (2.0 * mu):
            x = -math.log1p(-rng.uniform()) / (2.0 * tau * (mu - a))
        else:
            x = math.log1p(-rng.uniform()) / (2.0 * tau * (mu + a))
        if rng.uniform() < math.exp(-tau * c * x * x):
            return x


def gibbs_reference(problem, init, sweeps, burn_in=None, thin=1, seed=0):
    """Retained samples of bayonet.run_gibbs by a plain sweep loop.

    x_j is read from the array, each partial residual is one fresh dot
    with a contiguous copy of row j of C, and each draw is
    gibbs_conditional_reference.  The reference for run_gibbs's flat loop.
    """
    if burn_in is None:
        burn_in = sweeps // 10
    x = np.array(init, dtype=float)
    c, mu, tau = problem.c, problem.mu, problem.tau
    rng = bn.RngStream(seed)
    d = np.diagonal(c)
    diag = d.tolist()
    w = problem.w.tolist()
    row_dots = [np.array(c[j]).dot for j in range(problem.p)]
    svals = np.sqrt(tau / d).tolist()
    sds = (1.0 / np.sqrt(2.0 * tau * d)).tolist()
    keep = []
    for sweep in range(1, sweeps + 1):
        for j in range(problem.p):
            xj = x.item(j)
            aj = w[j] - float(row_dots[j](x)) + diag[j] * xj
            new = gibbs_conditional_reference(diag[j], aj, mu, tau, svals[j], sds[j], rng)
            if new != xj:
                x[j] = new
        if sweep > burn_in and (sweep - burn_in) % thin == 0:
            keep.append(x.copy())
    return np.array(keep)


# ---------------------------------------------------------------------------
# instance builders


def random_standardized(seed, n, p, beta=None, noise=1.0):
    """Random standardized regression dataset with an optional planted signal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    if beta is None:
        y = rng.standard_normal(n)
    else:
        y = a @ np.asarray(beta, dtype=float) + noise * rng.standard_normal(n)
    return bn.standardize(bn.Dataset(responses=y, predictors=a))


def suppressor_dataset(seed=5, n=80):
    """Raw 3-predictor dataset whose g1 nearly copies g0 but enters y with
    the opposite sign: w_1 > 0, while the minimizer on {0, 1} with both
    signs positive has x_1 < 0 at every mu below w_1 and lam up to 0.05.  So
    the first orthant solve of a cold ML fit has inconsistent signs."""
    rng = np.random.default_rng(seed)
    g0 = rng.normal(size=n)
    a = np.column_stack([g0, g0 + 0.3 * rng.normal(size=n), rng.normal(size=n)])
    y = a @ [1.0, -0.5, 0.0] + 0.3 * rng.normal(size=n)
    return bn.Dataset(responses=y, predictors=a)


def latitude_dataset(seed=0, n=442, p=4, center=40.7, spread=0.05):
    """Raw dataset whose column 1 sits at center +- spread, by default
    40.7 +- 0.05 as a latitude does; one-pass centering leaves rounding of
    about eps * center / spread in each entry of that standardized column."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    a[:, 1] = center + spread * rng.standard_normal(n)
    y = a[:, 0] - 2.0 * (a[:, 1] - center) + rng.standard_normal(n)
    return bn.Dataset(responses=y, predictors=a)


def one_row_column_dataset(seed=0, n=40, p=4, col=2):
    """Raw dataset whose column col is zero except in row 0 and y is
    column 0 plus noise: it standardizes as a whole, but that column is
    constant in the training fold that holds row 0 out."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    a[1:, col] = 0.0
    y = a[:, 0] + rng.standard_normal(n)
    return bn.Dataset(responses=y, predictors=a)


def build_p5_suite():
    """Frozen five-predictor suite: two strong signals, one correlated pair
    among the three pure-noise columns, noise orthogonalized against the
    signal span so the active set is stable."""
    rng = np.random.default_rng(20240817)
    n = 200
    z0 = rng.standard_normal(n)
    z1 = 0.35 * z0 + math.sqrt(1.0 - 0.35**2) * rng.standard_normal(n)
    eps = rng.standard_normal(n)
    y = 1.0 * z0 - 0.9 * z1 + 0.045 * eps
    b2 = rng.standard_normal(n)
    b3 = 0.4 * b2 + math.sqrt(1.0 - 0.16) * rng.standard_normal(n)
    b4 = rng.standard_normal(n)
    bmat = np.column_stack([b2, b3, b4])
    span = np.column_stack([np.ones(n), z0, z1, y])
    q, _ = np.linalg.qr(span)
    bmat = bmat - q @ (q.T @ bmat)
    a = np.column_stack([z0, z1, bmat])
    std = bn.standardize(bn.Dataset(responses=y, predictors=a))
    lam, mu = 2e-4, 1e-4
    prob0 = bn.build_problem(std, lam, mu, 1.0)
    ml = bn.solve_ml(prob0, tol=1e-12)
    tau = bn.map_tau(std, lam, mu, ml)
    prob = prob0.with_tau(tau)
    sad = bn.solve_saddle(prob, ml.x_hat, tol=1e-12)
    return {
        "std": std,
        "lam": lam,
        "mu": mu,
        "tau": tau,
        "problem": prob,
        "ml": ml,
        "saddle": sad,
    }


def build_near_transition(seed=10):
    """Instance where one coordinate sits just below its activation point:
    its ML value is exactly zero but the posterior mass is already shifted."""
    rng = np.random.default_rng(seed)
    n, p = 120, 5
    z = rng.standard_normal((n, p))
    mix = np.eye(p) + 0.45 * rng.standard_normal((p, p)) / math.sqrt(p)
    a = z @ mix
    beta = np.array([1.0, -0.7, 0.35, 0.0, 0.0])
    y = a @ beta + 0.6 * rng.standard_normal(n)
    std = bn.standardize(bn.Dataset(responses=y, predictors=a))
    lam = 0.1
    base = bn.build_problem(std, lam, 1e-3, 1.0)
    # bisect the activation point of coordinate 2
    lo, hi = 1e-4, float(np.abs(base.w).max())
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        sol = bn.solve_ml(base.with_mu(mid), tol=1e-12)
        if abs(sol.x_hat[2]) > 0.0:
            lo = mid
        else:
            hi = mid
    mu = hi * 1.001
    prob0 = base.with_mu(mu)
    ml = bn.solve_ml(prob0, tol=1e-12)
    tau = bn.map_tau(std, lam, mu, ml)
    prob = prob0.with_tau(tau)
    sad = bn.solve_saddle(prob, ml.x_hat, tol=1e-12)
    return {
        "std": std,
        "lam": lam,
        "mu": mu,
        "mu_critical": hi,
        "tau": tau,
        "problem": prob,
        "ml": ml,
        "saddle": sad,
        "coord": 2,
    }


def build_marginal_case(seed, n=442, p=10, k=5, lam=0.1, frac=0.3):
    """Design shaped like the marginal benchmark: k of p coefficients
    nonzero, mu = frac * max|w|, tau at its MAP value.  Returns the problem
    at that tau and its converged stationary point."""
    rng = np.random.default_rng([seed, 1])
    beta = np.zeros(p)
    support = rng.choice(p, size=k, replace=False)
    beta[support] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k)
    std = random_standardized(seed, n, p, beta=beta)
    base = bn.build_problem(std, lam, 1.0, 1.0)
    prob0 = base.with_mu(frac * float(np.max(np.abs(base.w))))
    ml = bn.solve_ml(prob0)
    prob = prob0.with_tau(bn.map_tau(std, lam, prob0.mu, ml))
    sad = bn.solve_saddle(prob, ml.x_hat)
    assert sad.converged
    return prob, sad


def marginal_plain_walk(problem, saddle, j, grid, tol):
    """Stationary-phase marginal density of coordinate j, walked plainly.

    marginal_sp's walk without its tangent predictor or factor reuse: every
    inner solve is warm-started at its neighbor's solution (right from the
    point nearest the posterior mean, then left from it), and its log det
    comes from a fresh factor of C_sub + D at the solution.  The inner
    problems drop the design factor, so every factor takes the dense route.
    Returns the trapezoid-normalized density on grid.
    """
    from bayonet.partition import _core
    from bayonet.saddle import _saddle_cd

    idx = [k for k in range(problem.p) if k != j]
    c_sub = problem.c[np.ix_(idx, idx)]
    c_col, w_sub = problem.c[idx, j], problem.w[idx]
    mu, tau = problem.mu, problem.tau
    cjj, wj = problem.c[j, j], problem.w[j]
    log_dens = -tau * (cjj * grid * grid - 2.0 * wj * grid + 2.0 * mu * np.abs(grid))

    def solve(k, x):
        at_g = problem._replace(
            c=c_sub, w=w_sub - grid[k] * c_col, low_rank_factor=None
        )
        [sol] = _saddle_cd(at_g, x, tol)
        assert sol.converged
        log_dens[k] += _core(at_g, sol.x_tau, sol.u_tau)[0].log_z
        return sol.x_tau

    start = int(np.argmin(np.abs(grid - saddle.x_tau[j])))
    x = x_center = solve(start, saddle.x_tau[idx])
    for k in range(start + 1, grid.size):
        x = solve(k, x)
    x = x_center
    for k in range(start - 1, -1, -1):
        x = solve(k, x)
    dens = np.exp(log_dens - np.max(log_dens))
    return dens / np.trapezoid(dens, grid)


def cv_fold_by_fold(data, grid, folds, seed, screen_top=None, tol=1e-10):
    """cross_validate's fold_scores, one fold at a time.

    Each fold is standardized, screened, built, fitted down the mus by
    bn.solve_ml, each fit from the last converged minimizer, and solved by a
    tau_path of its own; a fold that raises a BayonetError at any stage
    scores NaN throughout.
    """
    from bayonet.hyper import _screen, pearson

    order = bn.RngStream(seed).permutation(data.n)
    parts = np.array_split(order, folds)
    scores = np.full((folds, grid.mus.size, grid.taus.size), np.nan)
    for f, val_idx in enumerate(parts):
        train_idx = np.concatenate([q for g, q in enumerate(parts) if g != f])
        try:
            std = bn.standardize(bn.Dataset(
                responses=data.responses[train_idx], predictors=data.predictors[train_idx]
            ))
            a_val = data.predictors[val_idx]
            if screen_top is not None and screen_top < data.p:
                cols = _screen(std, screen_top)
                std = dataclasses.replace(
                    std, predictors=std.predictors[:, cols],
                    predictor_offset=std.predictor_offset[cols],
                    predictor_scale=std.predictor_scale[cols],
                )
                a_val = a_val[:, cols]
            a_val = bn.apply_standardization(a_val, std.predictor_offset, std.predictor_scale)
            base = bn.build_problem(std, grid.lam, grid.mus[0], grid.taus[-1])
            mls, warm = [], None
            for mu in grid.mus:  # descending
                mls.append(bn.solve_ml(base.with_mu(mu), tol=tol, init=warm))
                if mls[-1].converged:
                    warm = mls[-1].x_hat
            rows = [i for i, ml in enumerate(mls) if ml.converged]
            if not rows:
                continue
            sols = bn.tau_path(base, grid.taus, init=np.array([mls[i].x_hat for i in rows]),
                               tol=tol, mus=grid.mus[rows])
        except bn.BayonetError:
            continue
        # one column of predictions per cell, scored together
        x = np.array([sol.x_tau for sol in sols])
        pred = a_val @ x.T * std.response_scale + std.response_offset
        r = pearson(data.responses[val_idx], pred)
        for i, row in enumerate(rows):
            for k in range(grid.taus.size):
                if sols[i * grid.taus.size + k].converged:
                    scores[f, row, k] = r[i * grid.taus.size + k]
    return scores


def load_diabetes_dataset():
    """Bundled diabetes benchmark, or None when scikit-learn is absent.
    No network access either way."""
    try:
        from sklearn.datasets import load_diabetes
    except ImportError:
        return None
    d = load_diabetes()
    return bn.Dataset(
        responses=d.target.astype(float), predictors=d.data.astype(float)
    )


def write_csv(path, names, predictors, responses, response_name="y"):
    """Plain CSV writer for CLI tests."""
    rows = [",".join(list(names) + [response_name])]
    for i in range(len(responses)):
        cells = ["%.17g" % v for v in predictors[i]] + ["%.17g" % responses[i]]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


def curve_moments(curve):
    m = np.trapezoid(curve.grid * curve.density, curve.grid)
    v = np.trapezoid((curve.grid - m) ** 2 * curve.density, curve.grid)
    return m, math.sqrt(v)
