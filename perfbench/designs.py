"""Seeded synthetic regression designs and the CSV files the CLI reads.

The designs stand in for the diabetes data (442 x 10) and for the wider
shapes the ROADMAP names (200 x 100, 100 x 400, 300 x 1000): independent
Gaussian predictors, a sparse true coefficient vector and Gaussian noise.
Everything is drawn from ``numpy.random.default_rng`` keyed on the workload
seed, so one seed always yields the same files byte for byte.
"""

from functools import cached_property

import numpy as np

SNR = 3.0  # signal standard deviation over noise standard deviation


def make_design(n, p, k, seed_key):
    """Return (predictors n x p, response n) for one design.

    seed_key is any sequence of non-negative ints; it seeds the generator,
    so the workload seed and a design index together pick the design.
    """
    rng = np.random.default_rng(list(seed_key))
    a = rng.standard_normal((n, p))
    beta = np.zeros(p)
    support = rng.choice(p, size=k, replace=False)
    beta[support] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k)
    signal = a @ beta
    y = signal + rng.standard_normal(n) * (np.std(signal) / SNR)
    return a, y


def write_csv(path, a, y):
    """Write predictors x0..x{p-1} and response y with round-trip floats."""
    header = ",".join([f"x{j}" for j in range(a.shape[1])] + ["y"])
    rows = np.column_stack([a, y]).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(",".join(map(repr, row)) for row in rows))
        fh.write("\n")


class Quadratic:
    """C and w of the penalized cost, rebuilt independently of the program.

    Columns are centered and scaled to squared norm n, as the CLI's default
    standardization does; C = A'A/(2n) + lam*I and w = A'y/(2n).  Output
    checks evaluate the stationarity conditions against these.
    """

    def __init__(self, a, y, lam):
        n = a.shape[0]
        ac = a - a.mean(axis=0)
        self._a = ac / np.sqrt(np.mean(ac * ac, axis=0))
        yc = y - y.mean()
        yc = yc / np.sqrt(np.mean(yc * yc))
        self._lam = lam
        self.w = self._a.T @ yc / (2.0 * n)
        self.mu_max = float(np.max(np.abs(self.w)))

    @cached_property
    def c(self):
        n, p = self._a.shape
        return self._a.T @ self._a / (2.0 * n) + self._lam * np.eye(p)
