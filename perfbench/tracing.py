"""In-memory spans around the public functions of each ``bayonet`` module.

The program's source is untouched: ``Tracer.installed()`` replaces the
module attributes through which callers reach each layer (for instance
``bayonet.cli.solve_saddle`` and ``bayonet.hyper.tau_path``) with timing
wrappers, and puts the originals back on exit.  Inner private solves
(``_saddle_cd``, ``_core``, ``_ml_cd``) stay unspanned; their cost shows as
the parent's time divided by the counts recorded next to it.

A span is [name, request, parent, start, end, attrs].  Counts taken from a
call's arguments or result go into attrs, so ratios are measured where the
work happens.
"""

import functools
import statistics
import time
from contextlib import contextmanager


def _ml_counts(args, kwargs, out):
    return {"cycles": out.cycles}


def _saddle_counts(args, kwargs, out):
    return {"cycles": out.cycles, "solves": 1, "converged": int(out.converged)}


def _path_counts(args, kwargs, out):
    return {
        "cycles": sum(s.cycles for s in out),
        "solves": len(out),
        "converged": sum(int(s.converged) for s in out),
    }


def _log_z_counts(args, kwargs, out):
    # the route log_partition takes: the n x n determinant lemma exactly when
    # the problem carries its design factor, lam > 0 and p > n
    prob = args[0]
    f = prob.low_rank_factor
    return {"lowrank": int(f is not None and prob.lam > 0.0 and prob.p > f.shape[0])}


def _marginal_counts(args, kwargs, out):
    return {"grid_points": out.grid.size}


def _gibbs_counts(args, kwargs, out):
    return {"sweeps": out.total_sweeps, "draws": out.total_sweeps * out.samples.shape[1]}


def _cv_counts(args, kwargs, out):
    cells = out.fold_scores.size
    finite = int((out.fold_scores == out.fold_scores).sum())
    return {"cells": cells, "scored": finite}


def _targets():
    """(owner, attribute, span name, counter) for every traced binding."""
    from bayonet import cli, hyper, posterior
    from bayonet.data import PenalizedProblem

    out = []
    for owner in (cli, hyper):
        out += [
            (owner, "standardize", "data.standardize", None),
            (owner, "build_problem", "data.build_problem", None),
            (owner, "solve_ml", "mlfit.solve_ml", _ml_counts),
            (owner, "tau_path", "saddle.tau_path", _path_counts),
        ]
    for owner in (cli, posterior):
        out += [
            (owner, "log_partition", "partition.log_partition", _log_z_counts),
            (owner, "posterior_sd", "posterior.posterior_sd", None),
        ]
    out += [
        (cli, "load_csv", "data.load_csv", None),
        (cli, "solve_saddle", "saddle.solve_saddle", _saddle_counts),
        (cli, "map_tau", "hyper.map_tau", None),
        (cli, "marginal_sp", "posterior.marginal_sp", _marginal_counts),
        (cli, "run_gibbs", "gibbs.run_gibbs", _gibbs_counts),
        (cli, "cross_validate", "hyper.cross_validate", _cv_counts),
        (PenalizedProblem, "with_tau", "data.with_tau", None),
        (PenalizedProblem, "with_mu", "data.with_mu", None),
    ]
    return out


class Tracer:
    """Collects spans of traced requests; nothing is written until the end."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._request, parent, time.perf_counter(), None, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                self.spans[i][5].update(counter(args, kwargs, out))
            return out

        return wrapper

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def wrapper(path, text):
            self.spans[self._stack[0]][5]["bytes"] += len(text.encode())
            return fn(path, text)

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every traced binding for its wrapper for the block's duration."""
        from bayonet import cli

        saved = []
        for owner, attr, name, counter in _targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))
        saved.append((cli, "_write_text", cli._write_text))
        cli._write_text = self._count_bytes(cli._write_text)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def request(self, request_id, call):
        """Run call() as one traced request; returns its result."""
        self._request = request_id
        i = self._open("request")
        self.spans[i][5]["bytes"] = 0
        try:
            return call()
        finally:
            self._close(i)
            self._request = None


class Layers:
    """Per-layer metrics from the spans of a chosen set of requests.

    scale maps a request id to the host-speed factor its times are
    multiplied by, the same factor its end-to-end time gets.
    """

    def __init__(self, spans, requests, scale):
        self.by_name = {}
        self.children = {}
        self.roots = {}
        for i, (name, req, parent, t0, t1, attrs) in enumerate(spans):
            if req not in requests:
                continue
            dur = (t1 - t0) * scale[req]
            rec = {"req": req, "dur": dur, "attrs": attrs, "index": i, "parent": parent}
            self.by_name.setdefault(name, []).append(rec)
            if parent is None:
                self.roots[req] = rec
            else:
                self.children.setdefault(parent, []).append(rec)

    def calls(self, name):
        return self.by_name.get(name, [])

    def self_time(self, rec):
        return rec["dur"] - sum(c["dur"] for c in self.children.get(rec["index"], []))

    def _median(self, name, value):
        vals = [value(r) for r in self.calls(name)]
        return statistics.median(vals) if vals else None

    def seconds(self, name, per=None):
        """Median over calls of name of its time, over attrs[per] if given."""
        return self._median(name, lambda r: r["dur"] / (r["attrs"][per] if per else 1))

    def self_seconds(self, name):
        """Median over calls of name of its time minus its child spans."""
        return self._median(name, self.self_time)

    def count(self, name, key):
        """Median over calls of name of the count attrs[key]."""
        return self._median(name, lambda r: r["attrs"][key])

    def per_request(self, names, value):
        """Median over requests that reach any of names, of the summed value."""
        sums = {}
        for name in names:
            for r in self.calls(name):
                sums[r["req"]] = sums.get(r["req"], 0.0) + value(r)
        return statistics.median(sums.values()) if sums else None

    def share(self, names, part, whole):
        """Sum of attrs[part] over sum of attrs[whole] (or over calls)."""
        num = den = 0
        for name in names:
            for r in self.calls(name):
                num += r["attrs"][part]
                den += r["attrs"][whole] if whole else 1
        return num / den if den else None

    def top_level(self, name, req):
        """Calls of name made directly by request req's CLI code."""
        root = self.roots[req]["index"]
        return [r for r in self.calls(name) if r["req"] == req and r["parent"] == root]


BUILDS = ("data.build_problem", "data.with_tau", "data.with_mu")


def saddle_over_ml(lay):
    """Per request: (top-level saddle solve + first log Z) / top-level ML fit."""
    ratios = []
    for req in lay.roots:
        ml = lay.top_level("mlfit.solve_ml", req)
        sad = lay.top_level("saddle.solve_saddle", req)
        lz = [r for r in lay.calls("partition.log_partition") if r["req"] == req]
        if ml and sad and lz:
            ratios.append((sum(r["dur"] for r in sad) + lz[0]["dur"])
                          / sum(r["dur"] for r in ml))
    return statistics.median(ratios) if ratios else None


def layer_metrics(lay):
    """Every per-layer metric of BENCHMARK.json; None where no call reached it."""
    return {
        "cli.self_s": lay.self_seconds("request"),
        "cli.bytes_out": lay.count("request", "bytes"),
        "data.load_csv_s": lay.seconds("data.load_csv"),
        "data.standardize_s": lay.seconds("data.standardize"),
        "data.problem_build_s": lay.per_request(BUILDS, lambda r: r["dur"]),
        "data.problem_builds": lay.per_request(BUILDS, lambda r: 1),
        "mlfit.solve_s": lay.seconds("mlfit.solve_ml"),
        "mlfit.cycles": lay.count("mlfit.solve_ml", "cycles"),
        "saddle.solve_s": lay.seconds("saddle.solve_saddle"),
        "saddle.cycles": lay.count("saddle.solve_saddle", "cycles"),
        "saddle.converged_frac": lay.share(
            ("saddle.solve_saddle", "saddle.tau_path"), "converged", "solves"),
        "saddle.path_s": lay.seconds("saddle.tau_path"),
        "saddle.path_cycles": lay.count("saddle.tau_path", "cycles"),
        "partition.log_z_s": lay.seconds("partition.log_partition"),
        "partition.lowrank_frac": lay.share(("partition.log_partition",), "lowrank", None),
        "posterior.marginal_s": lay.seconds("posterior.marginal_sp"),
        "posterior.grid_points": lay.count("posterior.marginal_sp", "grid_points"),
        "posterior.grid_point_s": lay.seconds("posterior.marginal_sp", per="grid_points"),
        "posterior.sd_s": lay.seconds("posterior.posterior_sd"),
        "gibbs.sweep_s": lay.seconds("gibbs.run_gibbs", per="sweeps"),
        "gibbs.draws": lay.count("gibbs.run_gibbs", "draws"),
        "hyper.map_tau_s": lay.seconds("hyper.map_tau"),
        "hyper.cv_s": lay.seconds("hyper.cross_validate"),
        "hyper.cv_self_s": lay.self_seconds("hyper.cross_validate"),
        "hyper.cv_cell_s": lay.seconds("hyper.cross_validate", per="cells"),
        "hyper.cv_scored_frac": lay.share(("hyper.cross_validate",), "scored", "cells"),
        "ratio.saddle_over_ml": saddle_over_ml(lay),
    }


def iteration_counts(lay, req):
    """The solver counts of one request, for the same-input repeat check."""
    keys = ("mlfit.solve_ml", "saddle.solve_saddle", "saddle.tau_path",
            "posterior.marginal_sp", "gibbs.run_gibbs")
    return tuple(
        tuple(sorted(r["attrs"].items())) for name in keys
        for r in lay.calls(name) if r["req"] == req
    )
