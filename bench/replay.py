"""Traced replay: each op's inputs sent through the library's public
functions, one span per call with the op as parent.

The library is measured from outside: no span lives inside it.  For every
degree sequence an op touches, the replay calls

* ``degree_model``: ``DegreeSequence.thresholds``;
* ``asymptotics``: the four closed-form estimates;
* ``switching_engine`` + ``bigraph_core``: ``PAIRING_DRAWS`` pairing draws,
  each followed by ``classify``, ``four_cycles`` and ``has_four_cycle``, and
  a Monte Carlo girth estimate (girth ops use their own call);
* ``exact_oracle``: ``full_report``, ``enumerate_bigraphs`` (ALL and BPLUS)
  and ``count_hypergraphs`` on the sequence, or on its longest prefix that
  the oracle's default guard admits;
* ``switching_engine`` walk: ``sample_no4cycle`` (sample ops use their own
  call), plus ``forward_candidates`` and ``check_forward`` on a well-behaved
  graph with a 4-cycle, on the sequence or its longest prefix with
  M <= ``WALK_MAX_M``, skipped when the golden report shows no 4-cycle-free
  graph exists.

Prefixes keep every layer measured on every workload, on inputs derived from
that workload's own.  Counts recorded on the spans repeat exactly for a
fixed workload seed.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from checks import golden_key

PAIRING_DRAWS = 8
SHORT_GIRTH_TRIALS = 20
CHECK_FORWARD_CALLS = 8
WALK_MAX_M = 90
STEP_GRAPH_DRAWS = 50


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def call(self, op: int, name: str, fn, *args, counts=None, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = Span(name, op, start, time.perf_counter())
            self.spans.append(span)
        if counts is not None:
            span.counts = counts(result)
        return result


def prefix_within(lh, ds, max_m: int):
    """Longest prefix of ``ds.k`` with 0 < M <= max_m and r | M, or None."""
    best, total = 0, 0
    for i, v in enumerate(ds.k):
        total += v
        if total > max_m:
            break
        if total and total % ds.r == 0:
            best = i + 1
    return lh.new_degree_sequence(ds.k[:best], ds.r) if best else None


class Replayer:
    """Replays ops through the library; collects spans and problems."""

    def __init__(self, lh, golden: dict) -> None:
        self.lh = lh
        self.golden = golden
        self.tracer = Tracer()
        self.problems: list[str] = []

    def replay(self, idx: int, op, cli_stdout: str) -> float:
        """Replay one op; returns the seconds of the library calls the
        command wraps, on the same inputs."""
        lh, tr = self.lh, self.tracer
        out = json.loads(cli_stdout)
        if op.kind == "exact":
            ds = lh.new_degree_sequence(op.k, op.r)
            report = tr.call(idx, "exact_oracle.full_report", lh.full_report, ds,
                             workers=1)
            wrapped = tr.spans[-1].seconds
            self._sequence(idx, ds, op.seed, report=report)
            return wrapped
        if op.kind == "girth":
            ds = lh.new_degree_sequence(op.k, op.r)
            est = tr.call(idx, "switching_engine.monte_carlo_girth", lh.monte_carlo_girth,
                          ds, seed=op.seed, trials=op.trials, workers=1,
                          counts=lambda e: {"trials": e.trials, "rejections": e.rejections})
            wrapped = tr.spans[-1].seconds
            self._expect((est.p_hat, est.rejections) == (out["p_hat"], out["rejections"]),
                         f"{op.label}: replayed estimate differs from the command's")
            self._sequence(idx, ds, op.seed, girth=False)
            return wrapped
        if op.kind == "sample":
            ds = lh.new_degree_sequence(op.k, op.r)
            res = self._walk(idx, ds, op.seed)
            wrapped = tr.spans[-1].seconds
            self._expect(res.graph.to_json_dict() == out["graph"],
                         f"{op.label}: replayed sample differs from the command's")
            self._sequence(idx, ds, op.seed, walk=False)
            return wrapped
        if op.kind == "verify":
            return self._verify(idx, op, out)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def _verify(self, idx: int, op, out: dict) -> float:
        from linhyper.cli import _involution_spot_check

        lh, tr = self.lh, self.tracer
        wrapped = 0.0
        spot_checks = 0
        for n, ds in enumerate(lh.canonical_battery(rs=(op.r,))):
            report = tr.call(idx, "exact_oracle.full_report", lh.full_report, ds, workers=1)
            wrapped += tr.spans[-1].seconds
            tr.call(idx, "asymptotics.estimate", lh.estimate_linear, ds)
            wrapped += tr.spans[-1].seconds
            if op.ratio_check:
                tr.call(idx, "asymptotics.estimate", lh.switching_ratio, ds, 1)
                wrapped += tr.spans[-1].seconds
            spot_checks += tr.call(idx, "cli.spot_check", _involution_spot_check, ds,
                                   lh.DEFAULT_MAX_SPACE)
            wrapped += tr.spans[-1].seconds
            self._sequence(idx, ds, op.seed + n, report=report)
        self._expect(spot_checks == out["involution_spot_checks"],
                     f"{op.label}: replayed spot checks differ from the command's")
        return wrapped

    def _expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def _sequence(self, idx, ds, seed, report=None, girth=True, walk=True) -> None:
        """Probe every layer on one degree sequence of an op."""
        lh, tr = self.lh, self.tracer
        tr.call(idx, "degree_model.thresholds", ds.thresholds)
        for estimate in (lh.estimate_linear, lh.estimate_simple, lh.estimate_bigraph,
                         lh.girth6_probability):
            tr.call(idx, "asymptotics.estimate", estimate, ds)
        self._oracle(idx, ds, report)
        if report is not None and report.count_b == 0:
            return  # no conforming graph to draw, walk or switch
        rng = np.random.default_rng(seed)
        for _ in range(PAIRING_DRAWS):
            graph = tr.call(idx, "switching_engine.pairing_sample", lh.pairing_sample,
                            ds, rng, counts=lambda p: {"rejections": p.rejections}).graph
            tr.call(idx, "bigraph_core.classify", lh.classify, graph, ds)
            tr.call(idx, "bigraph_core.four_cycles", graph.four_cycles)
            tr.call(idx, "bigraph_core.has_four_cycle", graph.has_four_cycle)
        if girth:
            tr.call(idx, "switching_engine.monte_carlo_girth", lh.monte_carlo_girth, ds,
                    seed=seed, trials=SHORT_GIRTH_TRIALS, workers=1,
                    counts=lambda e: {"trials": e.trials, "rejections": e.rejections})
        walk_ds = ds if not walk or ds.M <= WALK_MAX_M else prefix_within(lh, ds, WALK_MAX_M)
        if walk and walk_ds is not None and self._has_c0(walk_ds):
            self._walk(idx, walk_ds, seed)
        if walk_ds is not None:
            self._step(idx, walk_ds, seed)

    def _oracle(self, idx, ds, report) -> None:
        lh, tr = self.lh, self.tracer
        if ds.M > lh.DEFAULT_MAX_SPACE:
            ds, report = prefix_within(lh, ds, lh.DEFAULT_MAX_SPACE), None
            if ds is None:
                return
        if report is None:
            report = tr.call(idx, "exact_oracle.full_report", lh.full_report, ds, workers=1)
        want = self.golden["reports"].get(golden_key(ds.r, ds.k))
        if want is not None:
            self._expect(report.to_json_dict() == want, f"full_report {ds} differs from golden")
        count_b = tr.call(idx, "exact_oracle.enumerate_all", lh.enumerate_bigraphs, ds,
                          class_filter=lh.ClassFilter.ALL,
                          counts=lambda c: {"graphs": c})
        bplus = tr.call(idx, "exact_oracle.enumerate_bplus", lh.enumerate_bigraphs, ds,
                        class_filter=lh.ClassFilter.BPLUS)
        hyper = tr.call(idx, "exact_oracle.count_hypergraphs", lh.count_hypergraphs, ds)
        self._expect((count_b, bplus, hyper) ==
                     (report.count_b, report.count_bplus, (report.count_h, report.count_l)),
                     f"oracle sweeps on {ds} disagree with full_report")

    def _has_c0(self, ds) -> bool:
        """Whether a 4-cycle-free graph exists, so the walk can end: read
        from the golden report, and taken as true past the oracle's guard,
        where the workloads only walk on sparse sequences."""
        want = self.golden["reports"].get(golden_key(ds.r, ds.k))
        if want is not None:
            return want["cd_profile"][0] != "0"
        return ds.M > self.lh.DEFAULT_MAX_SPACE

    def _walk(self, idx, ds, seed):
        return self.tracer.call(
            idx, "switching_engine.sample_no4cycle", self.lh.sample_no4cycle, ds,
            np.random.default_rng(seed),
            counts=lambda s: {"steps": s.steps, "restarts": s.restarts,
                              "bplus_rejections": s.bplus_rejections})

    def _step(self, idx, ds, seed) -> None:
        """One switching step's work on the first well-behaved pairing graph
        drawn for ``seed`` that has a forward candidate."""
        lh, tr = self.lh, self.tracer
        rng = np.random.default_rng(seed)
        for _ in range(STEP_GRAPH_DRAWS):
            graph = lh.pairing_sample(ds, rng).graph
            cls = lh.classify(graph, ds)
            if cls.in_bplus and cls.d >= 1 and next(lh.forward_candidates(graph, cls), None):
                break
        else:
            return
        cands = tr.call(idx, "switching_engine.forward_candidates",
                        lambda: list(lh.forward_candidates(graph, cls)),
                        counts=lambda c: {"candidates": len(c)})
        for t in cands[:CHECK_FORWARD_CALLS]:
            try:
                tr.call(idx, "switching_engine.check_forward", lh.check_forward, graph, t)
            except lh.errors.NotASwitching:
                pass  # a candidate may fail the rewiring's preconditions
