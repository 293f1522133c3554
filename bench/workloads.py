"""The four workloads and how each one's op cycle is built from the seed.

A workload is a cycle of ops (CLI commands) generated once per run from the
workload seed; a run repeats the cycle until the measuring time is used up,
so every run executes whole cycles and its op mix does not depend on speed.
The program only ever receives the generated argv.
"""
from __future__ import annotations

import random

import numpy as np

from checks import Op

# exact_desk: m=4 and m=5 columns, so a symmetry reduction shows at two sizes.
EXACT_INSTANCES = ((4, (2,) * 8), (3, (3,) + (2,) * 6))
# Ops per cycle of each instance.  Two of the m=4 op (about 2 s) and one of
# the m=5 op (about 4.5 s) make an odd cycle, so the median op lies inside
# the m=4 group rather than midway between the two groups.
EXACT_REPEATS = (2, 1)
# verify_battery: (r, --ratio-check) of each command.  Two of the three take
# about 2.5 s and one 0.1 s, so the median op lies inside the slow group
# rather than on the jump between two groups.
VERIFY_COMMANDS = ((3, True), (3, False), (4, False))
# girth_mc: n=3000 runs the same code as n=30000 at a tenth of the cost.
GIRTH_R, GIRTH_K, GIRTH_TRIALS, GIRTH_OPS = 3, (2,) * 3000, 200, 6
# sample_walk: per instance, the initial 4-cycle count d of each seed in the
# cycle.  The walk's cost grows with d (0.003 s at d=0, 4.5 s at d=4 on
# k=2^90), so the seed picks seeds within fixed quotas of d.  The quotas are
# ten times the measured frequency of each d over 20,000 seeds, rounded by
# largest remainder (the distribution is in README.md).
SAMPLE_INSTANCES = (
    (3, (3,) * 30, (1, 2, 2, 3, 3, 3, 4, 4, 5, 6)),
    (3, (2,) * 90, (0, 0, 0, 0, 1, 1, 1, 1, 2, 2)),
)
SAMPLE_SEED_SCAN = 5000
# Kept out of the measured ops because it fails at this commit (r=2 breaks
# the oracle's identities); each run records its outcome instead.
KNOWN_DEFECT = ("verify", "-r", "2", "--workers", "1")

WORKLOADS = ("exact_desk", "verify_battery", "girth_mc", "sample_walk")


def _k_arg(k) -> str:
    return ",".join(str(v) for v in k)


def build_cycle(workload: str, seed: int, lh) -> list[Op]:
    """The op cycle of ``workload`` for ``seed``; ``lh`` is the library."""
    rng = random.Random(seed)
    if workload == "exact_desk":
        ops = []
        for (r, k), repeats in zip(EXACT_INSTANCES, EXACT_REPEATS):
            for _ in range(repeats):
                perm = list(k)
                rng.shuffle(perm)
                ops.append(Op("exact", ("exact", "-r", str(r), "-k", _k_arg(perm),
                                        "--workers", "1"),
                              r=r, k=tuple(perm), seed=rng.randrange(2**32)))
        rng.shuffle(ops)
        return ops
    if workload == "verify_battery":
        ops = [
            Op("verify", ("verify", "-r", str(r), "--workers", "1")
               + (("--ratio-check",) if ratio else ()),
               r=r, seed=rng.randrange(2**32), ratio_check=ratio)
            for r, ratio in VERIFY_COMMANDS
        ]
        rng.shuffle(ops)
        return ops
    if workload == "girth_mc":
        ops = []
        for _ in range(GIRTH_OPS):
            s = rng.randrange(2**32)
            ops.append(Op("girth", ("girth", "-r", str(GIRTH_R), "-k", _k_arg(GIRTH_K),
                                    "--trials", str(GIRTH_TRIALS), "--seed", str(s),
                                    "--workers", "1"),
                          r=GIRTH_R, k=GIRTH_K, seed=s, trials=GIRTH_TRIALS))
        return ops
    if workload == "sample_walk":
        ops = []
        for r, k, quotas in SAMPLE_INSTANCES:
            ds = lh.new_degree_sequence(k, r)
            for d in quotas:
                s = _seed_with_initial_d(lh, ds, d, rng)
                ops.append(Op("sample", ("sample", "-r", str(r), "-k", _k_arg(k),
                                         "--seed", str(s)),
                              r=r, k=k, seed=s))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def initial_d(lh, ds, seed: int) -> int | None:
    """4-cycle count of the first well-behaved pairing graph the sampler
    draws for ``seed``, replaying its draws through the public functions."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        graph = lh.pairing_sample(ds, rng).graph
        cls = lh.classify(graph, ds)
        if cls.in_bplus:
            return cls.d
    return None


def _seed_with_initial_d(lh, ds, d: int, rng: random.Random) -> int:
    for _ in range(SAMPLE_SEED_SCAN):
        s = rng.randrange(2**32)
        if initial_d(lh, ds, s) == d:
            return s
    raise RuntimeError(f"no seed with initial 4-cycle count {d} for {ds}")
