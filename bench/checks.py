"""Output checkers for the benchmark's ops.

An op is one CLI command.  Each checker takes the op, its exit code and its
captured stdout, and returns ``None`` when the output is right or a one-line
reason when it is not.  The checkers rely on the stored golden outputs and on
checks written here, never on the library's own verdicts.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

# Girth ops fail when p_hat lies more than this many binomial standard errors
# from the closed-form prediction.  The band is wide on purpose: the check
# guards against a broken estimator, not against an unlucky seed.
GIRTH_Z = 6.0
# Relative tolerance for the floats in verify rows (estimates and ratios).
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI command.  ``kind`` is the subcommand; ``r``/``k`` its input."""

    kind: str
    argv: tuple[str, ...]
    r: int | None = None
    k: tuple[int, ...] = ()
    seed: int | None = None
    trials: int | None = None
    ratio_check: bool = False

    @property
    def label(self) -> str:
        """The argv with runs of equal degrees written as ``v^n``."""
        return " ".join(_compact(arg) if "," in arg else arg for arg in self.argv)


def _compact(k_arg: str) -> str:
    runs: list[list] = []
    for v in k_arg.split(","):
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return ",".join(v if n == 1 else f"{v}^{n}" for v, n in runs)


def golden_key(r: int, k) -> str:
    """Golden reports are keyed by r and the non-increasing degree vector."""
    return f"{r}:" + ",".join(str(v) for v in sorted(k, reverse=True))


def verify_key(r: int, ratio_check: bool) -> str:
    return f"{r}:ratio-check" if ratio_check else f"{r}"


def check_op(op: Op, rc, stdout: str, golden: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    return CHECKERS[op.kind](op, out, golden)


def check_exact(op: Op, out: dict, golden: dict) -> str | None:
    if out.get("r") != op.r or out.get("k") != list(op.k):
        return "output does not echo r and k"
    want = golden["reports"].get(golden_key(op.r, op.k))
    if want is None:
        return "no golden report for this instance"
    for key, value in want.items():
        if out.get(key) != value:
            return f"{key} is {out.get(key)!r}, golden {value!r}"
    return None


def check_verify(op: Op, out: dict, golden: dict) -> str | None:
    want = golden["verify"].get(verify_key(op.r, op.ratio_check))
    if want is None:
        return "no golden output for this verify command"
    for key in ("instances", "identities", "involution_spot_checks"):
        if out.get(key) != want[key]:
            return f"{key} is {out.get(key)!r}, golden {want[key]!r}"
    rows = out.get("rows")
    if not isinstance(rows, list) or len(rows) != len(want["rows"]):
        return "row count differs from golden"
    for got, exp in zip(rows, want["rows"]):
        if set(got) != set(exp):
            return f"row {exp['k']} has fields {sorted(got)}"
        for key, value in exp.items():
            if isinstance(value, float):
                if not (isinstance(got[key], float) and math.isclose(
                        got[key], value, rel_tol=FLOAT_RTOL, abs_tol=0.0)):
                    return f"row {exp['k']}: {key} is {got[key]!r}, golden {value!r}"
            elif got[key] != value:
                return f"row {exp['k']}: {key} is {got[key]!r}, golden {value!r}"
    return None


def check_girth(op: Op, out: dict, golden: dict) -> str | None:
    if out.get("seed") != op.seed or out.get("workers") != 1:
        return "output does not echo the seed and worker count"
    if out.get("trials") != op.trials:
        return f"trials is {out.get('trials')!r}, asked {op.trials}"
    p_hat, predicted = out.get("p_hat"), out.get("predicted")
    if not (isinstance(predicted, float) and 0.0 < predicted < 1.0):
        return f"predicted {predicted!r} is not a probability"
    if not isinstance(p_hat, float):
        return f"p_hat {p_hat!r} is not a number"
    band = GIRTH_Z * math.sqrt(predicted * (1.0 - predicted) / op.trials)
    if abs(p_hat - predicted) > band:
        return f"p_hat {p_hat} is outside {predicted} +- {band:.4f}"
    return None


def check_sample(op: Op, out: dict, golden: dict) -> str | None:
    meta = out.get("meta", {})
    if meta.get("seed") != op.seed:
        return "output does not echo the seed"
    traj = meta.get("d_trajectory")
    if not traj or traj[-1] != 0:
        return f"d_trajectory {traj!r} does not end at 0"
    return graph_problem(out.get("graph", {}), op.r, op.k)


def graph_problem(graph: dict, r: int, k) -> str | None:
    """Why a sampled graph is not a 4-cycle-free graph conforming to (r, k).

    A simple conforming graph with no 4-cycle passes all five properties of
    the battery, so this also establishes ``in_bplus``.
    """
    n, m = len(k), sum(k) // r
    if graph.get("n_left") != n or graph.get("n_right") != m:
        return "graph has the wrong number of vertices"
    cols = [set() for _ in range(m)]
    for edge in graph.get("edges", []):
        j, i = edge[0] - 1, edge[1] - 1
        if not (0 <= j < n and 0 <= i < m):
            return f"edge {edge} is out of range"
        if j in cols[i]:
            return f"edge {edge} is repeated"
        cols[i].add(j)
    if any(len(c) != r for c in cols):
        return "a right vertex does not have degree r"
    degrees = [0] * n
    for c in cols:
        for j in c:
            degrees[j] += 1
    if tuple(degrees) != tuple(k):
        return "left degrees do not match k"
    for a, b in combinations(range(m), 2):
        if len(cols[a] & cols[b]) >= 2:
            return f"right vertices {a + 1} and {b + 1} lie on a 4-cycle"
    return None


CHECKERS = {
    "exact": check_exact,
    "verify": check_verify,
    "girth": check_girth,
    "sample": check_sample,
}
