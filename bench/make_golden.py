"""Regenerate ``bench/golden.json``, the stored outputs the op checkers use.

Run from the repository root:

    python3 bench/make_golden.py

It stores the exact report of every desk-scale instance the workloads touch
(the two ``exact_desk`` instances and every verify-battery instance for r=3
and r=4) and the full output of the two ``verify`` commands.  Before writing,
every ``count_b`` is cross-checked against the margin-class dynamic program
in ``tests/support.py``, a route independent of the column sweep, and every
verify row against the stored report of its instance.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import linhyper as lh  # noqa: E402
from linhyper.cli import main as cli_main  # noqa: E402
from support import count_b_dp  # noqa: E402

from checks import golden_key, verify_key  # noqa: E402
from workloads import EXACT_INSTANCES, VERIFY_COMMANDS  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return json.loads(buf.getvalue())


def main() -> None:
    instances = [lh.new_degree_sequence(k, r) for r, k in EXACT_INSTANCES]
    for r in sorted({r for r, _ in VERIFY_COMMANDS}):
        instances += lh.canonical_battery(rs=(r,))
    reports = {}
    for ds in instances:
        report = lh.full_report(ds)
        dp = count_b_dp(ds)
        if report.count_b != dp:
            raise SystemExit(f"count_b {report.count_b} != DP {dp} for {ds}")
        reports[golden_key(ds.r, ds.k)] = report.to_json_dict()

    verify = {}
    for r, ratio_check in VERIFY_COMMANDS:
        argv = ["verify", "-r", str(r), "--workers", "1"]
        out = run_cli(argv + (["--ratio-check"] if ratio_check else []))
        for row in out["rows"]:
            if row["count_l"] != reports[golden_key(row["r"], row["k"])]["count_l"]:
                raise SystemExit(f"verify row {row['k']} disagrees with its report")
        verify[verify_key(r, ratio_check)] = out

    path = ROOT / "bench" / "golden.json"
    path.write_text(json.dumps({"reports": reports, "verify": verify}, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}: {len(reports)} reports, "
          f"{len(verify)} verify outputs; every count_b matches the DP")


if __name__ == "__main__":
    main()
