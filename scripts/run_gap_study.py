#!/usr/bin/env python3
"""Exact suboptimality of the margin policy on a small instance.

Solves the finite-horizon problem by backward induction for each p on a
grid, evaluates the margin policy on the same reachable set (grid points
whose event rows agree share one forward pass), and prints
the raw gap, the normalized gap, and the certified upper bound. The
normalized column shrinking with p is the quadratic-scaling effect the
verification suite checks statistically.
"""

import argparse
import sys
from dataclasses import replace

from aoi_sched import ModelParams, fresh_state, gap_report, gap_tables


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-sources", type=int, default=2)
    ap.add_argument("--n-channels", type=int, default=1)
    ap.add_argument("--horizon", type=int, default=6)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument(
        "--p-grid", type=float, nargs="+",
        default=[0.02, 0.04, 0.08, 0.16, 0.32, 0.64],
    )
    return ap.parse_args()


def main():
    args = parse_args()
    print(f"N={args.n_sources} d={args.n_channels} T={args.horizon} q={args.q}")
    print(f"{'p':>6} {'v_star':>12} {'diff':>12} {'z':>12} {'bound':>12}")
    base = ModelParams(
        args.n_sources, args.n_channels, args.p_grid[0],
        (args.q,) * args.n_sources, args.horizon,
    )
    x0 = fresh_state(args.n_sources)
    tables = gap_tables(base, x0, args.p_grid)
    for p, (opt, dtab) in zip(args.p_grid, tables):
        params = replace(base, p=p)
        report = gap_report(params, x0, opt.root_value(), dtab.root_value())
        z = "null" if report.z is None else f"{report.z:.3e}"
        print(
            f"{p:>6g} {report.v_star:>12.6f} {report.diff:>12.3e} "
            f"{z:>12} {report.bound:>12.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
