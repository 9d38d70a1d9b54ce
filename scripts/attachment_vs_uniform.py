#!/usr/bin/env python3
"""Scale-freeness contrast experiment: fit the degree-histogram exponent
of preferential-attachment graphs against size-matched uniform random
graphs over a batch of seeds. The attachment graphs should fit a
log-log line tightly (r² near 1) with exponent near 3; the uniform
graphs should fit badly.

    python scripts/attachment_vs_uniform.py --n 10000 --m 3 --seeds 10
"""

import argparse
from pathlib import Path

from wgm.cli import DEGREE_COLUMNS, render
from wgm.degrees import degree_histogram, fit_power_law
from wgm.synth import generate_preferential, generate_uniform


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out-dir", help="also dump degree,count CSVs per graph")
    args = ap.parse_args()

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'seed':>4} {'alpha_pref':>10} {'r2_pref':>8} {'alpha_unif':>10} {'r2_unif':>8}")
    for seed in range(args.seeds):
        pref = generate_preferential(args.n, args.m, seed=seed)
        hist_pref = degree_histogram(pref, "total")
        fit_pref = fit_power_law(hist_pref, x_min=args.m)

        p = pref.edge_count / (args.n * (args.n - 1))
        unif = generate_uniform(args.n, p, seed=10_000 + seed)
        hist_unif = degree_histogram(unif, "total")
        fit_unif = fit_power_law(hist_unif, x_min=args.m)

        print(
            f"{seed:>4} {fit_pref.alpha:>10.3f} {fit_pref.r_squared:>8.3f}"
            f" {fit_unif.alpha:>10.3f} {fit_unif.r_squared:>8.3f}"
        )
        if out_dir:
            for name, hist in (("pref", hist_pref), ("unif", hist_unif)):
                text = render(hist.entries, "csv", DEGREE_COLUMNS)
                (out_dir / f"{name}_{seed}.csv").write_text(text, encoding="utf-8", newline="\n")


if __name__ == "__main__":
    main()
