"""Locally adaptive smoothing by evolving a linear diffusion.

The estimator runs the heat flow of a data-driven diffusion whose
coefficients come from a pilot estimate: regions where the pilot is
large diffuse slowly (preserving sharp features), regions where it is
small diffuse fast (suppressing spurious tail wiggles).  The demo
compares it with the classical square-root-law variable-bandwidth
estimator on two hard targets, then shows the single-sample picture on
a log-normal, whose peak is sharp and whose tail is long.

Run:  python3 demos/adaptive_diffusion.py
"""

import numpy as np

from diffkde import diffusion_pipeline, registry, run_benchmark


def main():
    print("median ISE ratio (diffusion / variable-bandwidth), 10 trials")
    print("-" * 62)
    for case in ("log_normal", "bimodal_pm2"):
        res = run_benchmark(case, N=1000, trials=10, method_a="diffusion",
                            method_b="abramson", seed=1)
        print(f"{case:>12s}  ratio {res.ratio_median:6.3f}")

    mix = registry()["log_normal"]
    x = mix.sample(1000, np.random.default_rng(7))
    sol, report = diffusion_pipeline(x)
    g = sol.estimate.grid

    mode = float(np.exp(-1.0))
    i = int(np.argmin(np.abs(g.nodes - mode)))
    print(f"\nsingle log-normal sample, N = {x.size}:")
    print(f"  final diffusion time t*:     {report.t_star:.5f}")
    print(f"  resolvent solves:            {sol.solver_stats['steps']}")
    print(f"  true density at the mode:    {mix.pdf([mode])[0]:.3f}")
    print(f"  adaptive estimate there:     {sol.estimate.values[i]:.3f}")
    far = g.nodes >= 10.0
    print(f"  largest value beyond x=10:   {sol.estimate.values[far].max():.2e}"
          f"   (true {mix.pdf(g.nodes[far]).max():.2e})")


if __name__ == "__main__":
    main()
