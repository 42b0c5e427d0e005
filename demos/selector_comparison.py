"""Fixed-point plug-in selection versus the normal-reference plug-in.

The classic two-stage plug-in seeds its derivative-norm chain with a
normal-reference rule, which over-smooths multimodal targets.  The
fixed-point selector removes that assumption by solving the stage map
for self-consistency.  On well separated modes the difference is
dramatic; on a near-normal target the two agree.

Run:  python3 demos/selector_comparison.py
"""

from diffkde import run_benchmark


def main():
    print("median ISE ratio (fixed-point / normal-reference), 10 trials each")
    print("-" * 66)
    for case, N in [("separated_pm30", 1000), ("five_modes", 1000),
                    ("claw", 1000), ("outlier", 1000)]:
        res = run_benchmark(case, N=N, trials=10, method_a="isj",
                            method_b="sj", seed=1)
        verdict = ("fixed-point wins" if res.ratio_median < 0.9
                   else "comparable" if res.ratio_median < 1.1
                   else "normal-reference wins")
        print(f"{case:>16s}  N={N}  ratio {res.ratio_median:6.3f}  {verdict}")


if __name__ == "__main__":
    main()
