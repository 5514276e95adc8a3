#!/usr/bin/env python3
"""Check perfbench's Fig. 11 statistics against bench_fig11_speedup_dist.

    python3 perfbench/check_fidelity.py PATH/TO/bench_fig11_speedup_dist

Builds perfbench if needed, then runs `perfbench --fig11` and the
repository's own Fig. 11 bench, which both cover the full grid with the
paper's 20% filter, and compares POD's mean speedup, peak speedup and
share of batches within 10% of the perfect-overlap peak at the bench's
printed precision (0.1 percentage points). The paper_err.* metrics are
these three values' distances from 28%, 59% and 25%. Exits 1 on a
mismatch.
"""
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def values(text, patterns):
    out = []
    for pattern in patterns:
        match = re.search(pattern, text)
        if match is None:
            sys.exit("no match for %r in:\n%s" % (pattern, text))
        out.append(match.group(1))
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    reference = subprocess.run([sys.argv[1]], stdout=subprocess.PIPE, text=True,
                               check=True).stdout
    ours = subprocess.run([run.build(), "--fig11"], stdout=subprocess.PIPE,
                          text=True, check=True).stdout
    want = values(reference, [r"mean speedup:\s+([\d.]+)%",
                              r"peak speedup:\s+([\d.]+)%",
                              r"within 10% of peak:\s+([\d.]+)%"])
    got = values(ours, [r"POD mean ([\d.]+)%", r"peak ([\d.]+)%",
                        r"within 10% of peak ([\d.]+)%"])
    for name, w, g in zip(("mean", "peak", "within10"), want, got):
        print("%-9s bench_fig11 %6s%%  perfbench %6s%%  %s"
              % (name, w, g, "ok" if w == g else "MISMATCH"))
    sys.exit(0 if want == got else 1)


if __name__ == "__main__":
    main()
