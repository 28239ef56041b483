"""Fixed reference work that gauges the host's single-thread speed.

    python3 bench/reference.py

Runs as its own process, like a benchmark child, and does about 0.4 s of
numpy and interpreter work of the kind a levyhull run does (a walk's
cumulative sum, norms, a sort and a pure-Python loop). It touches nothing
of levyhull, so a change to levyhull cannot move it. Prints the seconds
the work took, excluding interpreter start and the numpy import.
"""

import time

import numpy as np

t0 = time.perf_counter()
steps = np.random.default_rng(12345).standard_normal((10000, 2))
for _ in range(480):
    walk = np.cumsum(steps, axis=0)
    np.hypot(walk[:, 0], walk[:, 1]).max()
    np.argsort(walk[:, 0])
    sum(i * i for i in range(5000))
print(time.perf_counter() - t0)
