"""Reference kernels that gauge the host's speed while a run measures.

On a shared machine the speed of the whole process drifts by tens of
percent over tens of seconds as other load comes and goes, and a run's
times move with it. ``run.run_pass`` therefore runs its workload's
``Reference.probe`` between items, once per ``PROBE_EVERY`` nominal probe
times of item time, and scales every time the pass measured by
``nominal_s / median probe time`` of that pass: the times read as those the
pass would have taken on the host while it ran the probe in ``nominal_s``.

A kernel never touches ``cvswap``, so a change to the library cannot move
it. Each is a fixed set of nonsymmetric eigensolves (``numpy.linalg.eigvals``
on seeded random matrices) as wide as the covariance matrices its workload
handles, repeated to take 10 to 35 ms: small widths spend their time in
numpy's per-call overhead, as the Python-bound workloads do, and wide ones
in LAPACK, as ``swap-large`` does. A kernel of the workload's own widths
followed its slowdowns more closely than one of other widths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

PROBE_EVERY = 10  # item time between probes, in nominal probe times: probes add about a tenth


@dataclass
class Reference:
    widths: tuple  # matrix widths of one round
    rounds: int  # rounds per probe
    nominal_s: float  # about the median probe on an unloaded 2-vCPU x86-64 host
    matrices: list = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(20171222)
        self.matrices = [rng.standard_normal((n, n)) for n in self.widths]

    @property
    def every_s(self) -> float:
        """Item time between probes."""
        return PROBE_EVERY * self.nominal_s

    def probe(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        started = time.perf_counter()
        for _ in range(self.rounds):
            for m in self.matrices:
                np.linalg.eigvals(m)
        return time.perf_counter() - started
