"""Progress ticks of each iteration, and the wall time they give.

`dynamics.evolve_schrodinger` and `dynamics.evolve_lindblad` call
`dynamics.fidelity` once per recorded point, that is after every
`record_every` RK4 steps. `Progress.iteration()` timestamps those calls, and only
those made inside an `evolve_*` call. A stride is the time between two
consecutive recorded points of one integration: the same number of RK4 steps
every time. The hook costs one clock read per stride (a stride is 3 ms on an
8-dim sweep cell and 60 ms on the 80-dim open run).

Other tenants of a shared host slow a single-threaded loop by up to 2.3x, in
phases of seconds to minutes, so a whole iteration's wall time mostly
measures the phase it ran in. The fastest stride of a run is the stride's
cost on a quiet core. `wall_s` (and `trace.wall_s`) is an iteration's wall
time at that speed:

    wall_s = median over iterations of (wall - time in strides)
             + (strides per iteration) * (fastest stride of the run)

A run that records no strides reports its median wall time.
"""

from __future__ import annotations

import contextlib
import statistics
import time


class Progress:
    """Wall time and strides of each iteration, in seconds."""

    def __init__(self):
        self.walls: list[float] = []
        self.strides: list[list[float]] = []

    @contextlib.contextmanager
    def iteration(self):
        """Time one iteration and record its strides while the block runs."""
        from tqd3d import dynamics

        strides: list[float] = []
        clock = time.perf_counter
        inside = False  # within an evolve_* call
        last = None  # time of the current integration's previous recorded point
        originals = {name: getattr(dynamics, name)
                     for name in ("fidelity", "evolve_schrodinger", "evolve_lindblad")}
        fidelity = originals["fidelity"]

        def ticking_fidelity(*args, **kwargs):
            nonlocal last
            if inside:
                now = clock()
                if last is not None:
                    strides.append(now - last)
                last = now
            return fidelity(*args, **kwargs)

        def integration(evolve):
            def watched(*args, **kwargs):
                nonlocal inside, last
                inside, last = True, None
                try:
                    return evolve(*args, **kwargs)
                finally:
                    inside, last = False, None
            return watched

        try:
            dynamics.fidelity = ticking_fidelity
            dynamics.evolve_schrodinger = integration(originals["evolve_schrodinger"])
            dynamics.evolve_lindblad = integration(originals["evolve_lindblad"])
            t0 = clock()
            yield
            self.walls.append(clock() - t0)
            self.strides.append(strides)
        finally:
            for name, fn in originals.items():
                setattr(dynamics, name, fn)

    def fastest_stride(self) -> float | None:
        return min((s for it in self.strides for s in it), default=None)

    def wall_s(self) -> float:
        """Median time outside the strides plus the strides at the run's fastest stride."""
        fastest = self.fastest_stride()
        if fastest is None:
            return statistics.median(self.walls)
        outside = [w - sum(it) for w, it in zip(self.walls, self.strides)]
        per_iteration = statistics.median(len(it) for it in self.strides)
        return statistics.median(outside) + per_iteration * fastest
