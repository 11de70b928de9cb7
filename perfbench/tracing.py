"""Per-layer spans recorded from outside the program.

A `Tracer` replaces each traced function at every name an `actionlim`
module binds it to (so `profiles.hausdorff` is wrapped as well as
`lp_metric.hausdorff`), and `DiscreteMeasure.__init__` on the class
itself.  Each wrapper records calls, total time and self time (total
minus the time of traced calls made inside it).  `restore` puts every
original back.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path


def _actionlim_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "actionlim" or name.startswith("actionlim."))
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # time of traced callees, one slot per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.stats[f"{span}.calls"] += 1
                self.stats[f"{span}.s"] += dt
                self.stats[f"{span}.self_s"] += dt - child
                if self._children:
                    self._children[-1] += dt
            if after is not None:
                after(self.stats, args, result)
            return result

        return wrapper

    def install(self, actionlim) -> None:
        """Wrap the public function of each layer at the names callers use."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        lp, pr, ops, hs, cli = (
            actionlim.lp_metric, actionlim.profiles, actionlim.operators, actionlim.harness, actionlim.cli,
        )
        targets = [
            ("lp_metric.hausdorff", lp.hausdorff, _count_candidate_pairs),
            ("lp_metric.lp_distance", lp.lp_distance, None),
            ("lp_metric.lp_distance_bruteforce", lp.lp_distance_bruteforce, None),
            ("profiles.profile_sample", pr.profile_sample, None),
            ("profiles.measure_of", pr.measure_of, _count_atoms),
            ("operators.pq_norm", ops.pq_norm, None),
            ("operators.build", hs.parse_operator_spec, None),
            ("harness.run_experiment", hs.run_experiment, _count_bytes_written),
            ("cli.main", cli.main, None),
        ]
        modules = _actionlim_modules()
        for span, original, after in targets:
            wrapper = self._wrap(span, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        cls = actionlim.measures.DiscreteMeasure
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("measures.DiscreteMeasure", cls.__init__)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _count_candidate_pairs(stats, args, result) -> None:
    A, B = args[0], args[1]
    stats["lp_metric.hausdorff.candidate_pairs"] += 2 * len(A) * len(B)


def _count_atoms(stats, args, result) -> None:
    stats["profiles.measure_of.atoms"] += result.support_size


def _count_bytes_written(stats, args, result) -> None:
    stats["harness.bytes_written"] += sum(p.stat().st_size for p in Path(result).iterdir() if p.is_file())
