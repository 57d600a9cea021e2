"""Span recorder for the benchmark's traced run.

The recorder wraps every public function of the seven visnav modules at
every module attribute that refers to it (``visnav.mission.detect`` and
``visnav.perception.detect`` are the same function reached through two
names; both are wrapped), plus ``MotionLog.append``.  Each call becomes a
span: name, start, end, parent span and the mission it belongs to.  Spans
stay in flat in-memory arrays while the workload runs; ``layer_metrics``
reduces them to the per-layer figures and ``save`` writes them out.

Nothing under ``src/`` knows about the recorder: ``install`` replaces
module attributes and ``restore`` puts back exactly the objects it found.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

#: The package's layers, in dependency order.
MODULES = ("geometry", "perception", "control", "imagination", "sim", "mission", "harness")

def _count_data_rows(args, result) -> int:
    """Rows of the CSV file a reader was given (header excluded); read
    after the span has closed, so it costs the span nothing."""
    with open(args[0], newline="") as fh:
        return max(0, sum(1 for _ in fh) - 1)


#: Work units recorded per span, keyed by span name: ``fn(args, result)``.
#: ``result`` is None when the call raised.
UNITS = {
    "perception.detect": lambda args, result: int(result is not None),
    "sim.write_trajectory_csv": lambda args, result: len(args[0]),
    "harness.write_results_csv": lambda args, result: len(args[0]),
    "harness.read_results_csv": _count_data_rows,
    "harness.load_trajectory": _count_data_rows,
}

class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.mission = array("i")
        self.timed = array("b")
        self.units = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._mission_id = -1
        self._missions = 0
        self._timed = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _intern(self, span_name: str) -> int:
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def next_mission(self) -> None:
        """Start a mission that no ``mission.run`` span marks (open-loop flights)."""
        self._mission_id = self._missions
        self._missions += 1

    def _wrap(self, fn, span_name: str):
        nid = self._intern(span_name)
        units = UNITS.get(span_name)
        opens_mission = span_name == "mission.run"
        clock = time.perf_counter
        name, parent, mission, timed = self.name, self.parent, self.mission, self.timed
        unit, start, end, stack = self.units, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_mission = self._mission_id
            if opens_mission:
                self.next_mission()
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            mission.append(self._mission_id)
            timed.append(self._timed)
            unit.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if opens_mission:
                    self._mission_id = outer_mission
                if units is not None:
                    unit[idx] = units(args, result)

        return traced

    # --- patching ----------------------------------------------------------

    def _targets(self):
        """(span name, function, owner objects holding it under some attribute)."""
        pkg = self.package
        prefix = pkg.__name__ + "."
        holders = [pkg] + [m for n, m in sorted(sys.modules.items())
                           if n.startswith(prefix) and m is not None]
        for short in MODULES:
            mod = getattr(pkg, short)
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                yield f"{short}.{attr}", fn, holders
        motion_log = pkg.imagination.MotionLog
        yield "imagination.log_append", vars(motion_log)["append"], [motion_log]

    def install(self) -> None:
        """Wrap every traced function at every attribute that refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for span_name, fn, holders in self._targets():
            wrapper = self._wrap(fn, span_name)
            for owner in holders:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patched.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def recording(self, timed: bool):
        """Install for the duration of a block; spans opened inside carry
        ``timed`` so the timed phase can be told from untimed read-backs."""
        self._timed = int(timed)
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # --- reduction ---------------------------------------------------------

    def arrays(self):
        """Zero-copy numpy views of the span columns.  No span may be
        recorded while a view is alive."""
        import numpy as np
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "mission": np.frombuffer(self.mission, dtype=np.int32),
                "timed": np.frombuffer(self.timed, dtype=np.int8),
                "units": np.frombuffer(self.units, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str | Path) -> None:
        """Write every span (and the name table) as one .npz file."""
        import numpy as np
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, rounds: int, timed_wall_s: float) -> dict[str, float]:
        """Per-layer figures from the recorded spans.

        ``.calls`` are per round (every round repeats the same inputs, so
        they are exact counts); times are means over all recorded calls;
        ``<module>.self_share`` is the module's self time in the timed
        phase divided by the timed wall time ``timed_wall_s``.
        """
        import numpy as np
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_total = np.bincount(a["name"], weights=self_t, minlength=n_names)
        units = np.bincount(a["name"], weights=a["units"], minlength=n_names)

        def per(value_of, span_name, denom_of, scale=1e6):
            i = self._ids.get(span_name)
            d = denom_of[i] if i is not None else 0
            return float(value_of[i] / d * scale) if d else 0.0

        m: dict[str, float] = {}
        for s in ("geometry.project", "perception.render", "perception.detect",
                  "sim.capture", "sim.step", "control.compute_command",
                  "imagination.reverse", "imagination.log_append", "mission.tick"):
            i = self._ids.get(s)
            m[f"{s}.calls"] = int(calls[i]) // rounds if i is not None and rounds else 0
        for s in ("geometry.project", "perception.render", "perception.detect", "sim.step",
                  "control.compute_command", "imagination.reverse",
                  "harness.path_spread"):
            m[f"{s}.us_per_call"] = per(total, s, calls)
        for s in ("sim.capture", "mission.tick", "mission.fly_trajectory"):
            m[f"{s}.self_us_per_call"] = per(self_total, s, calls)
        m["perception.detect.hit_ratio"] = per(units, "perception.detect", calls, scale=1)
        for s in ("sim.write_trajectory_csv", "harness.write_results_csv",
                  "harness.read_results_csv", "harness.load_trajectory"):
            m[f"{s}.us_per_row"] = per(total, s, units)
        m["harness.run_campaign.self_s"] = per(self_total, "harness.run_campaign", calls,
                                               scale=1)

        # row recording: run's self time per tick it drove
        is_run = a["name"] == self._ids.get("mission.run", -1)
        ticks_under_run = np.count_nonzero(
            (a["name"] == self._ids.get("mission.tick", -1)) & has_parent
            & is_run[np.where(has_parent, a["parent"], 0)])
        m["mission.run.self_us_per_tick"] = \
            float(self_t[is_run].sum() / ticks_under_run * 1e6) if ticks_under_run else 0.0

        module_of = np.array([MODULES.index(n.split(".", 1)[0]) for n in self.names],
                             dtype=np.int64)
        timed = a["timed"] == 1
        module_self = np.bincount(module_of[a["name"][timed]], weights=self_t[timed],
                                  minlength=len(MODULES))
        for k, short in enumerate(MODULES):
            m[f"{short}.self_share"] = \
                float(module_self[k] / timed_wall_s) if timed_wall_s > 0 else 0.0
        return m

