"""Spans around calls into vesselstudy's public functions, from outside.

`Tracer.install` replaces each public function in the namespace where its
caller looks it up (the ``cli`` module globals, ``report``, ``protection``,
``powerflow`` and ``tdsim`` module globals, and one ``GridModel`` method)
with a wrapper that records a span; `uninstall` puts the originals back.
Nothing is installed while the end-to-end metrics are measured.

A span is (name, parent index, study index, start ns, end ns, site).  The
wrapped return value is kept until the study ends, so counters derived
from it (NR iterations, contributors, samples, steps) are computed outside
every span and add nothing to a layer's time.
"""

from __future__ import annotations

import json
import math

import numpy as np

import hostspeed

# (module attribute path, attribute, span name); a span name may be wrapped
# at several sites when different callers look the function up in
# different namespaces.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_grid", "gridfile.parse_grid"),
    ("cli", "read_sections", "gridfile.read_sections"),
    ("gridfile", "read_sections", "gridfile.read_sections"),
    ("cli", "validate", "grid.validate"),
    ("grid.GridModel", "with_breaker_states", "grid.with_breaker_states"),
    ("cli", "solve_ac_powerflow", "powerflow.solve_ac_powerflow"),
    ("tdsim", "solve_ac_powerflow", "powerflow.solve_ac_powerflow"),
    ("cli", "solve_dc_balance", "powerflow.solve_dc_balance"),
    ("powerflow", "build_ac_networks", "powerflow.build_ac_networks"),
    ("tdsim", "build_ac_networks", "powerflow.build_ac_networks"),
    ("cli", "fault_summary", "sc_ac.fault_summary"),
    ("cli", "dc_fault_summary", "sc_dc.dc_fault_summary"),
    ("protection", "build_breaker_graph", "protection.build_breaker_graph"),
    ("cli", "sequence_of_operations", "protection.sequence_of_operations"),
    ("cli", "selectivity_check", "protection.selectivity_check"),
    ("cli", "fuse_i2t_clearing", "protection.fuse_i2t_clearing"),
    ("cli", "simulate", "tdsim.simulate"),
    ("tdsim", "simulate", "tdsim.simulate"),
    ("cli", "find_cct", "tdsim.find_cct"),
    ("report", "render_csv", "report.render"),
    ("report", "render_table", "report.render"),
    ("report", "ac_trace_csv", "report.render"),
    ("report", "dc_trace_csv", "report.render"),
    ("report", "timeseries_csv", "report.render"),
    ("report", "write_artifact", "report.write_artifact"),
)

# span names whose return value (or arguments) feed a counter
_KEEP_RESULT = {"powerflow.solve_ac_powerflow", "sc_ac.fault_summary",
                "sc_dc.dc_fault_summary", "protection.sequence_of_operations",
                "tdsim.simulate"}
_KEEP_ARGS = {"tdsim.simulate", "report.write_artifact"}


def _resolve(modules: dict, path: str):
    head, _, rest = path.partition(".")
    obj = modules[head]
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        # parallel per-span lists keep the wrapper cheap
        self.names: list[str] = []
        self.parents: list[int] = []
        self.studies: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.sites: list[str] = []
        self.kept: dict[int, tuple] = {}
        self.raised: set[int] = set()   # spans whose call raised
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.study = -1

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        for path, attr, name in TARGETS:
            owner = _resolve(modules, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, path, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, site: str, fn):
        keep_result = name in _KEEP_RESULT
        keep_args = name in _KEEP_ARGS
        names, parents, studies = self.names, self.parents, self.studies
        starts, ends, sites, stack = (self.starts, self.ends, self.sites,
                                      self._stack)
        clock = hostspeed.clock_ns   # slices of the host-speed timer excluded

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            studies.append(self.study)
            sites.append(site)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised.add(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep_result or keep_args:
                self.kept[idx] = (result if keep_result else None,
                                  args if keep_args else None, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters, computed between studies --------------------------------

    def finish_study(self) -> None:
        """Turn the kept return values of the last study into counters."""
        c = self.counters
        for idx, (result, args, kwargs) in self.kept.items():
            name = self.names[idx]
            if name == "powerflow.solve_ac_powerflow":
                _add(c, "powerflow.nr_iterations", result.iterations)
            elif name == "sc_ac.fault_summary":
                _add(c, "sc_ac.contributors", len(result.traces))
                _add(c, "sc_ac.samples",
                     sum(len(tr.t) for tr in result.traces.values()))
            elif name == "sc_dc.dc_fault_summary":
                _add(c, "sc_dc.samples",
                     sum(len(tr.t) for tr in result.traces.values()))
            elif name == "protection.sequence_of_operations":
                _add(c, "protection.trip_events", len(result))
            elif name == "report.write_artifact":
                content = args[2] if len(args) > 2 else kwargs["content"]
                _add(c, "report.bytes", len(content.encode()))
            elif name == "tdsim.simulate":
                steps = len(result.t) - 1
                _add(c, "tdsim.steps", steps)
                if self._under(idx, "tdsim.find_cct"):
                    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
                    _add(c, "tdsim.cct_probes", 1)
                    _add(c, "tdsim.probe_steps", steps)
                    _add(c, "tdsim.probe_useful_steps",
                         useful_probe_steps(result, schedule))
        self.kept.clear()

    def _under(self, idx: int, name: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    # -- aggregation ---------------------------------------------------------

    def covered_ns(self, name: str, self_time: bool = False,
                   completed: bool = False) -> int:
        """Wall time covered by spans of `name` (nested ones counted once).

        With `self_time`, the part covered by child spans of any other name
        is subtracted: duration minus child coverage.  With `completed`,
        spans whose call raised are left out.
        """
        total = 0
        for i in range(len(self.names)):
            if self.names[i] != name or self._under(i, name):
                continue
            if completed and i in self.raised:
                continue
            dur = self.ends[i] - self.starts[i]
            if self_time:
                dur -= _union([(self.starts[k], self.ends[k])
                               for k in _descendants_outside(self, i, name)])
            total += dur
        return total

    def count(self, name: str, site: str | None = None) -> int:
        return sum(1 for i, nm in enumerate(self.names)
                   if nm == name and (site is None or self.sites[i] == site))

    def rebuilds(self) -> int:
        """build_ac_networks calls made by tdsim itself, minus one per run."""
        return (self.count("powerflow.build_ac_networks", site="tdsim")
                - self.count("tdsim.simulate"))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "span": i, "name": name, "parent": self.parents[i],
                    "study": self.studies[i], "site": self.sites[i],
                    "start_ns": self.starts[i], "end_ns": self.ends[i]}) + "\n")


def _descendants_outside(tr: Tracer, root: int, name: str) -> list[int]:
    """Outermost descendants of span `root` whose name differs from `name`.

    Spans are appended in start order and a child always follows its
    parent, so one forward scan from `root` finds them.
    """
    out = []
    inside = {root}
    for k in range(root + 1, len(tr.names)):
        if tr.starts[k] >= tr.ends[root]:
            break
        p = tr.parents[k]
        if p in inside:
            if tr.names[k] == name:
                inside.add(k)
            else:
                out.append(k)
    return out


def _union(intervals: list[tuple[int, int]]) -> int:
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _add(c: dict, key: str, value: float) -> None:
    c[key] = c.get(key, 0) + value


def useful_probe_steps(ts, schedule) -> int:
    """Steps a CCT probe needed before its verdict was known.

    The verdict of a probe is fixed once the rotor-angle spread after
    fault clearing reaches pi; a stable probe needs all of its steps.
    """
    clears = [ev.time for ev in schedule.events if ev.action == "fault_clear"]
    steps = len(ts.t) - 1
    deltas = [ts.channels[n] for n in sorted(ts.channels)
              if n.endswith(".delta_rad")]
    if not clears or len(deltas) < 2:
        return steps
    arr = np.vstack(deltas)
    spread = arr.max(axis=0) - arr.min(axis=0)
    after = np.flatnonzero((ts.t >= clears[0] - 1e-9) & (spread >= math.pi))
    return int(after[0]) if after.size else steps
