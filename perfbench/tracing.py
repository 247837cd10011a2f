"""Per-layer tracing of growthlab, installed from outside the package.

``Tracer.install`` replaces the layers' public functions and methods with
wrappers: in every growthlab module that holds a function's name, and on
the class for a method.  Timed wrappers record a span (name, start, end,
parent span, operation id); hot word-level calls are only counted, since
timing them would cost more than the calls themselves.  Spans stay in
memory until ``write_spans``.  A layer's self time is its span durations
minus the time its child spans cover.  ``Tracer.uninstall`` puts every
original binding back, so traced and untraced passes can alternate.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from collections import defaultdict

# (metric, unit, better); every name here is reported by a traced run.
METRICS = [
    ("groups.word.calls", "count", "lower"),
    ("groups.mul.calls", "count", "lower"),
    ("groups.inverse.calls", "count", "lower"),
    ("groups.distance.calls", "count", "lower"),
    ("groups.all_geodesics.paths", "count", "lower"),
    ("balls.ball_elements.elements", "count", "lower"),
    ("balls.ball_elements.self_s", "s", "lower"),
    ("balls.sphere_counts.self_s", "s", "lower"),
    ("balls.growth_rate.self_s", "s", "lower"),
    ("stallings.stallings_fold.self_s", "s", "lower"),
    ("stallings.counts_by_length.self_s", "s", "lower"),
    ("stallings.transfer_matrix.self_s", "s", "lower"),
    ("stallings.power_iteration.self_s", "s", "lower"),
    ("stallings.power_iteration.diverged", "count", "lower"),
    ("stallings.relative_growth.self_s", "s", "lower"),
    ("schreier.complete_to.self_s", "s", "lower"),
    ("schreier.mirror_level_sizes.self_s", "s", "lower"),
    ("schreier.coset_distance.calls", "count", "lower"),
    ("schreier.states", "count", "lower"),
    ("orbits.distance_to.calls", "count", "lower"),
    ("orbits.distance_to.self_s", "s", "lower"),
    ("axes.project.calls", "count", "lower"),
    ("axes.project.self_s", "s", "lower"),
    ("axes.project.repeat_ratio", "ratio", "higher"),
    ("series.divergence_diagnostic.self_s", "s", "lower"),
    ("series.poincare_partial.self_s", "s", "lower"),
    ("audits.constriction_audit.self_s", "s", "lower"),
    ("audits.constriction_audit.pairs", "count", "lower"),
    ("audits.elementary_properties_audit.self_s", "s", "lower"),
    ("audits.quasiconvexity_audit.self_s", "s", "lower"),
    ("closure.elementary_closure.self_s", "s", "lower"),
    ("closure.find_selector_power.self_s", "s", "lower"),
    ("closure.subgroup_closure_intersection.self_s", "s", "lower"),
    ("buffering.build_axis_chain.self_s", "s", "lower"),
    ("buffering.check_buffering.self_s", "s", "lower"),
    ("theorems.verify_growth_gap.self_s", "s", "lower"),
    ("theorems.verify_quotient_growth.self_s", "s", "lower"),
    ("theorems.coarse_quotient_check.self_s", "s", "lower"),
    ("theorems.amalgam_injectivity.self_s", "s", "lower"),
    ("theorems.amalgam_injectivity.words", "count", "lower"),
    ("theorems.free_subgroup_witness.self_s", "s", "lower"),
    ("reports.render_json.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


_MISSING = object()


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, operation id, pass, child time, kept]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.pass_no = -1
        self.per_pass: list[defaultdict] = []
        self.cur: defaultdict = defaultdict(float)
        self.seen: dict = {}
        self.saved: list[tuple[object, str, object]] = []

    def start_pass(self):
        self.pass_no += 1
        self.cur = defaultdict(float)
        self.per_pass.append(self.cur)
        self.seen = {}

    # -- wrappers -----------------------------------------------------------

    def _open(self, name, keep=True):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id, self.pass_no, 0.0, keep]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = end = time.perf_counter()
        self.stack.pop()
        duration = end - record[1]
        if record[3] >= 0:
            self.spans[record[3]][6] += duration
        self.cur[record[0] + ".self_s"] += duration - record[6]
        if not record[7]:
            self.spans.pop()  # a dropped leaf is always the newest record

    def span(self, name, fn, before=None, after=None, on_error=None, keep=True):
        """Time every call of ``fn`` as a span called ``name``.

        ``keep=False`` drops the span record once closed, for hot leaves
        such as axis projections whose records would fill the memory.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            record = self._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                self._close(record)
            if after:
                after(result, args, state)
            return result
        return wrapper

    def count(self, key, fn):
        """Count the calls of ``fn`` under ``key``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.cur[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def generator(self, name, fn, key, timed):
        """Count the items a generator yields; optionally time each step."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                record = self._open(name) if timed else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if timed:
                        self._close(record)
                self.cur[key] += 1
                yield item
        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Rebind every growthlab module attribute that holds ``original``."""
        replaced = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "growthlab" or name.startswith("growthlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"{original.__qualname__} is bound in no growthlab module")

    def uninstall(self):
        """Put back every binding that ``install`` replaced."""
        while self.saved:
            owner, attr, value = self.saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def install(self):
        from growthlab import (audits, axes, balls, buffering, cli, closure, errors, groups,
                               orbits, reports, schreier, series, stallings, theorems)

        def add(key, amount):
            self.cur[key] += amount

        def function(module, attr, **hooks):
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            original = getattr(module, attr)
            self._replace_everywhere(original, self.span(name, original, **hooks))

        def method(cls, attr, name, **hooks):
            self._set(cls, attr, self.span(name, getattr(cls, attr), **hooks))

        # word kernel: counts only
        self._set(groups.MarkedGroup, "word",
                  self.count("groups.word.calls", groups.MarkedGroup.word))
        self._set(groups.Word, "__mul__", self.count("groups.mul.calls", groups.Word.__mul__))
        self._set(groups.Word, "inverse",
                  self.count("groups.inverse.calls", groups.Word.inverse))
        self._replace_everywhere(groups.distance,
                                 self.count("groups.distance.calls", groups.distance))
        self._replace_everywhere(groups.all_geodesics, self.generator(
            "groups.all_geodesics", groups.all_geodesics, "groups.all_geodesics.paths",
            timed=False))

        self._replace_everywhere(balls.ball_elements, self.generator(
            "balls.ball_elements", balls.ball_elements, "balls.ball_elements.elements",
            timed=True))
        function(balls, "sphere_counts")
        function(balls, "growth_rate")

        function(stallings, "stallings_fold")
        method(stallings.CoreGraph, "counts_by_length", "stallings.counts_by_length")
        method(stallings.CoreGraph, "transfer_matrix", "stallings.transfer_matrix")

        def diverged(exc):
            if isinstance(exc, errors.PowerIterationDiverged):
                add("stallings.power_iteration.diverged", 1)
        function(stallings, "power_iteration", on_error=diverged)
        function(stallings, "relative_growth")

        method(schreier.SchreierAutomaton, "complete_to", "schreier.complete_to",
               before=lambda args: args[0].n_states,
               after=lambda result, args, before: add("schreier.states",
                                                       args[0].n_states - before))
        method(schreier.SchreierAutomaton, "mirror_level_sizes", "schreier.mirror_level_sizes")
        self._set(schreier.SchreierAutomaton, "coset_distance", self.count(
            "schreier.coset_distance.calls", schreier.SchreierAutomaton.coset_distance))

        method(orbits.SubgroupOrbit, "distance_to", "orbits.distance_to",
               before=lambda args: add("orbits.distance_to.calls", 1))

        def repeat(args):
            seen = self.seen.setdefault(args[0], set())
            add("axes.project.calls", 1)
            if args[1] in seen:
                add("axes.project.repeats", 1)
            else:
                seen.add(args[1])
        method(axes.ProjectionMap, "project", "axes.project", before=repeat, keep=False)

        function(series, "divergence_diagnostic")
        function(series, "poincare_partial")

        function(audits, "constriction_audit",
                 after=lambda result, args, before: add("audits.constriction_audit.pairs",
                                                        result.samples))
        function(audits, "elementary_properties_audit")
        function(audits, "quasiconvexity_audit")

        function(closure, "elementary_closure")
        function(closure, "find_selector_power")
        function(closure, "subgroup_closure_intersection")

        function(buffering, "build_axis_chain")
        function(buffering, "check_buffering")

        function(theorems, "verify_growth_gap")
        function(theorems, "verify_quotient_growth")
        function(theorems, "coarse_quotient_check")
        function(theorems, "amalgam_injectivity",
                 after=lambda result, args, before: add("theorems.amalgam_injectivity.words",
                                                        result.words_checked))
        function(theorems, "free_subgroup_witness")

        function(reports, "render_json")
        function(cli, "main")

    # -- results ----------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Per-pass medians of every metric over the traced passes."""
        for counts in self.per_pass:
            calls = counts.get("axes.project.calls", 0)
            counts["axes.project.repeat_ratio"] = (
                counts.get("axes.project.repeats", 0) / calls if calls else 0.0)
        out = {}
        for name, unit, _ in METRICS:
            if name == "trace.overhead_s":
                value = overhead_s
            else:
                value = statistics.median(c.get(name, 0) for c in self.per_pass)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path, op_names: list[str]):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start", "end", "parent", "op", "op_name", "pass"])
            for i, (name, start, end, parent, op, pass_no, _, _) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, op,
                                 op_names[op] if op >= 0 else "", pass_no])
