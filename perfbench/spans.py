"""Span recorder and per-module metrics for the traced benchmark run.

Spans are recorded by wrapping public functions and methods of the loaded
``pseudoform`` modules at run time; nothing under ``src/`` is edited.  A
span is ``[name, start, end, parent, call_id, duals, extra]``: ``parent``
is the index of the enclosing span (-1 at top level), ``call_id`` numbers
the CLI call it belongs to, ``duals`` counts the ``Dual`` objects built
inside it, and ``extra`` holds counts read from its result.  Spans stay in
memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


class Recorder:
    def __init__(self):
        self.spans = []
        self.duals = 0
        self.call_id = 0
        self._stack = []
        self._patches = []

    def _span(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, self.duals, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                record[5] = self.duals - record[5]
            if measure is not None:
                record[6] = measure(result)
            return result

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.duals += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced boundary; ``restore`` undoes it."""
        from pseudoform import autodiff

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("pseudoform") and m]
        for name, module, attr, measure in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(name, original, measure)
            # modules that imported the function by name hold their own reference
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, module, cls_name, attr, measure in METHODS:
            base = getattr(sys.modules[module], cls_name)
            for cls in [base, *_subclasses(base)]:
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._span(name, cls.__dict__[attr], measure))
        self._patch(autodiff.Dual, "__init__", self._counted(autodiff.Dual.__init__))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, call_id, duals, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "call_id": call_id, "duals": duals, "extra": extra}) + "\n")


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def _count(key, size):
    return lambda result: {key: size(result)}


# (span name, module, attribute, result -> extra counts)
FUNCTIONS = [
    ("cli.run", "pseudoform.cli", "run", None),
    ("formlang.parse", "pseudoform.formlang", "parse_oneform", None),
    ("formlang.parse", "pseudoform.formlang", "parse_scalar", None),
    ("pfaff.classify", "pseudoform.pfaff", "classify", None),
    ("calculus.exterior_derivative", "pseudoform.calculus", "exterior_derivative", None),
    ("geometry.connection_form", "pseudoform.geometry", "connection_form", None),
    ("geometry.fundamental_forms", "pseudoform.geometry", "fundamental_forms", None),
    ("geometry.curvatures", "pseudoform.geometry", "shape_and_curvatures", None),
    ("curves.integrate_geodesic", "pseudoform.curves", "integrate_geodesic",
     _count("steps", lambda curve: len(curve.s) - 1)),
    ("curves.rk4_step", "pseudoform.integrate", "rk4_step", None),
    ("integrate.linear_rk4_orbit", "pseudoform.integrate", "linear_rk4_orbit",
     lambda states: {"steps": states.shape[0] - 1, "bytes": states.nbytes}),
    ("foucault.simulate", "pseudoform.foucault", "simulate_pendulum", None),
    ("foucault.measure_precession", "pseudoform.foucault", "measure_precession",
     _count("windows", lambda est: len(est.window_centers))),
    ("foucault.transport", "pseudoform.foucault", "parallel_transport", None),
]

# (span name, module, class, method, result -> extra counts); subclasses that
# override the method are wrapped too
METHODS = [
    ("pfaff.points", "pseudoform.pfaff", "RegionSampler", "points", _count("samples", len)),
    ("calculus.components_at", "pseudoform.calculus", "OneForm", "components_at", None),
    ("calculus.jacobian", "pseudoform.calculus", "OneForm", "values_and_jacobian", None),
    ("geometry.frame", "pseudoform.geometry", "AdaptedFrame", "matrix_at", None),
    ("geometry.frame", "pseudoform.geometry", "AdaptedFrame", "matrix_and_derivative", None),
]


# -- span arithmetic ---------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def outermost(spans):
    """Spans with no ancestor of the same name, grouped by name.

    Nested spans of one name (``parse_oneform`` calling ``parse_scalar``)
    would otherwise count their time and calls twice.
    """
    groups = {}
    for index, span in enumerate(spans):
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent < 0:
            groups.setdefault(span[0], []).append(index)
    return groups


def _under(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, duals, output_bytes, csv_rows):
    """Per-module metrics of one traced pass."""
    groups = outermost(spans)

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in groups.get(name, ()))

    def calls(name):
        return len(groups.get(name, ()))

    def duals_in(name):
        return sum(spans[i][5] for i in groups.get(name, ()))

    def extra(name, key):
        return sum(spans[i][6][key] for i in groups.get(name, ()))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    self_s = self_times(spans)
    samples = extra("pfaff.points", "samples")
    steps = extra("curves.integrate_geodesic", "steps")
    orbit_steps = extra("integrate.linear_rk4_orbit", "steps")
    geodesic_frames = sum(1 for i in groups.get("geometry.frame", ())
                          if _under(spans, i, "curves.integrate_geodesic"))
    return {
        "cli.run_s": busy("cli.run"),
        "cli.self_s": sum(self_s[i] for i in groups.get("cli.run", ())),
        "cli.output_bytes": output_bytes,
        "cli.rows": csv_rows,
        "formlang.parse_s": busy("formlang.parse"),
        "formlang.parse_calls": calls("formlang.parse"),
        "pfaff.points_s": busy("pfaff.points"),
        "pfaff.classify_s": busy("pfaff.classify"),
        "pfaff.samples": samples,
        "pfaff.us_per_sample": per(busy("pfaff.classify"), samples, 1e6),
        "calculus.components_at_calls": calls("calculus.components_at"),
        "calculus.components_at_s": busy("calculus.components_at"),
        "calculus.jacobian_calls": calls("calculus.jacobian"),
        "calculus.jacobian_s": busy("calculus.jacobian"),
        "calculus.exterior_derivative_s": busy("calculus.exterior_derivative"),
        "autodiff.dual_allocs": duals,
        "autodiff.duals_per_sample": per(duals_in("pfaff.classify"), samples),
        "autodiff.duals_per_step": per(duals_in("curves.integrate_geodesic"), steps),
        "geometry.frame_calls": calls("geometry.frame"),
        "geometry.frame_s": busy("geometry.frame"),
        "geometry.connection_form_calls": calls("geometry.connection_form"),
        "geometry.fundamental_forms_s": busy("geometry.fundamental_forms"),
        "geometry.curvatures_s": busy("geometry.curvatures"),
        "curves.integrate_geodesic_s": busy("curves.integrate_geodesic"),
        "curves.steps": steps,
        "curves.rk4_step_us": per(busy("curves.rk4_step"), calls("curves.rk4_step"), 1e6),
        "curves.frame_calls_per_step": per(geodesic_frames, steps),
        "integrate.linear_rk4_orbit_s": busy("integrate.linear_rk4_orbit"),
        "integrate.orbit_steps": orbit_steps,
        "integrate.ns_per_step": per(busy("integrate.linear_rk4_orbit"), orbit_steps, 1e9),
        "integrate.orbit_bytes": extra("integrate.linear_rk4_orbit", "bytes"),
        "foucault.simulate_s": busy("foucault.simulate"),
        "foucault.measure_precession_s": busy("foucault.measure_precession"),
        "foucault.windows": extra("foucault.measure_precession", "windows"),
        "foucault.transport_s": busy("foucault.transport"),
    }


def median_metrics(passes):
    """Median of each metric over passes (counts repeat, so they pass through)."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


# -- import time ---------------------------------------------------------------------


def import_breakdown(stderr_text):
    """Seconds of import time from ``python -X importtime`` output.

    Sums each module's self time, so a package's figure holds its own
    submodules and nothing they import from other packages.
    """
    totals = {"import.total_s": 0.0, "import.scipy_s": 0.0,
              "import.numpy_s": 0.0, "import.pseudoform_s": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        seconds = int(fields[0]) * 1e-6
        package = fields[2].strip().split(".")[0]
        totals["import.total_s"] += seconds
        key = f"import.{package}_s"
        if key in totals:
            totals[key] += seconds
    return totals
