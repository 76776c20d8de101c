"""Span tracing of the dswarp layers, installed from outside the program.

`Tracer.install()` wraps every public function, method and property that the
dswarp modules define, and rebinds the same objects wherever another dswarp
module imported them by name.  Each call records one span (name, start, end,
parent, attribute).  Spans stay in memory and `Tracer.dump` writes them once,
as one `.npz` file.  `summarize` turns a span file into the per-layer metrics.

A layer's self time is the sum over its spans of the span's duration minus the
durations of its direct child spans.  Work a layer does without calling a
wrapped name (numpy, object construction) therefore counts to that layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("quaternion", "geometry", "spin_group", "wedges", "car_fock",
           "deformation", "verification", "cli")

# Operator methods that are traced even though their names start with "_".
OPERATORS = frozenset({"__mul__", "__rmul__", "__matmul__", "__add__", "__sub__",
                       "__neg__"})

NO_ATTR = -1


def _field_key(call, result) -> int:
    """Identity of the field vector f in field_B(model, f), for the unique share."""
    return hash(np.asarray(call["f"], dtype=complex).tobytes()) & 0x7FFFFFFFFFFFFFFF


def _probe_trials(call, result) -> int:
    return int(result.trials)


# Spans of these names carry an attribute computed from the call's bound
# arguments and its result.  A call whose shape the function no longer reads
# records NO_ATTR, so a changed signature only empties that metric.
ATTRIBUTES = {
    "car_fock.field_B": _field_key,
    "wedges.inclusion_rigidity_probe": _probe_trials,
}

# metric -> traced names whose spans it counts
CALL_COUNTS = {
    "quaternion.mul_calls": ("quaternion.Quaternion.__mul__",),
    "quaternion.qmatmul_calls": ("quaternion.QuatMatrix2.__matmul__",),
    "geometry.embed_calls": ("geometry.embed_point",),
    "spin_group.covering_hom_calls": ("spin_group.covering_hom",),
    "wedges.contains_calls": ("wedges.wedge_contains",),
    "car_fock.field_B_calls": ("car_fock.field_B",),
    "car_fock.matmul_calls": ("car_fock.FockOperator.__matmul__",),
    "car_fock.norm_calls": ("car_fock.FockOperator.norm", "car_fock.FockOperator.dist"),
    "deformation.warp_calls": ("deformation.warp",),
    "verification.random_monomial_calls": ("verification.random_monomial",),
    "verification.span_basis_calls": ("verification.span_basis",),
}

# metric -> traced names whose outermost spans it times, children included
INCLUSIVE_S = {
    "cli.report_s": ("cli.write_report", "cli.validate_report_schema"),
    "car_fock.norm_s": ("car_fock.FockOperator.norm", "car_fock.FockOperator.dist"),
    "deformation.warp_s": ("deformation.warp",),
    "deformation.oracle_s": ("deformation.warp_oscillatory",),
    "verification.random_monomial_s": ("verification.random_monomial",),
}

SELF_S = ("quaternion", "geometry", "spin_group", "wedges", "car_fock", "deformation",
          "verification")

# Names a metric needs; one missing after a refactor is reported as absent.
REQUIRED = sorted({n for names in CALL_COUNTS.values() for n in names}
                  | {n for names in INCLUSIVE_S.values() for n in names}
                  | set(ATTRIBUTES))


class Tracer:
    """Wraps the dswarp layers and keeps their spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.absent: list[str] = []

    def _wrap(self, label: str, fn):
        index = len(self.names)
        self.names.append(label)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attr = ATTRIBUTES.get(label)
        signature = inspect.signature(fn) if attr else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[slot] = (index, start, clock(), parent, NO_ATTR)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[slot] = (index, start, end, parent,
                           _attribute(attr, signature, args, kwargs, result)
                           if attr else NO_ATTR)
            return result

        return traced

    def install(self) -> None:
        """Wrap the MODULES' public callables and rebind every imported copy."""
        replaced = {}
        loaded = []
        for short in MODULES:
            try:
                mod = importlib.import_module(f"dswarp.{short}")
            except ImportError:
                continue
            loaded.append(mod)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{short}.{name}", obj)
                elif callable(obj) and not name.startswith("_"):
                    wrapper = self._wrap(f"{short}.{name}", obj)
                    replaced[id(obj)] = wrapper
                    setattr(mod, name, wrapper)
        for mod in [importlib.import_module("dswarp")] + loaded:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
        self.absent = [n for n in REQUIRED if n not in self.names]

    def _wrap_class(self, prefix: str, cls) -> None:
        if issubclass(cls, BaseException):
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            label = f"{prefix}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(label, attr.__func__)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self._wrap(label, attr.fget), attr.fset,
                                            attr.fdel, attr.__doc__))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(label, attr))

    def dump(self, path) -> None:
        """Write every finished span to one .npz file."""
        done = [s for s in self.spans if s is not None]
        table = np.array([s[:4] for s in done], dtype=float).reshape(-1, 4)
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 absent=np.array(self.absent, dtype=str),
                 name=table[:, 0].astype(np.int64),
                 start=table[:, 1], end=table[:, 2],
                 parent=table[:, 3].astype(np.int64),
                 attr=np.array([s[4] for s in done], dtype=np.int64))


def _attribute(attr, signature, args, kwargs, result) -> int:
    try:
        return attr(signature.bind(*args, **kwargs).arguments, result)
    except Exception:
        return NO_ATTR


def load(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def summarize(spans: dict) -> dict:
    """Per-layer metrics of one traced verify, from a span file's arrays.

    Metrics whose traced names are all absent read 0.  Suite times, report
    time and tracing overhead are filled in by the caller.
    """
    names = [str(n) for n in spans["names"]]
    index = {n: i for i, n in enumerate(names)}
    name, parent, attr = spans["name"], spans["parent"], spans["attr"]
    duration = spans["end"] - spans["start"]

    covered = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    self_time = duration - covered
    module_of = np.array([n.split(".", 1)[0] for n in names] or [""], dtype=object)

    out = {}
    for metric, targets in CALL_COUNTS.items():
        ids = [index[t] for t in targets if t in index]
        out[metric] = int(np.isin(name, ids).sum())
    for metric, targets in INCLUSIVE_S.items():
        ids = [index[t] for t in targets if t in index]
        mask = np.isin(name, ids)
        outer = [i for i in np.nonzero(mask)[0] if not _has_ancestor(i, parent, name, ids)]
        out[metric] = float(duration[outer].sum())
    span_module = module_of[name] if len(name) else np.array([], dtype=object)
    for module in SELF_S:
        out[f"{module}.self_s"] = float(self_time[span_module == module].sum())

    keys = _attributes(attr, name, index.get("car_fock.field_B"))
    out["car_fock.field_B_unique_share"] = (float(len(np.unique(keys)) / len(keys))
                                            if len(keys) else 0.0)
    out["wedges.probe_trials"] = int(
        _attributes(attr, name, index.get("wedges.inclusion_rigidity_probe")).sum())
    return out


def _attributes(attr: np.ndarray, name: np.ndarray, name_id) -> np.ndarray:
    """The recorded attributes of one traced name's spans, NO_ATTR dropped."""
    if name_id is None:
        return attr[:0]
    values = attr[name == name_id]
    return values[values != NO_ATTR]


def _has_ancestor(i: int, parent: np.ndarray, name: np.ndarray, ids) -> bool:
    p = parent[i]
    while p >= 0:
        if name[p] in ids:
            return True
        p = parent[p]
    return False
