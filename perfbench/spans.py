"""Outside-in span tracing of the pvkit package, and the per-layer numbers.

`Tracer.install()` wraps each module's public functions, plus the methods
the per-layer table names, and rebinds every module global that held an
original to its wrapper, so a caller that imported a name directly (as
`analyzer` does with `rank`) also reaches the wrapper.  A wrapped
`lru_cache` function keeps its cache behind the wrapper, so cache hits
count as calls.  Spans stay in memory until the run ends.

Spans nest properly because pvkit runs single-threaded with jobs=1, so the
part of a span covered by its children is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("catalog", "reps", "octonion", "analyzer", "linalg", "invariants",
           "grading", "rootsystems", "cli")

# (module, class, method) -> span name
METHODS = {
    ("reps", "MatrixRep", "structure_tensor"): "reps.structure_tensor",
    ("reps", "MatrixRep", "derived_subalgebra"): "reps.derived_subalgebra",
    ("linalg", "Matrix", "apply"): "linalg.Matrix.apply",
    ("linalg", "SpanSolver", "insert"): "linalg.SpanSolver.insert",
    ("linalg", "SpanSolver", "coefficients"): "linalg.SpanSolver.coefficients",
    ("invariants", "InvariantPolynomial", "__call__"): "invariants.eval",
}

# ROADMAP stages; a span's self time goes to the stage of its innermost
# enclosing span that has one, so the shares partition the traced time.
STAGES = {
    "reps.structure_tensor": "structure tensor + derived subalgebra",
    "reps.derived_subalgebra": "structure tensor + derived subalgebra",
    "analyzer.verify_relative_invariant": "invariance jets",
    "analyzer.find_generic_point": "certified point sampling",
    "analyzer.sample_certified_points": "certified point sampling",
    "analyzer.hessian_regularity": "Hessian",
    "analyzer.isotropy_algebra": "isotropy",
    "analyzer.character_space_dim": "character rank",
}
MODULE_STAGES = {"reps": "build", "grading": "diagram", "rootsystems": "diagram",
                 "catalog": "catalog and cli", "cli": "catalog and cli"}


class Tracer:
    """Records (name, start, end, parent, run id, returned True) per call."""

    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        jet_name = name + "_jet" if name == "invariants.eval" else None
        jet_type = importlib.import_module("pvkit.linalg").Jet2

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if jet_name and len(args[1]) and isinstance(args[1][0], jet_type):
                label = jet_name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.run_id, result is True)

        return wrapper

    def install(self) -> None:
        """Wrap pvkit's public functions and the METHODS; call once."""
        mods = {m: importlib.import_module(f"pvkit.{m}") for m in MODULES}
        namespaces = [vars(m) for m in mods.values()]
        namespaces.append(vars(importlib.import_module("pvkit")))
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                inner = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the original here
                if getattr(inner, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(obj, f"{short}.{attr}")
                for ns in namespaces:
                    for key, val in list(ns.items()):
                        if val is obj:
                            ns[key] = wrapper
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self._wrap(cls.__dict__[meth], name))

    def dump(self) -> list:
        return [list(s) for s in self.spans]


def write_spans(path, spans) -> None:
    """One JSON array per line: process, name, start, end, parent index
    within the process, run id, returned True."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")))
            fh.write("\n")


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Per-name calls, busy time and self time over one process's spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        covered = [0.0] * n
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_s = [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]

    def _outermost(self, i: int, match) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if match(self.spans[p][0]):
                return False
            p = self.spans[p][3]
        return True

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def trues(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[5])

    def busy(self, match) -> float:
        """Time covered by spans whose name satisfies `match` (a union)."""
        return sum(
            s[2] - s[1]
            for i, s in enumerate(self.spans)
            if match(s[0]) and self._outermost(i, match)
        )

    def self_time(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_s) if s[0] == name)

    def child_time(self, parent_name: str, child_names) -> float:
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[3] >= 0 and s[0] in child_names and self.spans[s[3]][0] == parent_name
        )

    def self_by_name(self) -> dict:
        out: dict = defaultdict(float)
        for s, t in zip(self.spans, self.self_s):
            out[s[0]] += t
        return out

    def self_by_stage(self) -> dict:
        stage_of: list = []
        out: dict = defaultdict(float)
        for s, t in zip(self.spans, self.self_s):
            stage = (
                STAGES.get(s[0])
                or MODULE_STAGES.get(_module_of(s[0]))
                or (stage_of[s[3]] if s[3] >= 0 else "other")
            )
            stage_of.append(stage)
            out[stage] += t
        return out

    def top_level_time(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)


def _name_is(name):
    return lambda n: n == name


def _in_module(module, exclude=()):
    prefix = module + "."
    return lambda n: n.startswith(prefix) and n not in exclude


_REP_METHODS = ("reps.structure_tensor", "reps.derived_subalgebra")


def layer_metrics(tables) -> dict:
    """The per-layer metrics over a list of SpanTables (one per process)."""

    def total(fn):
        return sum(fn(t) for t in tables)

    def calls(name):
        return total(lambda t: t.calls(name))

    def busy(name):
        return total(lambda t: t.busy(_name_is(name)))

    def self_s(name):
        return total(lambda t: t.self_time(name))

    tried = calls("analyzer.certify")
    out = {
        "reps.structure_tensor.calls": calls("reps.structure_tensor"),
        "reps.structure_tensor.busy_s": busy("reps.structure_tensor"),
        "reps.derived_subalgebra.self_s": self_s("reps.derived_subalgebra"),
        "reps.build.busy_s": total(lambda t: t.busy(_in_module("reps", _REP_METHODS))),
        "octonion.busy_s": total(lambda t: t.busy(_in_module("octonion"))),
        "octonion.jordan_mult_operator.busy_s": busy("octonion.jordan_mult_operator"),
        "octonion.freudenthal_value.calls": calls("octonion.freudenthal_value"),
        "analyzer.certify.calls": tried,
        "analyzer.certify.accept_ratio": (
            total(lambda t: t.trues("analyzer.certify")) / tried if tried else 0.0
        ),
        "analyzer.action_matrix.calls": calls("analyzer.action_matrix"),
        "analyzer.action_matrix.busy_s": busy("analyzer.action_matrix"),
        "analyzer.find_generic_point.busy_s": busy("analyzer.find_generic_point"),
        "analyzer.sample_certified_points.self_s": self_s("analyzer.sample_certified_points"),
        "analyzer.isotropy_algebra.calls": calls("analyzer.isotropy_algebra"),
        "analyzer.isotropy_algebra.busy_s": busy("analyzer.isotropy_algebra"),
        "analyzer.character_space_dim.self_s": self_s("analyzer.character_space_dim"),
        "analyzer.verify_relative_invariant.self_s": self_s("analyzer.verify_relative_invariant"),
        "analyzer.hessian_regularity.self_s": self_s("analyzer.hessian_regularity"),
    }
    for name in ("rank", "nullspace", "jet_line", "Matrix.apply", "bracket",
                 "SpanSolver.insert", "SpanSolver.coefficients"):
        out[f"linalg.{name}.calls"] = calls(f"linalg.{name}")
        out[f"linalg.{name}.busy_s"] = busy(f"linalg.{name}")
    out["linalg.det.busy_s"] = busy("linalg.det")
    out.update({
        "invariants.eval.calls": calls("invariants.eval"),
        "invariants.eval_jet.calls": calls("invariants.eval_jet"),
        "invariants.eval.busy_s": busy("invariants.eval"),
        "invariants.eval_jet.busy_s": busy("invariants.eval_jet"),
        "catalog.run.calls": calls("catalog.run"),
        "catalog.run.self_s": self_s("catalog.run"),
        "grading.diagram.busy_s": total(lambda t: t.busy(_in_module("grading"))),
        "rootsystems.build_root_system.calls": calls("rootsystems.build_root_system"),
        "cli.output.self_s": busy("cli.main") - total(
            lambda t: t.child_time("cli.main", ("catalog.run", "catalog.run_all"))
        ),
        "trace.spans": total(lambda t: len(t.spans)),
    })
    return out


def share_tables(tables) -> tuple[list, list]:
    """(stage, seconds, share) and (span name, self seconds, share), largest first."""
    traced = sum(t.top_level_time() for t in tables) or 1.0

    def ranked(dicts):
        acc: dict = defaultdict(float)
        for d in dicts:
            for k, v in d.items():
                acc[k] += v
        return sorted(((k, v, v / traced) for k, v in acc.items()), key=lambda r: -r[1])

    return (ranked(t.self_by_stage() for t in tables),
            ranked(t.self_by_name() for t in tables))
