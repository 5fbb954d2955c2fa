"""Spans around royden's public functions, recorded from outside the package.

A Tracer replaces each wrapped function by a recording wrapper in every
royden namespace that binds it (royden.potential and royden.harmonic both
bind cg_solve, the package itself re-exports most names), and puts the
originals back on uninstall. Spans stay in memory as
[name, start, end, parent, op, info] and are written out once at the end.

Modules are resolved with importlib: the attribute royden.energy is the
function energy, not the module, so attribute access would wrap the
wrong object.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import wraps

# (module, attribute, span name); "Class.method" wraps a method
WRAPPED = (
    ("graph", "ExhaustionGenerator.section", "graph.build"),
    ("graph", "Section.index_of", "graph.index_of"),
    ("graph", "build_section", "graph.build_section"),
    ("graph", "parse_graph_file", "graph.parse"),
    ("graph", "serialize_graph_file", "graph.serialize"),
    ("graph", "parse_vertex_fn", "graph.parse"),
    ("graph", "serialize_vertex_fn", "graph.serialize"),
    ("energy", "energy_matrix", "energy.assemble"),
    ("energy", "energy", "energy.form"),
    ("energy", "energy_inner", "energy.form"),
    ("energy", "formal_laplacian", "energy.form"),
    ("numerics", "cg_solve", "numerics.cg"),
    ("numerics", "solve_rank_one", "numerics.rank_one"),
    ("numerics", "dense_eigh", "numerics.dense_eigh"),
    ("spectral", "eigsh", "spectral.eigsh"),
    ("spectral", "spectrum", "spectral.spectrum"),
    ("spectral", "eigenvalue_bounds_check", "spectral.bounds"),
    ("spectral", "spectral_gap_criterion", "spectral.gapcheck"),
    ("potential", "equilibrium_potential", "potential.equilibrium"),
    ("potential", "interior_capacities", "potential.interior_capacities"),
    ("potential", "capacity_profile", "potential.profile"),
    ("potential", "classify_transience", "potential.classify"),
    ("potential", "uniform_transience_report", "potential.ut_report"),
    ("potential", "gamma", "potential.gamma"),
    ("potential", "gamma_o", "potential.gamma"),
    ("potential", "free_resistance", "potential.gamma"),
    ("harmonic", "solve_dirichlet", "harmonic.dirichlet"),
    ("harmonic", "royden_decompose", "harmonic.decompose"),
    ("harmonic", "harmonic_boundary_empty", "harmonic.hbempty"),
    ("walker", "escape_probability", "walker.walk"),
    ("cli", "emit", "cli.emit"),
)

LAYERS = ("graph", "energy", "numerics", "spectral", "potential", "harmonic", "walker", "cli")


def _build_info(args, result):
    gen, level = args[0], args[1]
    return {"n": result.n, "key": [gen.family, repr(gen.params), int(level)]}


INFO = {
    "graph.build": _build_info,
    "energy.assemble": lambda args, result: {"nnz": int(result.matrix.nnz)},
    "numerics.cg": lambda args, result: {"iterations": result.iterations},
    "walker.walk": lambda args, result: {"trials": result.trials},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if info:
            span[5].update(info)
        self._stack.pop()

    def add(self, key: str, amount) -> None:
        """Add to a counter of the innermost open span."""
        if self._stack:
            info = self.spans[self._stack[-1]][5]
            info[key] = info.get(key, 0) + amount

    def _wrap(self, fn, name):
        extract = INFO.get(name)
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"error": type(exc).__name__}
                if hasattr(exc, "iterations"):
                    info["iterations"] = exc.iterations
                tracer.close(idx, info)
                raise
            tracer.close(idx, extract(args, result) if extract else None)
            return result

        return wrapper

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items() if k == "royden" or k.startswith("royden.")]
        for mod_name, attr, name in WRAPPED:
            owner = importlib.import_module(f"royden.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._saved.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._saved):
            setattr(target, key, orig)
        self._saved.clear()

    def extend(self, spans) -> None:
        """Append spans recorded in a child process under the innermost open span."""
        base = len(self.spans)
        root = self._stack[-1] if self._stack else None
        for name, start, end, parent, _, info in spans:
            self.spans.append([name, start, end, root if parent is None else base + parent, self.op, info])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, passes: int, ops=None) -> dict:
    """Per-pass layer metrics from the spans of `passes` identical traced passes.

    Times named *_s are inclusive: spans nested in a span of the same
    name are not counted twice. *.self_s and potential.equilibrium_self_s
    subtract the time of child spans. With ops given, only spans of those
    op ids count.
    """
    chosen = [i for i, s in enumerate(spans) if ops is None or s[4] in ops]
    dur = [s[2] - s[1] for s in spans]
    self_s = list(dur)
    for i, s in enumerate(spans):
        if s[3] is not None:
            self_s[s[3]] -= dur[i]

    def named(*names):
        return [i for i in chosen if spans[i][0] in names]

    def total(*names):
        out = 0.0
        for i in named(*names):
            p = spans[i][3]
            while p is not None and spans[p][0] not in names:
                p = spans[p][3]
            if p is None:
                out += dur[i]
        return out / passes

    def summed(name, key):
        return sum(spans[i][5].get(key, 0) for i in named(name)) / passes

    builds = named("graph.build")
    distinct = {(spans[i][4], tuple(spans[i][5]["key"])) for i in builds if "key" in spans[i][5]}
    cg = named("numerics.cg")
    m = {
        "graph.build_calls": len(builds) / passes,
        "graph.build_s": total("graph.build"),
        "graph.vertices_built": summed("graph.build", "n"),
        "graph.index_of_s": total("graph.index_of"),
        "graph.build_distinct_ratio": len(distinct) / len(builds) if builds else 0.0,
        "energy.assemble_calls": len(named("energy.assemble")) / passes,
        "energy.assemble_s": total("energy.assemble"),
        "energy.assemble_nnz": summed("energy.assemble", "nnz"),
        "energy.form_calls": len(named("energy.form")) / passes,
        "energy.form_s": total("energy.form"),
        "numerics.cg_calls": len(cg) / passes,
        "numerics.cg_s": total("numerics.cg"),
        "numerics.cg_iterations": summed("numerics.cg", "iterations"),
        "numerics.cg_failed": sum(1 for i in cg if "error" in spans[i][5]) / passes,
        "numerics.rank_one_s": total("numerics.rank_one"),
        "numerics.dense_eigh_calls": len(named("numerics.dense_eigh")) / passes,
        "numerics.dense_eigh_s": total("numerics.dense_eigh"),
        "spectral.eigsh_calls": len(named("spectral.eigsh")) / passes,
        "spectral.eigsh_s": total("spectral.eigsh"),
        "spectral.spectrum_s": total("spectral.spectrum"),
        "spectral.bounds_s": total("spectral.bounds"),
        "potential.equilibrium_calls": len(named("potential.equilibrium")) / passes,
        "potential.equilibrium_self_s": sum(self_s[i] for i in named("potential.equilibrium")) / passes,
        "potential.profile_s": total("potential.profile"),
        "potential.ut_report_s": total("potential.ut_report"),
        "potential.gamma_s": total("potential.gamma"),
        "harmonic.dirichlet_calls": len(named("harmonic.dirichlet")) / passes,
        "harmonic.dirichlet_s": total("harmonic.dirichlet"),
        "harmonic.hbempty_s": total("harmonic.hbempty"),
        "walker.walk_s": total("walker.walk"),
        "walker.trials": summed("walker.walk", "trials"),
        "cli.emit_s": total("cli.emit"),
        "cli.emit_bytes": summed("cli.emit", "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_s[i] for i in chosen if spans[i][0].startswith(layer + ".")
        ) / passes
    return m
