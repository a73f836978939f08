"""Outside-in span tracing of the ``cdga`` layers, for the traced run only.

The tracer replaces public functions and methods of each layer by wrappers
that record a span (name, start, end, parent span, job id) around the call,
and restores every original object on ``uninstall``.  Nothing under ``src/``
is edited: the wrappers are set on the classes and on every ``cdga`` module
namespace that binds the original object (``from .x import f`` copies a
reference, so patching one module alone would miss those callers).

Spans are kept in memory in flat arrays and summarised when the run ends.
A span's self time is its duration minus the time covered by its direct
children; calls run on one thread, so children nest and never overlap.
"""

from __future__ import annotations

import array
import functools
import sys
from time import perf_counter

# (span name, module, attribute path, metric group or None)
# A metric group collects calls and inclusive time; a call counts only at the
# outermost active span of its group, so an rref inside a nullspace inside a
# solve is one elimination.  Span names start with their layer.
TARGETS = [
    ("cli.main", "cdga.cli", "main", None),
    ("documents.validate_document", "cdga.documents", "validate_document", "documents.validate"),
    ("documents.load_json", "cdga.documents", "load_json", "documents.load"),
    ("documents.load_cdga", "cdga.documents", "load_cdga", "documents.load"),
    ("documents.load_lie", "cdga.documents", "load_lie", "documents.load"),
    ("documents.load_glie", "cdga.documents", "load_glie", "documents.load"),
    ("documents.load_complex", "cdga.documents", "load_complex", "documents.load"),
    ("documents.load_gram", "cdga.documents", "load_gram", "documents.load"),
    ("documents.canonical_json", "cdga.documents", "canonical_json", "documents.emit"),
    ("poly.basis_keys", "cdga.poly", "basis_keys", "poly.basis_keys"),
    ("poly.Polynomial.__mul__", "cdga.poly", "Polynomial.__mul__", "poly.mul"),
    ("algebra.Derivation.matrix", "cdga.algebra", "Derivation.matrix", "algebra.derivation_matrix"),
    ("algebra.CDGAMorphism.matrix", "cdga.algebra", "CDGAMorphism.matrix", "algebra.morphism_matrix"),
    ("algebra.FreeCDGA.to_complex", "cdga.algebra", "FreeCDGA.to_complex", "algebra.to_complex"),
    ("linalg.Mat.rref", "cdga.linalg", "Mat.rref", "linalg.elim"),
    ("linalg.Mat.nullspace", "cdga.linalg", "Mat.nullspace", "linalg.elim"),
    ("linalg.Mat.solve_matrix", "cdga.linalg", "Mat.solve_matrix", "linalg.elim"),
    ("linalg.Mat.rank", "cdga.linalg", "Mat.rank", "linalg.elim"),
    ("linalg.SparseEliminator.add", "cdga.linalg", "SparseEliminator.add", "linalg.elim"),
    ("linalg.SparseEliminator.express", "cdga.linalg", "SparseEliminator.express", "linalg.elim"),
    ("linalg.Mat.__mul__", "cdga.linalg", "Mat.__mul__", "linalg.mul"),
    ("linalg.Mat.__init__", "cdga.linalg", "Mat.__init__", "linalg.mat_new"),
    ("complexes.HomologySpace", "cdga.complexes", "HomologySpace.__init__", "complexes.homology"),
    ("complexes.GradedMap.is_chain_map", "cdga.complexes", "GradedMap.is_chain_map", "complexes.chain_check"),
    ("complexes.is_weak_equivalence", "cdga.complexes", "is_weak_equivalence", "complexes.weak_equiv"),
    ("cartan.weil_algebra", "cdga.cartan", "weil_algebra", "cartan.model"),
    ("cartan.chevalley_eilenberg", "cdga.cartan", "chevalley_eilenberg", "cartan.model"),
    ("cartan.CartanOps.verify", "cdga.cartan", "CartanOps.verify", "cartan.verify"),
    ("cartan.basic_subcomplex", "cdga.cartan", "basic_subcomplex", "cartan.basic_subcomplex"),
    ("minimal.minimal_model", "cdga.minimal", "minimal_model", "minimal.model"),
    ("minimal.certify", "cdga.minimal", "certify", "minimal.certify"),
    ("hodge.adjoint", "cdga.hodge", "adjoint", "hodge.adjoint"),
    ("hodge.harmonic_space", "cdga.hodge", "harmonic_space", "hodge.harmonic"),
    ("hodge.FockInnerProduct.gram", "cdga.hodge", "FockInnerProduct.gram", "hodge.fock_gram"),
    ("hodge.number_operator_check", "cdga.hodge", "number_operator_check", "hodge.number_op"),
    ("free.FreeGradedLie", "cdga.free", "FreeGradedLie.__init__", "free.lie_build"),
]

LAYERS = ("cli", "documents", "poly", "algebra", "linalg", "complexes",
          "cartan", "minimal", "hodge", "free")

MATRIX_METHODS = {"algebra.Derivation.matrix", "algebra.CDGAMorphism.matrix"}


def _resolve(module, path):
    """(owner, attribute name, original object) for 'f' or 'Class.method'."""
    owner = sys.modules[module]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _poly_key(poly):
    return tuple(sorted(poly.terms.items()))


def _gens_key(gens):
    return (gens.names, gens.degrees)


def matrix_content_key(name, args):
    """What a Derivation/CDGAMorphism matrix is built from: tables, degree, images."""
    op, k = args[0], args[1]
    images = tuple(sorted((n, _poly_key(p)) for n, p in op.images.items()))
    if name == "algebra.Derivation.matrix":
        return (name, _gens_key(op.algebra.gens), op.degree, k, images)
    return (name, _gens_key(op.source.gens), _gens_key(op.target.gens), k, images)


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = array.array("H")
        self.span_job = array.array("l")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = []  # open span indices
        self.group_depth = {}
        self.group_calls = {}
        self.group_time = {}
        self.job = -1
        self.elim_entries = 0
        self.elim_nnz = 0
        self.matrix_calls = 0
        self.matrix_repeats = 0
        self._seen_matrices = set()
        self._seen_job = None
        self.lie_tried = 0
        self.lie_kept = 0
        self.minimal_stages = 0
        self.minimal_generators = 0
        self.patches = []  # (owner, attribute, original) in install order

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cdga" or n.startswith("cdga.")) and m is not None]
        for nid, (name, module, path, group) in enumerate(TARGETS):
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(nid, name, group, original)
            if isinstance(owner, type):
                self.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def restored(self, originals):
        """True when every location patched earlier holds its original again."""
        for owner, attr, original in originals:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                return False
        return True

    def _wrap(self, nid, name, group, fn):
        stack = self.stack
        depth = self.group_depth
        depth.setdefault(group, 0)
        sname, sjob, sparent = self.span_name, self.span_job, self.span_parent
        sstart, send = self.span_start, self.span_end
        enter = self._enter_hook(name, group)
        leave = self._exit_hook(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(sstart)
            sname.append(nid)
            sjob.append(tracer.job)
            sparent.append(stack[-1] if stack else -1)
            sstart.append(0.0)
            send.append(0.0)
            stack.append(idx)
            outer = depth[group] == 0
            depth[group] += 1
            if enter is not None:
                enter(args, outer)
            t0 = sstart[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = send[idx] = perf_counter()
                depth[group] -= 1
                stack.pop()
                if outer and group is not None:
                    tracer.group_calls[group] = tracer.group_calls.get(group, 0) + 1
                    tracer.group_time[group] = tracer.group_time.get(group, 0.0) + (t1 - t0)
            if leave is not None:
                leave(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counters measured where the work happens -------------------------------

    def _enter_hook(self, name, group):
        if group == "linalg.elim":
            return lambda args, outer: outer and self._count_elimination(name, args)
        if name in MATRIX_METHODS:
            return lambda args, outer: self._count_matrix(name, args)
        return None

    def _exit_hook(self, name):
        if name == "linalg.SparseEliminator.add":
            def leave(args, result):
                if self.group_depth.get("free.lie_build"):
                    self.lie_tried += 1
                    self.lie_kept += result is not None
            return leave
        if name == "minimal.minimal_model":
            def leave(args, result):
                self.minimal_stages += len(result.stages)
                self.minimal_generators += len(result.model.gens.names)
            return leave
        return None

    def _count_elimination(self, name, args):
        """Adds m*n (and the nonzero count of dense matrices) of one elimination."""
        if name.startswith("linalg.SparseEliminator"):
            # one sparse row reduced against the stored echelon rows
            n = sum(1 for x in args[1].values() if x)
            self.elim_entries += n
            self.elim_nnz += n
            return
        mat = args[0]
        rows = mat.rows
        if name == "linalg.Mat.solve_matrix":
            rows = [r + b for r, b in zip(mat.rows, args[1].rows)]
        entries = sum(len(r) for r in rows)
        self.elim_entries += entries
        self.elim_nnz += sum(1 for r in rows for x in r if x)

    def _count_matrix(self, name, args):
        if self._seen_job != self.job:
            self._seen_matrices = set()
            self._seen_job = self.job
        key = matrix_content_key(name, args)
        self.matrix_calls += 1
        if key in self._seen_matrices:
            self.matrix_repeats += 1
        else:
            self._seen_matrices.add(key)

    # -- summary ------------------------------------------------------------------

    def self_times(self):
        """Per span-name (calls, self seconds) over every recorded span."""
        count = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
        return {self.names[i]: (calls[i], self_s[i]) for i in range(len(self.names))}

    def metrics(self, jobs: int):
        """Per-layer metrics, per job where they are sums."""
        per = 1.0 / max(jobs, 1)
        calls = lambda g: self.group_calls.get(g, 0) * per  # noqa: E731
        secs = lambda g: self.group_time.get(g, 0.0) * per  # noqa: E731
        selfs = self.self_times()
        out = {}
        for layer in LAYERS:
            out["%s.self_s" % layer] = (
                sum(s for n, (_, s) in selfs.items() if n.startswith(layer + ".")) * per, "s/job")
        out.update({
            "documents.validate_calls": (calls("documents.validate"), "calls/job"),
            "documents.validate_s": (secs("documents.validate"), "s/job"),
            "documents.load_s": (secs("documents.load"), "s/job"),
            "documents.emit_s": (secs("documents.emit"), "s/job"),
            "poly.basis_keys_calls": (calls("poly.basis_keys"), "calls/job"),
            "poly.basis_keys_s": (secs("poly.basis_keys"), "s/job"),
            "poly.mul_calls": (calls("poly.mul"), "calls/job"),
            "poly.mul_s": (secs("poly.mul"), "s/job"),
            "algebra.derivation_matrix_calls": (calls("algebra.derivation_matrix"), "calls/job"),
            "algebra.derivation_matrix_s": (secs("algebra.derivation_matrix"), "s/job"),
            "algebra.morphism_matrix_calls": (calls("algebra.morphism_matrix"), "calls/job"),
            "algebra.morphism_matrix_s": (secs("algebra.morphism_matrix"), "s/job"),
            "algebra.to_complex_calls": (calls("algebra.to_complex"), "calls/job"),
            "algebra.matrix_repeat_frac": (_frac(self.matrix_repeats, self.matrix_calls), "fraction"),
            "linalg.elim_calls": (calls("linalg.elim"), "calls/job"),
            "linalg.elim_s": (secs("linalg.elim"), "s/job"),
            "linalg.elim_entries": (self.elim_entries * per, "entries/job"),
            "linalg.elim_nnz_frac": (_frac(self.elim_nnz, self.elim_entries), "fraction"),
            "linalg.mul_calls": (calls("linalg.mul"), "calls/job"),
            "linalg.mul_s": (secs("linalg.mul"), "s/job"),
            "linalg.mat_new_calls": (calls("linalg.mat_new"), "calls/job"),
            "linalg.mat_new_s": (secs("linalg.mat_new"), "s/job"),
            "complexes.homology_calls": (calls("complexes.homology"), "calls/job"),
            "complexes.homology_s": (secs("complexes.homology"), "s/job"),
            "complexes.chain_check_s": (secs("complexes.chain_check"), "s/job"),
            "complexes.weak_equiv_s": (secs("complexes.weak_equiv"), "s/job"),
            "cartan.model_s": (secs("cartan.model"), "s/job"),
            "cartan.verify_s": (secs("cartan.verify"), "s/job"),
            "cartan.basic_subcomplex_s": (secs("cartan.basic_subcomplex"), "s/job"),
            "minimal.construct_s": (secs("minimal.model") - secs("minimal.certify"), "s/job"),
            "minimal.certify_s": (secs("minimal.certify"), "s/job"),
            "minimal.stages": (self.minimal_stages * per, "count/job"),
            "minimal.generators": (self.minimal_generators * per, "count/job"),
            "hodge.adjoint_s": (secs("hodge.adjoint"), "s/job"),
            "hodge.harmonic_s": (secs("hodge.harmonic"), "s/job"),
            "hodge.fock_gram_s": (secs("hodge.fock_gram"), "s/job"),
            "hodge.number_op_s": (secs("hodge.number_op"), "s/job"),
            "free.lie_build_s": (secs("free.lie_build"), "s/job"),
            "free.elim_useful_frac": (_frac(self.lie_kept, self.lie_tried), "fraction"),
        })
        return out

    def spans(self):
        """Every span as (name, start, end, parent index, job id)."""
        return [
            (self.names[n], s, e, p, j)
            for n, s, e, p, j in zip(self.span_name, self.span_start, self.span_end,
                                     self.span_parent, self.span_job)
        ]


def _frac(num, den):
    return num / den if den else 0.0
