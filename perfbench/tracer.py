"""Outside-in tracer for the traced pass.

Spans are recorded around calls into forest_spectra's public functions
from outside the program: each listed function is replaced by a timing
wrapper at every module that binds it (``cli.py`` and ``spectra.py`` bind
with ``from .x import f``, so patching only the defining module would miss
their calls), and two methods are patched on their classes.  A span is
(name, start, end, parent); spans stay in memory until the pass ends.

Counts come from the arguments and return values of the wrapped calls, never
from inside the program, and only from the outermost of nested spans of one
name (``enumerate_forests`` delegates to ``enumerate_forests_constrained``).
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _add(counts: dict, name: str, value: int) -> None:
    counts[name] = counts.get(name, 0) + value


def _calls(name: str):
    return lambda counts, args, result: _add(counts, name, 1)


def _det(counts, args, result) -> None:
    _add(counts, "linalg.det_calls", 1)
    bits = abs(result.numerator).bit_length()
    counts["linalg.det_max_bits"] = max(counts.get("linalg.det_max_bits", 0), bits)


def _rank(counts, args, result) -> None:
    # every exact_rank call on the CLI's paths ranks a catalecticant matrix
    _add(counts, "lefschetz.catalecticant_rows", args[0].nrows)
    _add(counts, "lefschetz.catalecticant_rank", result)


# (module, function, span name, counter); the counter sees (counts, args, result)
FUNCTIONS = [
    ("cli", "run", "cli.run", None),
    ("forests", "enumerate_forests", "forests.enumerate",
     lambda c, a, r: _add(c, "forests.forests_built", len(r))),
    ("forests", "enumerate_forests_constrained", "forests.enumerate",
     lambda c, a, r: _add(c, "forests.forests_built", len(r))),
    ("forests", "count_forests_constrained", "forests.count", None),
    ("forests", "forest_generating_polynomial", "forests.polynomial",
     lambda c, a, r: _add(c, "forests.polynomial_terms", r.term_count())),
    ("polynomials", "hessian_matrix", "polynomials.hessian", None),
    ("polynomials", "apply_monomial_operator", "polynomials.operator", _calls("polynomials.operator_calls")),
    ("polynomials", "evaluate", "polynomials.evaluate", None),
    ("linalg", "exact_determinant", "linalg.det", _det),
    ("linalg", "exact_rank", "linalg.rank", _rank),
    ("spectra", "tilde_hessian", "spectra.tilde_hessian",
     lambda c, a, r: _add(c, "spectra.hessian_dim", r.nrows)),
    ("spectra", "structured_params", "spectra.structured_params", None),
    ("spectra", "verify_spectrum", "spectra.verify_spectrum", None),
    ("lefschetz", "hilbert_function", "lefschetz.hilbert", None),
    ("lefschetz", "graded_basis", "lefschetz.graded_basis", None),
    ("lefschetz", "higher_hessian", "lefschetz.higher_hessian", None),
    ("lefschetz", "check_degree_one_lefschetz", "lefschetz.degree_one", None),
    ("bijections", "build_families", "bijections.build_families", None),
    *[
        ("bijections", name, "bijections.verify",
         lambda c, a, r: _add(c, "bijections.elements_checked", r.domain_size + r.codomain_size))
        for name in ("bijection_forestbij", "bijections_pr123", "bijection_pr4", "bijection_q2r5")
    ],
    ("matroids", "graphic_matroid", "matroids.build", None),
    ("matroids", "truncate", "matroids.build", lambda c, a, r: _add(c, "matroids.bases", r.basis_count)),
    ("matroids", "basis_generating_polynomial", "matroids.build", None),
    ("matroids", "verify_exchange_axiom", "matroids.exchange_axiom", None),
]

# (module, class, method, span name, counter), patched on the class itself
METHODS = [
    ("linalg", "ExactMatrix", "__matmul__", "linalg.matmul", _calls("linalg.matmul_calls")),
    ("linalg", "RowEchelon", "add", "linalg.echelon", None),
]

# Per-layer metrics: (name, unit, better, end-to-end metric it should move, where).
LAYERS = [
    ("polynomials.hessian_s", "s", "lower", "pass_s, max_instance_s",
     "spectrum-ladder (most of K_8 k=3); about 0 on families-ladder"),
    ("forests.polynomial_s", "s", "lower", "pass_s, peak_rss_mb", "spectrum-ladder; none on families-ladder"),
    ("forests.polynomial_terms", "count", "lower", "pass_s, peak_rss_mb", "spectrum-ladder; none on families-ladder"),
    ("spectra.verify_spectrum_s", "s", "lower", "pass_s",
     "spectrum-ladder; small on slp-ladder through check_degree_one_lefschetz"),
    ("linalg.matmul_s", "s", "lower", "pass_s", "spectrum-ladder; small on slp-ladder"),
    ("linalg.matmul_calls", "count", "lower", "pass_s", "spectrum-ladder; small on slp-ladder"),
    ("spectra.tilde_hessian_s", "s", "lower", "pass_s", "spectrum-ladder"),
    ("spectra.structured_params_s", "s", "lower", "pass_s", "spectrum-ladder"),
    ("spectra.hessian_dim", "rows", "lower", "pass_s", "spectrum-ladder"),
    ("linalg.det_s", "s", "lower", "pass_s", "spectrum-ladder and slp-ladder"),
    ("linalg.det_calls", "count", "lower", "pass_s", "spectrum-ladder and slp-ladder"),
    ("linalg.det_max_bits", "bits", "lower", "pass_s", "spectrum-ladder and slp-ladder"),
    ("linalg.rank_s", "s", "lower", "pass_s, max_instance_s", "slp-ladder; none elsewhere"),
    ("lefschetz.hilbert_s", "s", "lower", "pass_s, max_instance_s", "slp-ladder; none elsewhere"),
    ("lefschetz.catalecticant_rows", "rows", "lower", "pass_s, max_instance_s", "slp-ladder; none elsewhere"),
    ("lefschetz.useful_row_ratio", "ratio", "higher", "pass_s, max_instance_s", "slp-ladder; none elsewhere"),
    ("lefschetz.graded_basis_s", "s", "lower", "pass_s", "slp-ladder (graded bases computed twice)"),
    ("linalg.echelon_s", "s", "lower", "pass_s", "slp-ladder"),
    ("polynomials.operator_s", "s", "lower", "pass_s", "slp-ladder"),
    ("polynomials.operator_calls", "count", "lower", "pass_s", "slp-ladder"),
    ("lefschetz.higher_hessian_s", "s", "lower", "pass_s", "slp-ladder, mainly the seeded-point instances"),
    ("polynomials.evaluate_s", "s", "lower", "pass_s", "slp-ladder, mainly the seeded-point instances"),
    ("lefschetz.degree_one_s", "s", "lower", "pass_s", "slp-ladder"),
    ("forests.enumerate_s", "s", "lower", "pass_s, peak_rss_mb",
     "families-ladder; small on slp-ladder; none on spectrum-ladder"),
    ("forests.forests_built", "count", "lower", "pass_s, peak_rss_mb",
     "families-ladder; small on slp-ladder; none on spectrum-ladder"),
    ("forests.count_s", "s", "lower", "pass_s", "families-ladder (count-only); small on spectrum-ladder"),
    ("bijections.build_families_s", "s", "lower", "pass_s", "families-ladder"),
    ("bijections.verify_s", "s", "lower", "pass_s", "families-ladder"),
    ("bijections.elements_checked", "count", "lower", "pass_s", "families-ladder"),
    ("matroids.exchange_axiom_s", "s", "lower", "pass_s", "families-ladder"),
    ("matroids.build_s", "s", "lower", "pass_s", "families-ladder; also slp-ladder"),
    ("matroids.bases", "count", "lower", "pass_s", "families-ladder; also slp-ladder"),
    ("cli.self_s", "s", "lower", "pass_s", "families-ladder (rendering large listings)"),
    ("trace.overhead_s", "s", "lower", "none: traced pass_s minus untraced pass_s", "every workload"),
]


class Tracer:
    """Span recorder; ``install`` patches the imported forest_spectra modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == "forest_spectra" or name.startswith("forest_spectra.")
        ]
        for module, attr, span, counter in FUNCTIONS:
            original = getattr(sys.modules.get(f"forest_spectra.{module}"), attr, None)
            if original is None:
                raise LookupError(f"forest_spectra.{module}.{attr} is gone: span {span} would read 0")
            wrapped = self._wrap(original, span, counter)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)
        for module, cls, attr, span, counter in METHODS:
            klass = getattr(sys.modules.get(f"forest_spectra.{module}"), cls, None)
            if klass is None or attr not in vars(klass):
                raise LookupError(f"forest_spectra.{module}.{cls}.{attr} is gone: span {span} would read 0")
            setattr(klass, attr, self._wrap(vars(klass)[attr], span, counter))

    def _wrap(self, fn, span: str, counter):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        open_, counts, clock = self._open, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(names)
            names.append(span)
            parents.append(parent)
            ends.append(0.0)
            open_.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()
            if counter is not None and (parent < 0 or names[parent] != span):
                counter(counts, args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent index]."""
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh, separators=(",", ":"))


def self_times(spans, scales: list[float]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its child spans cover.

    Root spans are the ``cli.run`` calls, one per instance in pass order;
    every span is scaled by its root's factor in ``scales``.
    """
    out: dict[str, float] = {}
    root_of: list[int] = []  # the ordinal of each span's root
    next_root = 0
    for name, start, end, parent in spans:
        if parent < 0:
            root_of.append(next_root)
            next_root += 1
        else:
            root_of.append(root_of[parent])
        seconds = (end - start) * scales[root_of[-1]]
        out[name] = out.get(name, 0.0) + seconds
        if parent >= 0:
            out[spans[parent][0]] -= seconds
    return out


def layer_metrics(self_s: dict[str, float], counts: dict[str, int], overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, zero where the workload never reaches the layer."""
    values = {("cli.self_s" if name == "cli.run" else f"{name}_s"): s for name, s in self_s.items()}
    values.update(counts)
    rows = counts.get("lefschetz.catalecticant_rows", 0)
    values["lefschetz.useful_row_ratio"] = counts.get("lefschetz.catalecticant_rank", 0) / rows if rows else 0.0
    values["trace.overhead_s"] = overhead_s
    return {name: values.get(name, 0) for name, *_ in LAYERS}
