"""In-memory span recorder around the public functions of paritylp's layers.

`SpanRecorder.install()` replaces each listed function with a wrapper that
records (layer, name, job, parent, start, end).  The wrapper is bound in
every paritylp module that holds the original object, so `from .f2lin
import enumerate_all_codes` in lp and `lp.solve_primal` reached from cli
both go through it.  Bit helpers such as `dot`, `hamming_weight` and
`vec_str`, and methods on F2Matrix / ParityCode, are not wrapped: they run
millions of times per job and their cost stays in the calling span.
Counts the per-layer metrics need are taken from arguments and results in
an "observe" span of the benchmark's own, so that time is not charged to a
layer.  `uninstall()` restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

PACKAGE = "paritylp"

# layer -> (owner, attribute) pairs; owner is a module name relative to
# paritylp, or "module.Class" for a method.
LAYERS = {
    "f2lin": ["f2lin." + f for f in (
        "rank", "kernel_generator", "dual_cosets", "enumerate_codes",
        "enumerate_all_codes", "enumerate_identity_rows",
        "uncovered_affine_subspaces", "is_universal", "gaussian_binomial",
        "char_sum")],
    "lp": ["lp." + f for f in (
        "build_primal", "build_dual", "solve", "solve_primal", "solve_dual",
        "check_primal_feasible", "check_dual_feasible",
        "complementary_slackness", "DualSolution.evaluate")],
    "simplex": ["simplex.simplex_min"],
    "bounds": ["bounds." + f for f in (
        "dual_hamming", "dual_cohamming", "dual_spike", "dual_affine_image",
        "dual_threshold_indicator", "dual_threshold_ball", "paired_dual",
        "primal_candidate", "threshold_zero_certificate", "n2_optimal",
        "count_N", "PrimalCandidate.to_solution")],
    "povm": ["povm." + f for f in (
        "build_from_primal", "verify_povm", "fourier_diag_check", "rho_eval",
        "symmetrize")],
    "simulate": ["simulate." + f for f in (
        "exact_distribution", "sample", "statevector_check")],
}

LAYER, NAME, JOB, PARENT, START, END = range(6)


def _bits(value) -> int:
    num = getattr(value, "numerator", None)
    if num is None or isinstance(value, int):
        return 0
    return max(num.bit_length(), value.denominator.bit_length())


class SpanRecorder:
    """Spans and counters of one traced round; install() before, uninstall() after."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self.counts = {
            "solves": 0, "rows": 0, "cols": 0, "pivots": 0,
            "dualized_fallbacks": 0, "value_bits_max": 0,
            "candidates": 0, "certified": 0, "elements": 0, "shots": 0,
        }
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, layer: str, name: str) -> list:
        span = [layer, name, self.job, self._stack[-1] if self._stack else None,
                time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, job_id: int, command: str):
        """The root span of one CLI job (layer cli)."""
        self.job = job_id
        span = self._open("cli", command)
        try:
            yield
        finally:
            self._close(span)
            self.job = None

    def _wrap(self, layer: str, name: str, fn, observe):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if observe is not None:
                obs = recorder._open("trace", "observe")
                observe(args, result)
                recorder._close(obs)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------
    def _observe_solve(self, args, report) -> None:
        from paritylp import lp

        model = args[0]
        c = self.counts
        c["solves"] += 1
        c["rows"] += len(model.constraints)
        c["cols"] += model.n_vars
        c["pivots"] += report.pivots
        if report.strategy == "two-phase" and lp._dual_shaped(model):
            c["dualized_fallbacks"] += 1
        values = list((report.values or {}).values()) + [report.objective]
        c["value_bits_max"] = max([c["value_bits_max"], *map(_bits, values)])

    def _observe_candidate(self, args, result) -> None:
        self.counts["candidates"] += 1

    def _observe_slackness(self, args, report) -> None:
        self.counts["certified"] += bool(report.certified)

    def _observe_build(self, args, povm_set) -> None:
        self.counts["elements"] += len(povm_set.elements)

    def _observe_sample(self, args, records) -> None:
        self.counts["shots"] += args[3]

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        observers = {
            "lp.solve": self._observe_solve,
            "bounds.primal_candidate": self._observe_candidate,
            "lp.complementary_slackness": self._observe_slackness,
            "povm.build_from_primal": self._observe_build,
            "simulate.sample": self._observe_sample,
        }
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, attr = target.partition(".")
                owner = modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, target, original, observers.get(target))
                if not isinstance(owner, types.ModuleType):
                    self._rebind(owner, attr, wrapper)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list:
        return [{"layer": s[LAYER], "name": s[NAME], "job": s[JOB], "parent": s[PARENT],
                 "start": s[START], "end": s[END]} for s in self.spans]


def layer_metrics(recorder: SpanRecorder, jobs: int, report_bytes: int,
                  overhead_ratio: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced round."""
    self_time = recorder.self_times()

    def busy(layer: str, names=None) -> float:
        return sum((t for s, t in zip(recorder.spans, self_time)
                    if s[LAYER] == layer and (names is None or s[NAME] in names)), 0.0)

    def calls(name: str) -> int:
        return sum(1 for s in recorder.spans if s[NAME] == name)

    c = recorder.counts
    simplex_s = busy("simplex")
    sample_s = busy("simulate", {"simulate.sample"})
    solves = max(c["solves"], 1)
    return {
        "simplex.busy_s": (simplex_s, "s"),
        "simplex.calls": (calls("simplex.simplex_min"), "count"),
        "simplex.pivots": (c["pivots"], "count"),
        "simplex.pivots_per_s": (c["pivots"] / simplex_s if simplex_s else 0.0, "1/s"),
        "lp.busy_s": (busy("lp"), "s"),
        "lp.build_s": (busy("lp", {"lp.build_primal", "lp.build_dual"}), "s"),
        "lp.tableau_s": (busy("lp", {"lp.solve"}), "s"),
        "lp.audit_s": (busy("lp", {"lp.check_primal_feasible", "lp.check_dual_feasible",
                                   "lp.complementary_slackness"}), "s"),
        "lp.model_rows": (c["rows"] / solves, "count"),
        "lp.model_cols": (c["cols"] / solves, "count"),
        "lp.solves_per_job": (c["solves"] / jobs, "count"),
        "lp.dualized_fallbacks": (c["dualized_fallbacks"], "count"),
        "lp.value_bits_max": (c["value_bits_max"], "bits"),
        "f2lin.busy_s": (busy("f2lin"), "s"),
        "f2lin.dual_cosets_calls": (calls("f2lin.dual_cosets"), "count"),
        "bounds.busy_s": (busy("bounds"), "s"),
        "bounds.candidates": (c["candidates"], "count"),
        "bounds.certified_ratio": (c["certified"] / c["candidates"]
                                   if c["candidates"] else 0.0, "ratio"),
        "povm.build_s": (busy("povm", {"povm.build_from_primal"}), "s"),
        "povm.verify_s": (busy("povm", {"povm.verify_povm"}), "s"),
        "povm.fourier_s": (busy("povm", {"povm.fourier_diag_check"}), "s"),
        "povm.rho_s": (busy("povm", {"povm.rho_eval"}), "s"),
        "povm.elements": (c["elements"], "count"),
        "simulate.sample_s": (sample_s, "s"),
        "simulate.shots_per_s": (c["shots"] / sample_s if sample_s else 0.0, "1/s"),
        "simulate.oracle_s": (busy("simulate", {"simulate.exact_distribution",
                                                "simulate.statevector_check"}), "s"),
        "cli.self_s": (busy("cli"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
