"""Traced mode: spans and counters around the calls into each layer of
``mfg_inverse``, installed from outside the package.

A layer is a module of the package.  Each hook replaces one name at the
place where its callers look it up: a module-level function in its own
module and in every module of the package that imported it by name, a
method on its class, and ``splu`` on the scipy module that ``pde`` calls
it through.  A hook whose target no longer exists is not installed; the
metrics that need it are reported as unmeasured, by name, instead of
stopping the run.

Spans (name, start, end, parent, attributes) stay in memory and are
written out once, when the benchmark ends.  Their clock leaves out the
time the counters themselves take (reading a factor's fill, hashing a
policy), so no span pays for the bookkeeping.  Per-layer metrics are
computed per round from the spans and reported as the median over the
rounds of a run, so counts do not depend on how many rounds fit in it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable

import numpy as np

PACKAGE = "mfg_inverse"

# (span name, layer module, attribute path inside that module)
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("sparse.assemble", "sparse", "_step_matrix"),
    ("sparse.factor", "pde", "spla.splu"),
    ("pde.cache", "pde", "OperatorCache.__init__"),
    ("pde.level_solve", "pde", "OperatorCache.fp_solve"),
    ("pde.level_solve", "pde", "OperatorCache.hjb_solve"),
    ("pde.fp_sweep", "pde", "solve_fp"),
    ("pde.hjb_sweep", "pde", "solve_hjb_linear"),
    ("pde.adjoint_sweep", "pde", "solve_adjoint_w"),
    ("pde.coupled_adjoint", "pde", "solve_coupled_adjoint"),
    ("mfg_forward.forward_solve", "mfg_forward", "policy_iteration_forward"),
    ("inverse_policy.solve", "inverse_policy", "policy_iteration_inverse"),
    ("inverse_policy.step2", "inverse_policy", "invert_step_u0"),
    ("inverse_policy.step2", "inverse_policy", "closed_form_b"),
    ("inverse_policy.step2_eval", "inverse_policy", "step2_gradient_u0"),
    ("optim.minimize", "optim", "minimize"),
    ("direct_ls.objective", "direct_ls", "objective_direct"),
    ("direct_ls.gradient", "direct_ls", "gradient_direct"),
)

NAME, START, END, PARENT, ATTRS = range(5)


class RoundSpans:
    """The spans of one round, with the sums the metrics are made of."""

    def __init__(self, spans: list[list], lo: int, hi: int):
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_time: dict[int, float] = defaultdict(float)
        for i in range(lo, hi):
            span = spans[i]
            self.by_name[span[NAME]].append(i)
            if span[PARENT] >= 0:
                self.child_time[span[PARENT]] += span[END] - span[START]

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, name: str) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in self.by_name[name])

    def self_total(self, name: str) -> float:
        """Time inside the named spans that no hooked child span covers."""
        return sum(
            self.spans[i][END] - self.spans[i][START] - self.child_time[i]
            for i in self.by_name[name]
        )

    def count_under(self, name: str, parent: str) -> int:
        return sum(
            1
            for i in self.by_name[name]
            if self.spans[i][PARENT] >= 0 and self.spans[self.spans[i][PARENT]][NAME] == parent
        )

    def attr_sum(self, name: str, key: str) -> float:
        return sum(self.spans[i][ATTRS].get(key, 0) for i in self.by_name[name])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, spans it needs, value of one round)
METRICS: tuple[tuple[str, str, tuple[str, ...], Callable[[RoundSpans], float]], ...] = (
    ("sparse.assembly_s", "s", ("sparse.assemble",), lambda r: r.total("sparse.assemble")),
    ("sparse.factorizations", "count", ("sparse.factor",), lambda r: r.count("sparse.factor")),
    ("sparse.factor_s", "s", ("sparse.factor",), lambda r: r.total("sparse.factor")),
    (
        "sparse.fill_nnz_per_factorization", "count", ("sparse.factor",),
        lambda r: _ratio(r.attr_sum("sparse.factor", "fill_nnz"), r.count("sparse.factor")),
    ),
    ("pde.operator_caches", "count", ("pde.cache",), lambda r: r.count("pde.cache")),
    (
        "pde.repeat_policy_caches", "count", ("pde.cache", "pde.level_solve", "sparse.factor"),
        lambda r: r.attr_sum("pde.cache", "repeat"),
    ),
    ("pde.level_solves", "count", ("pde.level_solve",), lambda r: r.count("pde.level_solve")),
    (
        "pde.level_solve_s", "s", ("pde.level_solve", "sparse.factor", "sparse.assemble"),
        lambda r: r.self_total("pde.level_solve"),
    ),
    (
        "pde.solves_per_factorization", "1", ("pde.level_solve", "sparse.factor"),
        lambda r: _ratio(r.count("pde.level_solve"), r.count("sparse.factor")),
    ),
    ("pde.fp_sweeps", "count", ("pde.fp_sweep",), lambda r: r.count("pde.fp_sweep")),
    ("pde.hjb_sweeps", "count", ("pde.hjb_sweep",), lambda r: r.count("pde.hjb_sweep")),
    ("pde.adjoint_sweeps", "count", ("pde.adjoint_sweep",), lambda r: r.count("pde.adjoint_sweep")),
    (
        "pde.coupled_adjoint_calls", "count", ("pde.coupled_adjoint",),
        lambda r: r.count("pde.coupled_adjoint"),
    ),
    ("pde.coupled_adjoint_s", "s", ("pde.coupled_adjoint",), lambda r: r.total("pde.coupled_adjoint")),
    (
        "mfg_forward.forward_solves", "count", ("mfg_forward.forward_solve",),
        lambda r: r.count("mfg_forward.forward_solve"),
    ),
    (
        "mfg_forward.forward_sweeps", "count", ("mfg_forward.forward_solve", "pde.fp_sweep"),
        lambda r: r.count_under("pde.fp_sweep", "mfg_forward.forward_solve"),
    ),
    (
        "mfg_forward.forward_s", "s", ("mfg_forward.forward_solve",),
        lambda r: r.total("mfg_forward.forward_solve"),
    ),
    (
        "inverse_policy.sweeps", "count", ("inverse_policy.solve", "pde.fp_sweep"),
        lambda r: r.count_under("pde.fp_sweep", "inverse_policy.solve"),
    ),
    ("inverse_policy.step2_s", "s", ("inverse_policy.step2",), lambda r: r.total("inverse_policy.step2")),
    (
        "inverse_policy.step2_evals", "count", ("inverse_policy.step2_eval",),
        lambda r: r.count("inverse_policy.step2_eval"),
    ),
    ("optim.iterations", "count", ("optim.minimize",), lambda r: r.attr_sum("optim.minimize", "iterations")),
    (
        "optim.function_evals", "count", ("optim.minimize",),
        lambda r: r.attr_sum("optim.minimize", "function_evals"),
    ),
    ("optim.self_s", "s", ("optim.minimize",), lambda r: r.self_total("optim.minimize")),
    (
        "direct_ls.objective_evals", "count", ("direct_ls.objective",),
        lambda r: r.count("direct_ls.objective"),
    ),
    (
        "direct_ls.gradient_evals", "count", ("direct_ls.gradient",),
        lambda r: r.count("direct_ls.gradient"),
    ),
    ("direct_ls.objective_s", "s", ("direct_ls.objective",), lambda r: r.total("direct_ls.objective")),
    ("direct_ls.gradient_s", "s", ("direct_ls.gradient",), lambda r: r.total("direct_ls.gradient")),
)


def _policy_digest(args: tuple, kwargs: dict) -> bytes:
    q = kwargs["q"] if "q" in kwargs else args[3]  # OperatorCache(self, grid, eps, q)
    return hashlib.blake2b(np.ascontiguousarray(q, dtype=float).tobytes(), digest_size=16).digest()


class Tracer:
    """Collects spans from the hooks while they are installed."""

    def __init__(self, hooks: tuple[tuple[str, str, str], ...] = HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self.rounds: list[tuple[int, int]] = []
        self.unmeasured: dict[str, str] = {}  # span name -> why its hook is missing
        self._open: list[int] = []
        self._bookkeeping_s = 0.0  # time spent in the counters, kept off the span clock
        self._patches: list[tuple[object, str, object]] = []
        # policies factorized earlier in the current round, and each cache's policy
        self._factorized: set[bytes] = set()
        self._cache_policy: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._after = {
            "sparse.factor": self._after_factor,
            "pde.cache": self._after_cache,
            "pde.level_solve": self._after_level_solve,
            "optim.minimize": self._after_minimize,
        }

    # -- spans -------------------------------------------------------------

    def clock(self) -> float:
        """perf_counter less the time the counters took, so no span pays for them."""
        return time.perf_counter() - self._bookkeeping_s

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, {}])
        self._open.append(index)
        self.spans[index][START] = self.clock()
        return index

    def _end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    @contextlib.contextmanager
    def round(self):
        """A root span for one round; repeated policies are counted per round.

        Only a round that completes counts towards the metrics."""
        self._factorized.clear()
        lo = len(self.spans)
        with self.span("bench.round"):
            yield
        self.rounds.append((lo, len(self.spans)))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        after = self._after.get(name)
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if name == "optim.minimize" and args and callable(args[0]):
                args = (tracer._wrap("optim.objective", args[0]),) + args[1:]
            index = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(index)
            if after is not None:
                start = time.perf_counter()
                after(index, args, kwargs, result)
                tracer._bookkeeping_s += time.perf_counter() - start
            return result

        return hooked

    # -- counters attached to spans ---------------------------------------

    def _after_factor(self, index, args, kwargs, lu) -> None:
        self.spans[index][ATTRS]["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)

    def _after_cache(self, index, args, kwargs, result) -> None:
        digest = _policy_digest(args, kwargs)
        self._cache_policy[args[0]] = digest
        if digest in self._factorized:
            self.spans[index][ATTRS]["repeat"] = 1

    def _after_level_solve(self, index, args, kwargs, result) -> None:
        # the spans after this one are its descendants: the solve has returned
        if any(span[NAME] == "sparse.factor" for span in self.spans[index + 1 :]):
            digest = self._cache_policy.get(args[0])
            if digest is not None:
                self._factorized.add(digest)

    def _after_minimize(self, index, args, kwargs, report) -> None:
        attrs = self.spans[index][ATTRS]
        attrs["iterations"] = int(report.iterations)
        attrs["function_evals"] = int(report.function_evals)

    # -- installing the hooks ---------------------------------------------

    def _sites(self, module_name: str, path: str) -> tuple[object, list[tuple[object, str]]]:
        """The original object and every (owner, attribute) it is looked up at."""
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        sites = [(owner, attr)]
        if not owner_path:  # a module-level name: also where it was imported by name
            for name, module in list(sys.modules.items()):
                if module is owner or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                sites += [(module, alias) for alias, value in vars(module).items() if value is original]
        return original, sites

    def install(self) -> None:
        resolved = []
        for span_name, module_name, path in self.hooks:
            try:
                resolved.append((span_name, *self._sites(module_name, path)))
            except (ImportError, AttributeError) as exc:
                self.unmeasured.setdefault(span_name, f"{PACKAGE}.{module_name}.{path}: {exc}")
        for span_name, original, sites in resolved:
            if span_name in self.unmeasured:
                continue  # a span is measured only if every target of it is hooked
            hooked = self._wrap(span_name, original)
            for owner, attr in sites:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, hooked)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric, as the median over rounds; None if unmeasured."""
        rounds = [RoundSpans(self.spans, lo, hi) for lo, hi in self.rounds]
        unmeasured = self.unmeasured_metrics()
        out = {}
        for name, unit, _, value in METRICS:
            if name in unmeasured or not rounds:
                out[name] = {"value": None, "unit": unit}
            else:
                out[name] = {"value": statistics.median(value(r) for r in rounds), "unit": unit}
        return out

    def unmeasured_metrics(self) -> dict[str, str]:
        """metric name -> the missing hook target that leaves it unmeasured."""
        out = {}
        for name, _, needs, _ in METRICS:
            missing = [span for span in needs if span in self.unmeasured]
            if missing:
                out[name] = self.unmeasured[missing[0]]
        return out

    def write(self, path, **header) -> None:
        """Write every span as one JSON document."""
        doc = {
            **header,
            "unmeasured": self.unmeasured,
            "fields": ["name", "start_s", "end_s", "parent", "attrs"],  # times on Tracer.clock
            "rounds": self.rounds,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
