"""Traced mode: hooks come off cleanly, counts repeat, missing targets are named."""

import mfg_inverse
from mfg_inverse import direct_ls, mfg_forward, pde

import run
import tracing
from conftest import small_workload
from workloads import set_up


def traced_round(name, hooks=tracing.HOOKS):
    wl = small_workload(name)
    prob, inp = set_up(mfg_inverse, wl)
    tracer = tracing.Tracer(hooks)
    with tracer.installed():
        with tracer.round():
            run.run_round(mfg_inverse, wl, prob, inp, tracer.span)
    return tracer


def values(tracer):
    return {name: metric["value"] for name, metric in tracer.metrics().items()}


def test_hooks_are_removed_after_the_run():
    originals = [
        (pde, "solve_fp", pde.solve_fp),
        (mfg_forward, "solve_fp", mfg_forward.solve_fp),
        (pde.OperatorCache, "__init__", pde.OperatorCache.__init__),
        (pde.spla, "splu", pde.spla.splu),
        (direct_ls, "solve_coupled_adjoint", direct_ls.solve_coupled_adjoint),
    ]
    traced_round("rate-1d")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original


def test_counts_repeat_exactly_between_traced_runs():
    first, second = values(traced_round("direct-1d")), values(traced_round("direct-1d"))
    counts = [name for name, unit, _, _ in tracing.METRICS if unit != "s"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["direct_ls.objective_evals"] > 0
    assert first["pde.coupled_adjoint_calls"] == first["direct_ls.gradient_evals"] > 0


def test_every_metric_is_measured_on_the_current_code():
    tracer = traced_round("value-1d")
    assert tracer.unmeasured == {}
    measured = values(tracer)
    assert all(value is not None for value in measured.values())
    assert measured["inverse_policy.step2_evals"] > 0
    assert measured["pde.adjoint_sweeps"] > 0
    assert measured["inverse_policy.sweeps"] > 0


def test_missing_hook_target_is_reported_unmeasured_by_name():
    hooks = tuple(h for h in tracing.HOOKS if h[0] != "pde.level_solve") + (
        ("pde.level_solve", "pde", "OperatorCache.fp_solve"),
        ("pde.level_solve", "pde", "OperatorCache.renamed_solve"),
        ("inverse_policy.step2", "no_such_module", "closed_form_b"),
    )
    tracer = traced_round("rate-1d", hooks)
    unmeasured = tracer.unmeasured_metrics()
    assert "OperatorCache.renamed_solve" in unmeasured["pde.level_solves"]
    assert "no_such_module" in unmeasured["inverse_policy.step2_s"]
    measured = values(tracer)
    for name in ("pde.level_solves", "pde.level_solve_s", "pde.solves_per_factorization",
                 "pde.repeat_policy_caches", "inverse_policy.step2_s"):
        assert measured[name] is None
    assert measured["sparse.factorizations"] > 0
    # the target of a span whose other target is missing is not hooked either
    assert not any(span[tracing.NAME] == "pde.level_solve" for span in tracer.spans)

