"""Obstacle-reconstruction benchmark.

    python3 bench/run.py --workload value-1d --seed 0 --seconds 30 --trace 0

Sets up one workload (see ``workloads.py``), then repeats rounds of data
generation, reconstruction and the checks of ``checks.py`` for about
``--seconds``: at least one round, and another only while a round as
long as the last one still ends within ``--seconds``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones and no hook is
installed; ``datagen_s`` and ``reconstruct_s`` are in reference seconds
of ``hostspeed.py``, which take out the host's drifting speed.  With
``--trace 1`` they are the per-layer metrics of ``tracing.py``, and
every span is written to ``bench/out/spans-<workload>-seed<seed>.json``.
"""

import time

PROCESS_START = time.perf_counter()  # setup_s is timed from this first statement

import os  # noqa: E402

# One BLAS thread: the sparse LU and the small dense BFGS gain nothing
# from more on this problem size, and idle BLAS threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from workloads import WORKLOADS, generate, reconstruct, set_up  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_api():
    """Import mfg_inverse from this checkout's src/, and from nowhere else."""
    package_dir = SRC / "mfg_inverse"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: {package_dir} not found; run the benchmark from a checkout")
    sys.path.insert(0, str(SRC))
    import mfg_inverse

    if Path(mfg_inverse.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported mfg_inverse from {mfg_inverse.__file__}, not {package_dir}")
    return mfg_inverse


def run_round(api, wl, prob, inp, phase, clock=time.perf_counter, datagen_calls=1):
    """``datagen_calls`` data generations and one reconstruction, each timed by
    ``clock``, then checked.  Returns the data generations' times, the
    reconstruction's time and the checks' figures."""
    datagen_s = []
    for _ in range(datagen_calls):
        start = clock()
        with phase("bench.datagen"):
            data = generate(api, wl, prob, inp)
        datagen_s.append(clock() - start)
    start = clock()
    with phase("bench.reconstruct"):
        result = reconstruct(api, wl, prob, data)
    reconstruct_s = clock() - start
    fig = checks.figures(wl.discretization, wl.kind, result, inp.b_true, inp.m0, inp.uT, data.g)
    return datagen_s, reconstruct_s, fig


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    api = import_api()
    prob, inp = set_up(api, wl)
    setup_s = time.perf_counter() - PROCESS_START

    tracer = speed = None
    phase = lambda name: contextlib.nullcontext()  # noqa: E731
    one_round = contextlib.nullcontext
    clock = time.perf_counter
    # traced rounds keep one data generation, so that per-round counts describe
    # one forward solve and one reconstruction
    datagen_calls = 1 if args.trace else wl.datagen_calls
    attempted = failed = 0
    rounds, wrong = [], []
    with contextlib.ExitStack() as stack:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            stack.enter_context(tracer.installed())
            phase, one_round = tracer.span, tracer.round
        else:
            # untraced, the times are in reference seconds of hostspeed.py
            speed = stack.enter_context(hostspeed.SpeedClock())
            clock = speed.now
        deadline = time.perf_counter() + args.seconds
        while True:
            attempted += 1
            round_start = time.perf_counter()
            try:
                with one_round():
                    datagen_s, reconstruct_s, fig = run_round(
                        api, wl, prob, inp, phase, clock, datagen_calls
                    )
            except Exception:  # a failed reconstruction is counted, and the run goes on
                traceback.print_exc()
                failed += 1
            else:
                rounds.append((datagen_s, reconstruct_s, fig))
                wrong += checks.failures(fig, wl.bounds)
                print(
                    f"round {attempted}: datagen {', '.join(f'{t:.4f}' for t in datagen_s)} s, "
                    f"reconstruct {reconstruct_s:.4f} s, "
                    + ", ".join(f"{k} {v:.3e}" for k, v in fig.items()),
                    file=sys.stderr,
                )
            # start another round only if one as long as this one still fits
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break

    if not rounds:
        print(f"error: all {attempted} reconstructions failed", file=sys.stderr)
        return 1
    for failure in wrong:
        print(f"check failed: {failure}", file=sys.stderr)

    if tracer is None:
        print(
            f"host speed: median {statistics.median(speed.speeds):.3f} over {len(speed.speeds)} probes, "
            f"which took {speed.probe_s:.3f} s",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "datagen_s": {"value": statistics.median(t for r in rounds for t in r[0]), "unit": "s"},
            "reconstruct_s": {"value": statistics.median(r[1] for r in rounds), "unit": "s"},
            "b_rel_error": {"value": statistics.median(r[2]["b_error"] for r in rounds), "unit": "1"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.metrics()
        for name, why in tracer.unmeasured_metrics().items():
            print(f"unmeasured: {name} ({why})", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.write(spans_path, workload=wl.name, seed=args.seed)
        print(f"spans written to {spans_path}", file=sys.stderr)

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
