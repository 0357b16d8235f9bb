"""Benchmark of hiermoment, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``. Each run
is one process and one workload. It times ``setup_s`` (the median of five
imports of hiermoment by a fresh interpreter plus the median of five input
generations; CSV inputs are written after that, untimed), then rounds of
one fit and one scoring of held-out rows, after a warm-up round, until
``--seconds`` have passed; ``fit_s`` and ``predict_s`` are medians over the
timed rounds. Every round's outputs are checked. With ``--trace 1`` the
rounds are traced and the per-layer metrics are printed instead. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 5
MIN_ROUNDS = 3  # timed rounds, after the warm-up round

# Per-layer metric -> the span or counter it is read from. Names, units and
# directions of all metrics are in BENCHMARK.json.
PER_LAYER = {
    "simulate.gen_replicate_s": "simulate.gen_replicate",
    "data.from_long_s": "data.from_long",
    "combine.standardize_s": "combine.standardize",
    "groups.build_summary_set_s": "groups.build_summary_set",
    "linalg.compact_svd_s": "linalg.compact_svd",
    "families.fit_glm_s": "families.fit_glm",
    "families.irls_iterations": "families.irls_iterations",
    "families.irls_iter_max": "families.irls_iter_max",
    "combine.make_weights_s": "combine.make_weights",
    "combine.fixed_effects_s": "combine.fixed_effects",
    "combine.omega2_and_bias_s": "combine.omega2_and_bias",
    "combine.sigma_hat_s": "combine.sigma_hat",
    "combine.passes": "combine.passes",
    "ebayes.posterior_set_s": "ebayes.posterior_set",
    "ebayes.predict_grouped_s": "ebayes.predict_grouped",
    "cli.fit_self_s": "cli.fit",
    "cli.predict_self_s": "cli.predict",
    "cli.bytes_read": "cli.bytes_read",
    "cli.bytes_written": "cli.bytes_written",
    "groups.attempted": "groups.attempted",
    "groups.summarized": "groups.summarized",
    "groups.skipped": "groups.skipped",
    "trace.fit_s": "trace.fit",
    "trace.predict_s": "trace.predict",
}


def install_tracing(tracer):
    """Trace the layers below the benchmark's own calls by swapping names at
    the sites where hiermoment's modules import them."""
    from hiermoment import cli, combine, data, groups

    def count_pass(t, _):
        t.count("combine.passes")

    def count_groups(t, sset):
        t.count("groups.summarized", len(sset.summaries))
        t.count("groups.skipped", len(sset.skipped))
        t.count("groups.attempted", len(sset.summaries) + len(sset.skipped))

    def count_irls(t, glm):
        t.count("families.irls_iterations", glm.iterations)
        t.record_max("families.irls_iter_max", glm.iterations)

    def count_irls_error(t, exc):
        if getattr(exc, "fit", None) is not None:
            count_irls(t, exc.fit)

    tracer.patch(data.GroupedDataset, "from_long", "data.from_long")
    tracer.patch(combine, "standardize", "combine.standardize")
    tracer.patch(combine, "build_summary_set", "groups.build_summary_set",
                 on_result=count_groups)
    tracer.patch(combine, "make_weights", "combine.make_weights",
                 on_result=count_pass)
    for name in ("fixed_effects", "omega2_and_bias", "sigma_hat"):
        tracer.patch(combine, name, "combine." + name)
    tracer.patch(groups, "compact_svd", "linalg.compact_svd")
    tracer.patch(groups, "fit_glm", "families.fit_glm",
                 on_result=count_irls, on_error=count_irls_error)
    tracer.patch(cli, "fit_moment", "combine.fit_moment")
    tracer.patch(cli, "posterior_set", "ebayes.posterior_set")


def layer_values(tracer, scale=1.0):
    """Self seconds, counts and maxima recorded since the last reset."""
    out = {k: v * scale for k, v in tracer.self_seconds().items()}
    out.update({k: v * scale if scale != 1.0 else v
                for k, v in tracer.counts.items()})
    out.update(tracer.maxima)
    tracer.reset()
    return out


def merge(*parts):
    out = {}
    for part in parts:
        for k, v in part.items():
            out[k] = max(out.get(k, 0), v) if k.endswith("_max") \
                else out.get(k, 0) + v
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def import_seconds():
    """Median time for a fresh interpreter to import hiermoment."""
    code = ("import time; t = time.perf_counter(); import hiermoment; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=60).stdout)
        for _ in range(SETUPS))


def run(args):
    src = os.path.join(ROOT, "src")
    try:
        import hiermoment
    except ImportError as e:
        print(f"error: cannot import hiermoment from {src}: {e}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(hiermoment.__file__).startswith(src + os.sep):
        print(f"error: hiermoment was imported from {hiermoment.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    import workloads as wl
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = wl.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    workdir = os.path.join(os.getcwd(), ".bench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, wl, spec, tracer, span, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def measure(args, wl, spec, tracer, span, workdir, import_s):
    setups, gen_layer = [], []
    inputs = None
    for _ in range(SETUPS):
        inputs = None  # free the previous copy before drawing the next
        inputs, seconds = timed(wl.make_inputs, spec, args.seed, span)
        setups.append(seconds)
        if tracer:
            gen_layer.append(layer_values(tracer))
    if spec.csv:
        # Writing the CSVs is the benchmark's own work: not part of setup_s.
        wl.write_csv_inputs(inputs, workdir)
    setup_rss = peak_rss_mb()
    if tracer:
        install_tracing(tracer)

    attempted = failed = rounds = 0
    correct = True
    fit_times, predict_times, layers = [], [], []
    check_failures = Counter()
    last = deadline = None
    # Round 1 is the warm-up; every round runs the same calls and checks, so
    # the failed share of attempted operations is the same in every run.
    while rounds <= MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        try:
            fitted, fit_s = timed(wl.fit, inputs, tracer)
            fit_layer = layer_values(tracer) if tracer else {}
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(spec.predict_repeats):
                predicted = wl.predict(inputs, fitted, tracer)
            predict_s = (time.perf_counter() - t0) / spec.predict_repeats
            pred_layer = layer_values(tracer, 1.0 / spec.predict_repeats) \
                if tracer else {}
            out = wl.collect(inputs, fitted, predicted, tracer)
        except Exception:
            traceback.print_exc()
            attempted += len(inputs.raw)
            failed += len(inputs.raw)
            correct = False
        else:
            results = wl.checks(inputs, out)
            attempted += out.attempted + len(results)
            failed += len(out.skipped)
            for name, ok, exact in results:
                if not ok:
                    failed += 1
                    check_failures[name] += 1
                    correct = correct and not exact
            if rounds > 1:
                fit_times.append(fit_s)
                predict_times.append(predict_s)
                if tracer:
                    layers.append(merge(fit_layer, pred_layer,
                                        layer_values(tracer),
                                        {"trace.fit": fit_s,
                                         "trace.predict": predict_s}))
            last = out
        if rounds == 1:
            if not correct:
                break
            deadline = time.perf_counter() + args.seconds
    for name, n in sorted(check_failures.items()):
        print(f"check {name} failed in {n} of {rounds} rounds",
              file=sys.stderr)

    if tracer:
        tracer.restore()
        if last is not None and not reproduces_untraced(wl, inputs, last):
            correct = False
            print("check failed: traced fit differs from untraced fit",
                  file=sys.stderr)

    if not fit_times:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    if tracer:
        values = {"simulate.gen_replicate":
                  statistics.median(g.get("simulate.gen_replicate", 0.0)
                                    for g in gen_layer)}
        for key in {k for layer in layers for k in layer}:
            values[key] = statistics.median(layer.get(key, 0)
                                            for layer in layers)
        metrics = {m["name"]: {"value": values.get(PER_LAYER[m["name"]], 0),
                               "unit": m["unit"]}
                   for m in args.spec["per_layer"]}
    else:
        metrics = {
            "fit_s": statistics.median(fit_times),
            "predict_s": statistics.median(predict_times),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in args.spec["end_to_end"]}
    print(f"{args.workload} seed {args.seed}: {len(fit_times)} timed rounds, "
          f"{time.perf_counter() - _START:.1f} s in all; fit "
          f"{' '.join(f'{t:.3f}' for t in fit_times)}; setup "
          f"{' '.join(f'{t:.3f}' for t in setups)} + import {import_s:.3f}; "
          f"peak RSS {setup_rss:.1f} MiB after setup, {peak_rss_mb():.1f} "
          f"MiB at the end",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def reproduces_untraced(wl, inputs, out):
    """The traced fit must equal an untraced fit bitwise: for the in-process
    workloads ``beta_scaled`` and ``sigma_scaled``, for the command line the
    fit artifact, whose floats are written with ``repr``."""
    import numpy as np

    if inputs.spec.csv:
        wl.fit(inputs)
        with open(inputs.files["model"]) as fh:
            return fh.read() == out.fit
    _, plain, _ = wl.fit(inputs)
    return (np.array_equal(plain.beta_scaled, out.fit.beta_scaled)
            and np.array_equal(plain.sigma_scaled, out.fit.sigma_scaled))


def main(argv=None):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.spec = spec
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
