"""Command-line entry point: ``repro-harness`` / ``python -m repro.harness``.

Examples::

    repro-harness fig6                        # full paper matrix
    repro-harness fig7 --preset fast --scales 4,8
    repro-harness fig8 --seed 7
    repro-harness all -j 0 --json results.json   # fan out over all cores
    repro-harness fig6 --cache-dir .cache        # reuse cells across runs
    repro-harness ablations --preset fast --verify --no-cache

``--jobs``/``-j`` fans the experiment matrix out over worker processes
(``0`` = all cores; ``1``, the default, is the serial in-process path).
Every run is a pure function of its configuration and seed, so the rows
are byte-identical regardless of the worker count.  ``--cache-dir``
points the content-addressed result cache somewhere explicit and
``--no-cache`` disables it entirely.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.harness import experiments
from repro.harness.config import ExperimentOptions
from repro.harness.tables import FigureResult

#: name -> (experiment, the row field that tells a figure's lines apart);
#: every experiment is called as ``fn(options, jobs=..., cache=...)``
EXPERIMENTS = {
    "fig6": (experiments.fig6, "protocol"),
    "fig7": (experiments.fig7, "protocol"),
    "fig8": (experiments.fig8, "mode"),
    "overhead": (experiments.overhead, "protocol"),
    "ablation-ckpt-interval": (experiments.ablation_checkpoint_interval,
                               "protocol"),
    "ablation-log-gc": (experiments.ablation_log_gc, "protocol"),
    "ablation-evlog-latency": (experiments.ablation_evlog_latency, "protocol"),
    "sensitivity-frequency": (experiments.sensitivity_message_frequency,
                              "protocol"),
}

#: what ``all`` runs; ``ablations`` runs every other entry
FIGURES = ("fig6", "fig7", "fig8", "overhead")


def default_cache_dir() -> str:
    """Where results are cached unless ``--cache-dir`` says otherwise."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-harness")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the figures of 'A Lightweight Causal Message "
        "Logging Protocol to Lower Fault Tolerance Overhead' (CLUSTER 2016).",
    )
    parser.add_argument(
        "figure",
        choices=[*FIGURES, "all", "ablations"],
        help="which experiment to run",
    )
    parser.add_argument("--preset", choices=("fast", "paper"), default="paper",
                        help="workload instance size (default: paper)")
    parser.add_argument("--scales", default="4,8,16,32",
                        help="comma-separated process counts (default: 4,8,16,32)")
    parser.add_argument("--workloads", default="lu,bt,sp",
                        help="comma-separated benchmarks (default: lu,bt,sp)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--checkpoint-interval", type=float, default=0.05,
                        help="simulated seconds between checkpoints")
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the experiment matrix "
                        "(0 = all cores, 1 = serial; default: 1)")
    parser.add_argument("--cache-dir", default=default_cache_dir(), metavar="DIR",
                        help="content-addressed result cache location "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-harness)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump the raw rows as JSON")
    parser.add_argument("--plot", action="store_true",
                        help="also render each figure as an ASCII chart")
    parser.add_argument("--check", action="store_true",
                        help="validate the generated figures against the "
                        "paper's qualitative claims; non-zero exit on violation")
    parser.add_argument("--verify", action="store_true",
                        help="run the causal-consistency oracle alongside every "
                        "cell; abort on any protocol invariant violation")
    return parser.parse_args(argv)


def _options(args: argparse.Namespace) -> ExperimentOptions:
    return ExperimentOptions(
        workloads=tuple(args.workloads.split(",")),
        scales=tuple(int(s) for s in args.scales.split(",")),
        preset=args.preset,
        checkpoint_interval=args.checkpoint_interval,
        seed=args.seed,
        verify=args.verify,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parse_args(argv)
    options = _options(args)
    if args.figure == "all":
        names = list(FIGURES)
    elif args.figure == "ablations":
        names = [name for name in EXPERIMENTS if name not in FIGURES]
    else:
        names = [args.figure]
    collected: list[FigureResult] = []

    cache = None
    if not args.no_cache:
        from repro.harness.cache import ResultCache

        cache = ResultCache(args.cache_dir)

    for name in names:
        fn, line_key = EXPERIMENTS[name]
        t0 = time.perf_counter()
        result = fn(options, jobs=args.jobs, cache=cache)
        print(result.render(line_key=line_key))
        if args.plot:
            from repro.harness.plots import render_all

            print(render_all(result, line_key=line_key))
            print()
        elapsed = time.perf_counter() - t0
        execution = getattr(result, "execution", None)
        if execution is not None:
            print(f"[{name}: {execution.cells_total} cells "
                  f"({execution.cells_simulated} simulated, "
                  f"{execution.cells_cached} cached) in {elapsed:.1f}s]\n")
        else:
            print(f"[{name} took {elapsed:.1f}s]\n")
        collected.append(result)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in collected], fh, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        from repro.harness.validate import validate_figure

        violations: list[str] = []
        for result in collected:
            violations.extend(validate_figure(result))
        if violations:
            print("shape validation FAILED:")
            for v in violations:
                print(f"  - {v}")
            return 1
        print("shape validation passed: the paper's qualitative claims hold.")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
