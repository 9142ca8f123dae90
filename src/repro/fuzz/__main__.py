"""Command-line fuzzing: ``python -m repro.fuzz``.

Examples::

    python -m repro.fuzz --seed-range 0:50            # fuzz 50 scenarios
    python -m repro.fuzz --seed-range 0:500 --budget 100 --jobs 2
    python -m repro.fuzz --seed-range 0:20 --no-shrink --no-cache
    python -m repro.fuzz --seed-range 0:200 --net-bias lossy   # impaired wire
    python -m repro.fuzz --seed-range 0:200 --storage-bias hostile  # bad disk
    python -m repro.fuzz --seed-range 0:200 --compress   # compressed piggybacks
    python -m repro.fuzz --replay tests/corpus/high-water-regeneration.json

Failures are shrunk to minimal repros and written as replayable corpus
entries (``--corpus-dir``, default ``tests/corpus``); exit status is the
number of failing scenarios (capped at 99), so CI smoke jobs fail loudly
the moment the protocols disagree.  ``--replay`` exits with the number
of entries whose verdict contradicts their recorded status: a ``fixed``
entry failing again, or an ``open`` entry replaying clean (or failing
with a different signature than recorded) — masked repros fail CI too.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness.cache import ResultCache
from repro.harness.cli import default_cache_dir
from repro.fuzz.campaign import run_campaign
from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry
from repro.fuzz.differential import DEFAULT_PROTOCOLS, GROUND_TRUTH, Finding
from repro.fuzz.bands import BANDS, FLAGS, flag_choices, flag_param
from repro.protocols.registry import validate_protocols


def _parse_seed_range(text: str) -> range:
    try:
        if ":" in text:
            start, end = text.split(":", 1)
            return range(int(start), int(end))
        return range(0, int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:END or COUNT, got {text!r}") from None


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential protocol fuzzer: run seeded random "
        "scenarios under every logging protocol, diff answers, delivered "
        "message multisets and oracle verdicts, and shrink failures to "
        "replayable corpus entries.",
    )
    parser.add_argument("--seed-range", type=_parse_seed_range,
                        default=range(0, 20), metavar="START:END",
                        help="fuzz seeds to walk (default: 0:20)")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="stop after N scenarios even if the seed range "
                        "is longer")
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes per scenario batch "
                        "(0 = all cores; default: 1)")
    parser.add_argument("--protocols", default=",".join(DEFAULT_PROTOCOLS),
                        help="comma-separated protocols to diff "
                        f"(default: {','.join(DEFAULT_PROTOCOLS)})")
    parser.add_argument("--corpus-dir", default="tests/corpus", metavar="DIR",
                        help="where shrunk failures are persisted "
                        "(default: tests/corpus)")
    parser.add_argument("--no-corpus", action="store_true",
                        help="do not write corpus entries for failures")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimising them")
    parser.add_argument("--shrink-attempts", type=int, default=120,
                        metavar="N", help="evaluation budget per shrinking "
                        "session (default: 120)")
    parser.add_argument("--cache-dir", default=default_cache_dir(),
                        metavar="DIR", help="content-addressed result cache "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-harness)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--stop-after", type=int, default=None, metavar="N",
                        help="end the campaign after N failing scenarios")
    for flag, off in FLAGS.items():
        bands = [b for b in BANDS if b.flag == flag]
        if off is False:
            parser.add_argument(flag, action="store_true", help=bands[0].help)
            continue
        parser.add_argument(
            flag, choices=flag_choices(flag), default=off,
            help="; ".join(f"'{b.name}' {b.help}" for b in bands)
            + f" (default: {off})")
    parser.add_argument("--replay", metavar="ENTRY.json",
                        help="replay one corpus entry (or every entry in a "
                        "directory) instead of fuzzing")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print the final summary")
    return parser.parse_args(argv)


def _replay(args: argparse.Namespace, protocols: tuple[str, ...],
            cache: ResultCache | None) -> int:
    """``--replay``: re-run corpus entries and report their verdicts."""
    import json
    from pathlib import Path

    target = Path(args.replay)
    if target.is_dir():
        entries = load_corpus(target)
    else:
        entries = [CorpusEntry.from_json_dict(
            json.loads(target.read_text(encoding="utf-8")), path=target)]
    failing = 0
    for entry in entries:
        verdict = replay_entry(entry, protocols, jobs=args.jobs, cache=cache)
        state = "clean" if verdict.ok else "FAILING"
        print(f"{entry.path}: {state} (status={entry.status}, "
              f"{verdict.runs} runs)")
        for finding in verdict.findings:
            print(f"  {finding}")
        if entry.status == "fixed":
            # a regression: the fixed bug is back
            if not verdict.ok:
                failing += 1
        else:
            # an open entry must still fail, with the recorded failure
            # signature — a clean replay or a different breakage means
            # the repro was silently masked (or fixed: flip the status)
            if verdict.ok:
                print("  open entry replays clean — repro masked or bug "
                      "fixed; re-triage and flip its status to \"fixed\"")
                failing += 1
            else:
                recorded = {(f.protocol, f.kind) for f in
                            (Finding.parse(text) for text in entry.findings)
                            if f is not None}
                if recorded and not (recorded & verdict.signature()):
                    print(f"  open entry fails differently than recorded "
                          f"(recorded {sorted(recorded)})")
                    failing += 1
    return min(failing, 99)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    protocols = tuple(p for p in args.protocols.split(",") if p)
    try:
        validate_protocols((*protocols, GROUND_TRUTH))
    except ValueError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    if args.replay:
        return _replay(args, protocols, cache)

    t0 = time.perf_counter()
    result = run_campaign(
        args.seed_range,
        protocols=protocols,
        jobs=args.jobs,
        cache=cache,
        budget=args.budget,
        shrink=not args.no_shrink,
        shrink_attempts=args.shrink_attempts,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        stop_after=args.stop_after,
        log=None if args.quiet else print,
        **{flag_param(flag): getattr(args, flag_param(flag)) for flag in FLAGS},
    )
    elapsed = time.perf_counter() - t0

    cached = f", {cache.hits} cache hits" if cache is not None else ""
    skipped = f", {len(result.skipped)} skipped" if result.skipped else ""
    print(f"fuzz: {result.scenarios_run} scenarios, {result.runs_executed} "
          f"runs, {result.shrink_attempts} shrink evaluations{cached}"
          f"{skipped} in {elapsed:.1f}s")
    if result.ok:
        print("fuzz: all scenarios agree across "
              f"{{{', '.join(protocols)}}} — no findings")
        return 0
    for failure in result.failures:
        print(f"fuzz: seed {failure.seed} -> {failure.scenario.describe()}")
        for finding in failure.verdict.findings:
            print(f"  {finding}")
        if failure.corpus_path is not None:
            print(f"  repro: {failure.corpus_path}")
    return min(len(result.failures), 99)


if __name__ == "__main__":
    sys.exit(main())
