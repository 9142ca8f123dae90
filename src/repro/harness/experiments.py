"""The paper's result figures, regenerated.

Every experiment *declares* its matrix as a plan — a generator yielding
batches of :class:`~repro.harness.runner.RunRequest` and building rows
from the returned summaries (see :mod:`repro.harness.executor`).  Every
public function takes ``(options, *, <its sweep>, jobs, cache)``: the
preset, seed and oracle stance come from the
:class:`~repro.harness.config.ExperimentOptions`, ``jobs`` fans the
batch out over worker processes and ``cache`` serves already-simulated
cells from the on-disk result cache:

* :func:`fig6` — average amount of piggyback per message (number of
  identifiers), 3 protocols × 3 benchmarks × {4, 8, 16, 32} processes;
* :func:`fig7` — time overhead of dependency tracking per rank per
  checkpoint interval, same matrix;
* :func:`fig8` — normalized accomplishment time of the blocking vs the
  non-blocking communication architecture under one injected fault
  (TDI protocol), and the derived gain.

Plus the ablations promised in DESIGN.md:

* :func:`ablation_checkpoint_interval` — TAG/TEL piggyback vs checkpoint
  period (TDI is flat: its piggyback never depends on history);
* :func:`ablation_log_gc` — TDI sender-log memory with and without
  CHECKPOINT_ADVANCE garbage collection;
* :func:`ablation_evlog_latency` — TEL piggyback vs event-logger
  stable-write latency.

Row order is the declaration order of the requests, independent of
which worker finishes first — ``jobs=8`` rows are byte-identical to
``jobs=1`` rows.
"""

from __future__ import annotations

from typing import Any

from repro.config import SimulationConfig
from repro.faults.injector import FaultSpec
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentOptions
from repro.harness.executor import execute
from repro.harness.runner import RunRequest, checkpoint_intervals_elapsed
from repro.harness.tables import FigureResult
from repro.metrics.costs import CostModel

#: where in the checkpoint cycle Fig. 8's and the overhead table's fault
#: lands, as a fraction of the interval past the last checkpoint (the
#: paper lets a full interval of work accumulate before killing); the
#: killed rank is the middle one, ``nprocs // 2``
FAULT_FRACTION = 0.95


def _request(options: ExperimentOptions, key: tuple, workload: str, *,
             faults: tuple = (), workload_kwargs: tuple = (),
             **config: Any) -> RunRequest:
    """One run of ``workload`` at ``options``' preset, seed, oracle stance
    and checkpoint interval; ``config`` sets the other
    :class:`SimulationConfig` fields, or another interval."""
    config.setdefault("checkpoint_interval", options.checkpoint_interval)
    return RunRequest(
        key=key,
        workload=workload,
        preset=options.preset,
        config=SimulationConfig(seed=options.seed, verify=options.verify,
                                **config),
        faults=faults,
        workload_kwargs=workload_kwargs,
    )


def _matrix_requests(options: ExperimentOptions) -> list[RunRequest]:
    """The shared Fig. 6/7 matrix: workloads × scales × protocols."""
    return [
        _request(options, (workload, nprocs, protocol), workload,
                 nprocs=nprocs, protocol=protocol)
        for workload in options.workloads
        for nprocs in options.scales
        for protocol in options.protocols
    ]


def fig6(options: ExperimentOptions = ExperimentOptions(), *,
         jobs: int = 1, cache: ResultCache | None = None) -> FigureResult:
    """Fig. 6: average piggyback per message, in identifiers.

    TDI carries the n-entry dependent-interval vector plus the send
    index; TAG carries an antecedence-graph increment (4 identifiers per
    determinant); TEL carries the not-yet-stable determinants plus its
    stability vector.
    """
    return execute(_fig6_plan(options), jobs=jobs, cache=cache)


def _fig6_plan(options: ExperimentOptions):
    requests = _matrix_requests(options)
    runs = yield requests
    result = FigureResult(
        figure="fig6",
        title="Average amount of piggyback per message",
        metric="identifiers per application message",
    )
    for request in requests:
        workload, nprocs, protocol = request.key
        run = runs[request.key]
        result.add(
            workload=workload,
            nprocs=nprocs,
            protocol=protocol,
            value=run.stats.piggyback_identifiers_per_message,
            messages=run.stats.messages_total,
            piggyback_bytes=run.stats.total("piggyback_bytes_raw"),
        )
    return result


def fig7(options: ExperimentOptions = ExperimentOptions(), *,
         jobs: int = 1, cache: ResultCache | None = None) -> FigureResult:
    """Fig. 7: time overhead of dependency tracking.

    Reported as milliseconds of tracking CPU per rank per checkpoint
    interval — the paper measures "logging overhead ... in a checkpoint
    interval".  Tracking covers piggyback construction and merging plus,
    for TAG/TEL, the graph-increment computation.

    The cells are the same as Fig. 6's: with a shared ``cache``, running
    both figures simulates the matrix once.
    """
    return execute(_fig7_plan(options), jobs=jobs, cache=cache)


def _fig7_plan(options: ExperimentOptions):
    requests = _matrix_requests(options)
    runs = yield requests
    result = FigureResult(
        figure="fig7",
        title="Time overhead of dependency tracking",
        metric="tracking ms per rank per checkpoint interval",
    )
    for request in requests:
        workload, nprocs, protocol = request.key
        run = runs[request.key]
        intervals = checkpoint_intervals_elapsed(run, options.checkpoint_interval)
        per_rank_interval = run.stats.tracking_time_total / nprocs / intervals
        result.add(
            workload=workload,
            nprocs=nprocs,
            protocol=protocol,
            value=per_rank_interval * 1e3,
            tracking_total_s=run.stats.tracking_time_total,
            graph_nodes_scanned=run.stats.total("graph_nodes_scanned"),
        )
    return result


def fig8(options: ExperimentOptions = ExperimentOptions(), *,
         jobs: int = 1, cache: ResultCache | None = None) -> FigureResult:
    """Fig. 8: the gain from eliminating computation blocking.

    For each benchmark and scale, four TDI runs: blocking and
    non-blocking middleware, each failure-free and with one fault
    injected ``FAULT_FRACTION`` of a checkpoint interval after the
    second checkpoint (the paper lets one interval of work accumulate,
    then kills and immediately recovers).  As in the paper, both faulted
    runs are normalized against the *blocking* faulted time, and the
    gain is the normalized difference: ``(T_blocking − T_nonblocking) /
    T_blocking``.

    Two stages: probe runs first measure the failure-free span so the
    checkpoint interval can be set to a fixed fraction of it (exactly as
    the paper's 180 s interval is a fraction of an NPB run), then the
    blocking/non-blocking × clean/faulted matrix those intervals
    parameterise.
    """
    return execute(_fig8_plan(options), jobs=jobs, cache=cache)


def _fig8_plan(options: ExperimentOptions):
    points = [(w, n) for w in options.workloads for n in options.scales]
    probes = [
        _request(options, ("probe", workload, nprocs), workload,
                 nprocs=nprocs, protocol="tdi", checkpoint_interval=1e9)
        for workload, nprocs in points
    ]
    probe_runs = yield probes

    requests = []
    for workload, nprocs in points:
        interval = probe_runs[("probe", workload, nprocs)].accomplishment_time / 6.0
        fault_time = (1.0 + FAULT_FRACTION) * interval
        for mode in ("blocking", "nonblocking"):
            for faulted in (False, True):
                requests.append(_request(
                    options,
                    (workload, nprocs, mode, "faulted" if faulted else "base"),
                    workload,
                    faults=(FaultSpec(rank=nprocs // 2, at_time=fault_time),)
                    if faulted else (),
                    nprocs=nprocs, protocol="tdi", comm_mode=mode,
                    checkpoint_interval=interval,
                ))
    runs = yield requests

    result = FigureResult(
        figure="fig8",
        title="Normalized accomplishment time: blocking vs non-blocking",
        metric="T_mode / T_blocking under one fault; gain = normalized difference",
    )
    for workload, nprocs in points:
        per_mode: dict[str, dict[str, float]] = {}
        for mode in ("blocking", "nonblocking"):
            base = runs[(workload, nprocs, mode, "base")]
            faulted = runs[(workload, nprocs, mode, "faulted")]
            per_mode[mode] = {
                "base_time": base.accomplishment_time,
                "faulted_time": faulted.accomplishment_time,
                "blocked_time": faulted.stats.total("blocked_time"),
                "rollforward_time": faulted.stats.total("rollforward_time"),
            }
        t_blocking = per_mode["blocking"]["faulted_time"]
        for mode in ("blocking", "nonblocking"):
            result.add(
                workload=workload,
                nprocs=nprocs,
                mode=mode,
                value=per_mode[mode]["faulted_time"] / t_blocking,
                **per_mode[mode],
            )
        result.add(
            workload=workload,
            nprocs=nprocs,
            mode="gain",
            value=(t_blocking - per_mode["nonblocking"]["faulted_time"]) / t_blocking,
        )
    return result


def overhead(options: ExperimentOptions = ExperimentOptions(), *,
             jobs: int = 1, cache: ResultCache | None = None) -> FigureResult:
    """§IV methodology: "logging overhead and recovery overhead in a
    checkpoint interval".

    For every (workload, scale, protocol) cell, two numbers relative to
    the no-fault-tolerance run:

    * ``logging``  — failure-free accomplishment-time overhead,
      ``T_protocol / T_none − 1``;
    * ``recovery`` — extra time one fault costs,
      ``(T_faulted − T_protocol) / T_none``.

    The extension protocols are included for the trade-off landscape:
    pessimistic logging shows that zero piggyback does not mean zero
    overhead (its synchronous stable writes dominate), and partitioned
    logging shows the pre-TDI compromise (bounded piggyback, boundary
    stalls).

    Two stages: the no-FT baselines (which set each cell's fault time),
    then the clean + faulted protocol matrix.
    """
    return execute(_overhead_plan(options), jobs=jobs, cache=cache)


def _overhead_plan(options: ExperimentOptions):
    points = [(w, n) for w in options.workloads for n in options.scales]
    protocols = tuple(options.protocols) + ("pess", "part")
    baselines = [
        _request(options, ("baseline", workload, nprocs), workload,
                 nprocs=nprocs, protocol="none")
        for workload, nprocs in points
    ]
    baseline_runs = yield baselines

    requests = []
    for workload, nprocs in points:
        t_none = baseline_runs[("baseline", workload, nprocs)].accomplishment_time
        fault_time = min(
            (1.0 + FAULT_FRACTION) * options.checkpoint_interval,
            0.5 * t_none,
        )
        for protocol in protocols:
            for faulted in (False, True):
                requests.append(_request(
                    options,
                    (workload, nprocs, protocol,
                     "faulted" if faulted else "clean"),
                    workload,
                    faults=(FaultSpec(rank=nprocs // 2, at_time=fault_time),)
                    if faulted else (),
                    nprocs=nprocs, protocol=protocol,
                ))
    runs = yield requests

    result = FigureResult(
        figure="overhead",
        title="Logging and recovery overhead per run",
        metric="fraction of the no-FT accomplishment time",
    )
    for workload, nprocs in points:
        t_none = baseline_runs[("baseline", workload, nprocs)].accomplishment_time
        for protocol in protocols:
            clean = runs[(workload, nprocs, protocol, "clean")]
            faulted = runs[(workload, nprocs, protocol, "faulted")]
            result.add(
                workload=workload,
                nprocs=nprocs,
                protocol=protocol,
                value=clean.accomplishment_time / t_none - 1.0,
                kind="logging",
                recovery=(faulted.accomplishment_time - clean.accomplishment_time)
                / t_none,
            )
    return result


# ----------------------------------------------------------------------
# Ablations (beyond the paper's figures; promised in DESIGN.md §6)
# ----------------------------------------------------------------------

def sensitivity_message_frequency(
    options: ExperimentOptions = ExperimentOptions(),
    *,
    nprocs: int = 8,
    compute_per_round: tuple[float, ...] = (2e-3, 5e-4, 1e-4, 2e-5),
    rounds: int = 40,
    fanout: int = 2,
    checkpoint_interval: float = 0.01,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> FigureResult:
    """Message-frequency sensitivity (the paper's recurring driver).

    The synthetic workload's per-round compute sets the message rate;
    sweeping it shows piggyback per message is flat for TDI but grows
    with frequency for the history-tracking protocols — "the
    effectiveness of our protocol is more significant in the scenarios
    of ... frequent message passing" (§IV.A).  TEL's window is bounded
    by the event-logger round trip and TAG's graph by the checkpoint
    interval, so both carry more determinants per message as messages
    pack more densely into those windows.

    The sweep keeps its own ``checkpoint_interval``.  The table axis
    reuses ``nprocs`` for messages-per-second (rounded, in thousands).
    """
    return execute(
        _sensitivity_plan(options, nprocs, compute_per_round, rounds, fanout,
                          checkpoint_interval),
        jobs=jobs, cache=cache,
    )


def _sensitivity_plan(options, nprocs, compute_per_round, rounds, fanout,
                      checkpoint_interval):
    requests = [
        _request(options, (compute, protocol), "synthetic",
                 workload_kwargs=(("rounds", rounds), ("fanout", fanout),
                                  ("compute_per_round", compute)),
                 nprocs=nprocs, protocol=protocol,
                 checkpoint_interval=checkpoint_interval)
        for compute in compute_per_round
        for protocol in ("tdi", "tel", "tag")
    ]
    runs = yield requests
    result = FigureResult(
        figure="sensitivity-frequency",
        title="Piggyback vs message frequency",
        metric="identifiers per message (axis: app msgs per simulated second)",
    )
    for request in requests:
        compute, protocol = request.key
        run = runs[request.key]
        frequency = run.stats.messages_total / max(run.accomplishment_time, 1e-12)
        result.add(
            workload="synthetic",
            nprocs=int(round(frequency / 1000.0)),  # k msgs/s on the axis
            protocol=protocol,
            compute_per_round=compute,
            frequency_hz=frequency,
            value=run.stats.piggyback_identifiers_per_message,
            tracking_s=run.stats.tracking_time_total,
        )
    return result


def ablation_checkpoint_interval(
    options: ExperimentOptions = ExperimentOptions(),
    *,
    workload: str = "lu",
    nprocs: int = 8,
    intervals: tuple[float, ...] = (0.01, 0.025, 0.05, 0.1),
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> FigureResult:
    """Piggyback per message vs checkpoint period.

    Checkpoints bound determinant lifetime: a longer period lets TAG's
    graph (and, to a lesser degree, TEL's unstable window) grow, while
    TDI's vector piggyback is structurally independent of the period.
    The sweep sets the interval; ``options.checkpoint_interval`` is
    unused.
    """
    return execute(_ablation_ckpt_plan(options, workload, nprocs, intervals),
                   jobs=jobs, cache=cache)


def _ablation_ckpt_plan(options, workload, nprocs, intervals):
    requests = [
        _request(options, (interval, protocol), workload,
                 nprocs=nprocs, protocol=protocol,
                 checkpoint_interval=interval)
        for interval in intervals
        for protocol in ("tdi", "tag", "tel")
    ]
    runs = yield requests
    result = FigureResult(
        figure="ablation-ckpt-interval",
        title="Piggyback sensitivity to checkpoint interval",
        metric="identifiers per message",
    )
    for request in requests:
        interval, protocol = request.key
        result.add(
            workload=workload,
            nprocs=int(interval * 1000),  # reuse the table axis
            interval=interval,
            protocol=protocol,
            value=runs[request.key].stats.piggyback_identifiers_per_message,
        )
    return result


def ablation_log_gc(
    options: ExperimentOptions = ExperimentOptions(),
    *,
    workload: str = "lu",
    nprocs: int = 8,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> FigureResult:
    """TDI sender-log peak memory with vs without CHECKPOINT_ADVANCE GC.

    "With GC" checkpoints every ``options.checkpoint_interval``;
    "without GC" is modelled by a checkpoint interval longer than the
    run, so no CHECKPOINT_ADVANCE is ever emitted.
    """
    return execute(_ablation_log_gc_plan(options, workload, nprocs),
                   jobs=jobs, cache=cache)


def _ablation_log_gc_plan(options, workload, nprocs):
    requests = [
        _request(options, (label,), workload, nprocs=nprocs, protocol="tdi",
                 checkpoint_interval=interval)
        for label, interval in (("gc", options.checkpoint_interval),
                                ("no-gc", 1e9))
    ]
    runs = yield requests
    result = FigureResult(
        figure="ablation-log-gc",
        title="Sender-log peak bytes with/without checkpoint GC",
        metric="peak log bytes per rank (mean)",
    )
    for request in requests:
        run = runs[request.key]
        result.add(
            workload=workload,
            nprocs=nprocs,
            protocol=request.key[0],
            value=run.stats.mean("log_bytes_peak"),
            released=run.stats.total("log_items_released"),
        )
    return result


def ablation_evlog_latency(
    options: ExperimentOptions = ExperimentOptions(),
    *,
    workload: str = "lu",
    nprocs: int = 8,
    latencies: tuple[float, ...] = (2e-4, 1e-3, 5e-3, 2e-2),
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> FigureResult:
    """TEL piggyback vs event-logger stable-write latency: the slower the
    logger, the wider the unstable window a message must carry."""
    return execute(_ablation_evlog_plan(options, workload, nprocs, latencies),
                   jobs=jobs, cache=cache)


def _ablation_evlog_plan(options, workload, nprocs, latencies):
    requests = [
        _request(options, (latency,), workload, nprocs=nprocs, protocol="tel",
                 costs=CostModel(evlog_latency=latency))
        for latency in latencies
    ]
    runs = yield requests
    result = FigureResult(
        figure="ablation-evlog-latency",
        title="TEL piggyback vs event-logger latency",
        metric="identifiers per message",
    )
    for request in requests:
        latency = request.key[0]
        result.add(
            workload=workload,
            nprocs=int(latency * 1e6),  # µs on the table axis
            latency=latency,
            protocol="tel",
            value=runs[request.key].stats.piggyback_identifiers_per_message,
        )
    return result
