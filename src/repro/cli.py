"""Command-line interface.

Examples::

    python -m repro run --model bert-0.64 --server dgx1 --system mpress
    python -m repro run --model gpt-5.3 --server dgx1 --faults seed:42
    python -m repro profile --model gpt-10.3 --server dgx1
    python -m repro plan --model gpt-20.4 --server dgx1 --out plan.json
    python -m repro zero --model gpt-25.5 --server dgx2 --variant infinity
    python -m repro capacity --family bert --server dgx1 --system recomputation
    python -m repro serve-sim --model gpt-5.3 --server dgx1 --kv-swap d2d
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.job import TrainingJob
from repro.jobspec import (
    PIPELINES,
    SERVERS,
    SYSTEMS,
    build_cluster,
    build_server,
    default_pipeline,
    job_from_spec,
    load_job,
    parse_model,
)
from repro.models.bert import BERT_VARIANTS
from repro.models.gpt import GPT_VARIANTS
from repro.units import fmt_bytes


def _require_single_node(args, command: str) -> None:
    nodes = getattr(args, "nodes", 1) or 1
    if nodes > 1:
        raise ConfigurationError(
            f"'{command}' simulates one server, but --nodes {nodes} asks "
            f"for a cluster; drop --nodes, or use 'hybrid --nodes {nodes}' "
            f"or 'sweep --nodes {nodes}' for cluster runs")


def _cluster_path(args, explicit: bool) -> bool:
    """Whether ``plan``/``hybrid`` runs the cluster path.

    More than one node, ``--tp > 1``, or an ``explicit`` degree flag
    the single-server path has no use for (jobspec's rule) selects it.
    """
    if args.sp and args.tp < 2:
        raise ConfigurationError(
            "--sp shards a tensor-parallel group's activations; "
            "it needs --tp > 1")
    return explicit or (args.nodes or 1) > 1 or args.tp > 1


def _build_job(args) -> TrainingJob:
    if getattr(args, "spec", None):
        return load_job(args.spec)
    if not args.model:
        raise ConfigurationError("either --model or --spec is required")
    return job_from_spec({"model": args.model, "server": args.server,
                          "pipeline": args.pipeline,
                          "microbatch_size": args.microbatch})


# -- subcommands --------------------------------------------------------------


def _resolve_faults(spec: str, job: TrainingJob, horizon: float):
    """``--faults`` argument: a JSON schedule path or ``seed:N``.

    ``seed:N`` generates a random campaign over the fault-free run's
    makespan, so the injected windows land inside the training run.
    """
    from repro.faults import load_faults, random_schedule

    if spec.startswith("seed:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"--faults {spec!r}: seed must be an integer")
        return random_schedule(seed=seed, n_devices=job.server.n_gpus, horizon=horizon)
    try:
        return load_faults(spec)
    except OSError as error:
        raise ConfigurationError(f"--faults {spec!r}: {error}")
    except (ValueError, KeyError) as error:
        raise ConfigurationError(f"--faults {spec!r}: not a fault schedule ({error})")


def _cmd_run(args) -> int:
    import dataclasses

    from repro.core.mpress import MPress, run_system
    from repro.core.planner import baseline_config
    from repro.core.serialization import save_plan
    from repro.sim.chrome_trace import save_chrome_trace
    from repro.sim.executor import simulate

    _require_single_node(args, "run")
    job = _build_job(args)
    custom_knobs = getattr(args, "no_striping", False) or (
        getattr(args, "mapping", "auto") != "auto"
    )
    config = None
    if args.system != "none":
        config = baseline_config(args.system)
        if custom_knobs:
            config = dataclasses.replace(
                config,
                striping=not args.no_striping,
                mapping_mode=args.mapping,
            )
    if config is not None:
        result = MPress(job, config).run()
    else:
        result = run_system(job, args.system)
    status = "ok" if result.ok else "OUT OF MEMORY"
    print(f"{job.model.config.name} / {args.system} on {job.server.name}: {status}")
    if result.ok:
        print(f"  throughput: {result.tflops:.1f} TFLOPS "
              f"({result.samples_per_second:.1f} samples/s)")
        peaks = result.simulation.peak_memory_per_gpu
        print(f"  per-GPU peaks: {' '.join(fmt_bytes(p) for p in peaks)}")
        print(result.plan.summary())
    faulted = None
    faults = None
    if args.faults and result.ok:
        faults = _resolve_faults(args.faults, job, result.simulation.makespan)
        # Re-plan for the degraded machine, then train through the
        # fault campaign; the fault-free run above is the yardstick.
        if config is not None:
            faulted = MPress(job, config, faults=faults).run().simulation
        else:
            faulted = simulate(job, result.plan, strict=True, faults=faults)
        if faulted.ok and faulted.resilience is not None:
            print(f"  --- fault campaign ({args.faults}) ---")
            print("  " + faulted.resilience.summary().replace("\n", "\n  "))
            print(f"  fault-free: {result.samples_per_second:.2f} samples/s | "
                  f"goodput: "
                  f"{faulted.resilience.goodput_samples_per_second:.2f} samples/s")
        elif not faulted.ok:
            print("  fault campaign: OUT OF MEMORY")
        if args.faults_report and faulted.resilience is not None:
            with open(args.faults_report, "w") as handle:
                handle.write(faulted.resilience.to_json())
            print(f"  resilience report written to {args.faults_report}")
    if args.save_plan:
        save_plan(result.plan, args.save_plan)
        print(f"  plan written to {args.save_plan}")
    if args.chrome_trace and result.ok:
        traced = faulted if faulted is not None and faulted.ok else result.simulation
        save_chrome_trace(traced.trace, args.chrome_trace, faults=faults)
        print(f"  chrome trace written to {args.chrome_trace}")
    ok = result.ok and (faulted is None or faulted.ok)
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    from repro.core.profiler import Profiler

    _require_single_node(args, "profile")
    job = _build_job(args)
    profile = Profiler(job).run()
    print(f"{job.model.config.name} on {job.server.name} ({job.system}):")
    for stage, peak in enumerate(profile.stage_peaks):
        flag = " OVER" if peak > job.server.gpu_memory else ""
        print(f"  stage {stage}: {fmt_bytes(peak)}{flag}")
    print(f"  total demand {fmt_bytes(profile.total_demand())} "
          f"vs {fmt_bytes(job.server.total_gpu_memory)} available")
    shares = profile.memory_breakdown_percent()
    print("  breakdown: " + ", ".join(f"{k} {v:.0f}%" for k, v in shares.items()))
    return 0


def _cmd_plan(args) -> int:
    from repro.core.mpress import MPress
    from repro.core.serialization import save_plan

    job = _build_job(args)
    placement = None
    cluster = None
    if _cluster_path(args, explicit=args.dp != 1 or args.pp != 0):
        from repro.parallel.cluster import ClusterConfig, plan_chain_job

        cluster = build_cluster(args.server, args.nodes, args.fabric)
        config = ClusterConfig(tp=args.tp, dp=args.dp, pp=args.pp,
                               sequence_parallel=args.sp)
        job, placement = plan_chain_job(job, cluster, config)
        if not args.json:
            chain = ",".join(str(d) for d in placement.chain(0, 0))
            print(f"cluster {cluster.name}: tp={placement.tp} "
                  f"dp={placement.dp} pp={placement.pp} ({placement.mode} "
                  f"placement); planning chain [{chain}]")
    mpress = MPress(job)
    plan = mpress.build_plan()
    report = mpress.planner_report
    if args.json:
        from repro.units import GiB

        payload = {
            "model": job.model.config.name,
            "server": job.server.name,
            "feasible": report.feasible,
            "minibatch_seconds": report.final_time,
            "refine_iterations": report.refine_iterations,
            "accepted_upgrades": report.accepted_upgrades,
            "n_emulations": report.n_emulations,
            "per_gpu_peak_gib": [peak / GiB for peak in report.final_peaks],
            "shape": None,
            "mapping": None,
        }
        mapping = report.mapping
        if mapping is not None:
            payload["mapping"] = {
                "device_map": mapping.device_map,
                "score": mapping.score,
                "placed_fraction": mapping.placed_fraction,
                "mappings_evaluated": mapping.mappings_evaluated,
                "distinct_evaluations": mapping.distinct_evaluations,
                "bound_pruned": mapping.bound_pruned,
            }
        if placement is not None:
            payload["shape"] = {
                "tp": placement.tp, "dp": placement.dp, "pp": placement.pp,
                "placement_mode": placement.mode,
                "cluster": cluster.name,
                "score": placement.score,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plan.summary())
        print(f"feasible: {report.feasible}; emulated minibatch "
              f"{report.final_time:.2f}s after {report.refine_iterations} "
              f"refinements")
        print(f"{report.n_emulations} emulations")
    if args.out:
        save_plan(plan, args.out)
        if not args.json:
            print(f"plan written to {args.out}")
    return 0 if report.feasible else 1


def _cmd_autoplan(args) -> int:
    """Shape search: rank every (tp, dp, pp) the job could run with."""
    from repro.autoplan import AutoPlanConfig, autoplan

    job = _build_job(args)
    cluster = build_cluster(args.server, args.nodes, args.fabric)
    config = AutoPlanConfig(
        budget_gib=args.budget_gib,
        frontier_fraction=args.frontier_fraction,
        max_frontier=args.max_frontier,
        sequence_parallel=args.sp,
    )
    runtime = _sweep_runtime(args) if (args.jobs > 1 or args.cache) else None
    report = autoplan(job, cluster, config=config, system=args.system,
                      runtime=runtime)
    if args.json:
        print(report.json_text(job))
    else:
        print(report.summary())
    best = report.best
    return 0 if best is not None and best.ok else 1


def _cmd_zero(args) -> int:
    from repro.baselines.zero import ZeroOptions, run_zero

    model = parse_model(args.model)
    server = build_server(args.server)
    options = ZeroOptions(
        ring_efficiency=args.ring_efficiency,
        comm_overlap=args.comm_overlap,
        comm_model=args.comm_model,
    )
    result = run_zero(model, server, args.variant, args.samples,
                      options=options)
    if not result.ok:
        print(f"ZeRO-{args.variant} cannot train {model.config.name}: {result.reason}")
        return 1
    print(f"ZeRO-{args.variant} / {model.config.name} on {server.name}: "
          f"{result.tflops:.1f} TFLOPS "
          f"(compute {result.compute_time:.2f}s, "
          f"comm exposed {result.comm_exposed:.2f}s, "
          f"offload exposed {result.offload_exposed:.2f}s)")
    return 0


def _cmd_hybrid(args) -> int:
    """DP x PP on one server, or TP x DP x PP on the cluster path."""
    from repro.analysis.reporting import format_table
    from repro.parallel import (
        ClusterConfig,
        HybridConfig,
        run_cluster,
        run_hybrid,
    )
    from repro.units import MiB

    cluster_path = _cluster_path(args, explicit=args.pp != 0)
    if cluster_path and args.placement != "auto":
        raise ConfigurationError(
            "--placement lays replicas out on one server; with "
            "--nodes/--tp/--pp use --cluster-placement")
    if not cluster_path and args.cluster_placement != "auto":
        raise ConfigurationError(
            "--cluster-placement applies with --nodes/--tp/--pp; on one "
            "server use --placement")
    job = _build_job(args)
    sync = dict(algorithm=args.algorithm,
                bucket_bytes=int(args.bucket_mib * MiB),
                overlap=not args.no_overlap,
                collective_mode=args.collective)
    if cluster_path:
        cluster = build_cluster(args.server, args.nodes, args.fabric)
        config = ClusterConfig(tp=args.tp, dp=args.dp, pp=args.pp,
                               sequence_parallel=args.sp,
                               placement_mode=args.cluster_placement, **sync)
        result = run_cluster(job, cluster, config, system=args.system)
    else:
        config = HybridConfig(dp=args.dp, placement_mode=args.placement,
                              **sync)
        result = run_hybrid(job, config, system=args.system)
    status = "ok" if result.ok else "OUT OF MEMORY"
    print(f"{job.model.config.name} / tp={result.tp} dp={result.dp} "
          f"pp={result.pp} {args.system} on {result.cluster.name}: {status}")
    chains = " | ".join(
        ";".join(",".join(str(d) for d in chain) for chain in replica)
        for replica in result.placement.chains)
    print(f"  placement ({result.placement.mode}): {chains}")
    if not result.ok:
        print(f"  {result.oom}")
        return 1
    print(f"  throughput: {result.tflops:.1f} TFLOPS "
          f"({result.samples_per_second:.1f} samples/s, "
          f"{result.dp} x {job.samples_per_minibatch} samples/minibatch)")
    print(f"  minibatch: {result.minibatch_time * 1e3:.2f} ms "
          f"(chain {result.chain_minibatch_time * 1e3:.2f} ms + "
          f"TP sync {result.exposed_tp_sync * 1e3:.2f} ms + "
          f"exposed all-reduce {result.exposed_allreduce * 1e3:.2f} ms)")
    if result.tp_sync:
        rows = [
            [str(sync.stage), str(sync.n_groups),
             f"{sync.microbatch_seconds * 1e3:.3f}",
             f"{sync.minibatch_seconds * 1e3:.3f}"]
            for sync in result.tp_sync
        ]
        print(format_table(
            ["stage", "groups", "microbatch ms", "minibatch ms"],
            rows, title="tensor-parallel collectives"))
    if result.stage_allreduce:
        rows = [
            [
                str(sync.stage),
                ",".join(str(d) for d in sync.devices),
                sync.algorithm,
                fmt_bytes(sync.grad_bytes),
                str(sync.n_buckets),
                f"{sync.allreduce_seconds * 1e3:.3f}",
                f"{sync.exposed_seconds * 1e3:.3f}",
            ]
            for sync in result.stage_allreduce
        ]
        print(format_table(
            ["stage", "devices", "algorithm", "grads", "buckets",
             "all-reduce ms", "exposed ms"],
            rows, title="gradient synchronisation"))
    peaks = result.peak_memory_per_gpu()
    print(f"  per-GPU peaks: {' '.join(fmt_bytes(p) for p in peaks)}")
    return 0


def _cmd_capacity(args) -> int:
    from repro.core.capacity import max_trainable_variant

    server = build_server(args.server)
    sizes = BERT_VARIANTS if args.family == "bert" else GPT_VARIANTS
    variants = {b: parse_model(f"{args.family}-{b}") for b in sorted(sizes)}
    pipeline = PIPELINES[default_pipeline(args.family)]
    builder = lambda model: pipeline(model, server)  # noqa: E731
    result = max_trainable_variant(variants, builder, args.system)
    if result.any_trainable:
        print(f"largest trainable {args.family} under {args.system}: "
              f"{result.largest}B (survivors: {result.survivors})")
        return 0
    print(f"no {args.family} variant trainable under {args.system}")
    return 1


def _cmd_project(args) -> int:
    from repro.analysis.projection import project

    print(project(n_devices=args.devices).summary())
    return 0


def _sweep_runtime(args):
    """Build a SweepRuntime from --jobs/--cache/--quiet flags."""
    from repro.runtime import ResultCache, RuntimeConfig, SweepRuntime

    cache = ResultCache(args.cache) if args.cache else None
    progress = None
    if not args.quiet:
        progress = lambda event: print(event.line(), file=sys.stderr)  # noqa: E731
    return SweepRuntime(RuntimeConfig(
        jobs=args.jobs, cache=cache, progress=progress,
    ))


def _cmd_sweep(args) -> int:
    from repro.analysis.reporting import format_table
    from repro.runtime import peak_gib, records_to_csv
    from repro.runtime.presets import preset_tasks

    if args.preset:
        tasks = preset_tasks(args.preset)
    else:
        if not args.models:
            raise ConfigurationError("either --preset or --models is required")
        from repro.analysis.sweep import sweep_tasks

        jobs = {}
        for spec in args.models.split(","):
            spec = spec.strip()
            jobs[spec] = job_from_spec({"model": spec, "server": args.server,
                                        "pipeline": args.pipeline})
        if (getattr(args, "nodes", 1) or 1) > 1:
            # Cluster sweep: the TP x DP x PP shape grid per model.
            from repro.analysis.cluster_scaling import cluster_scaling_tasks

            cluster = build_cluster(args.server, args.nodes, args.fabric)
            systems = [s.strip() for s in args.systems.split(",")]
            tasks = []
            for job in jobs.values():
                for system in systems:
                    tasks.extend(cluster_scaling_tasks(job, cluster,
                                                       system=system))
        else:
            systems = [s.strip() for s in args.systems.split(",")]
            tasks = sweep_tasks(jobs, systems)

    runtime = _sweep_runtime(args)
    report = runtime.run(tasks)

    rows = []
    for outcome in report.outcomes:
        record = outcome.record
        if record is None:
            rows.append([outcome.task.label, "FAILED", "-", "-",
                         outcome.error or ""])
            continue
        status = "ok" if record["ok"] else "OOM"
        rows.append([
            record["label"],
            status,
            f"{record['tflops']:.1f}" if record["ok"] else "-",
            f"{peak_gib(record):.1f}" if record["ok"] else "-",
            outcome.source,
        ])
    print(format_table(["task", "status", "TFLOPS", "peak GiB", "source"],
                       rows, title=f"sweep ({len(tasks)} tasks)"))
    print(f"runtime: {report.summary()}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(records_to_csv(report.records()))
        print(f"csv written to {args.csv}")
    return 1 if report.failed else 0


def _cmd_serve_sim(args) -> int:
    """Simulate one LLM-serving episode (continuous batching + KV paging)."""
    from repro.inference import InferenceConfig, run_serving

    model = parse_model(args.model)
    server = build_server(args.server)
    config = InferenceConfig(
        seed=args.seed,
        n_requests=args.requests,
        arrival_rate=args.arrival_rate,
        prompt_mean=args.prompt_mean,
        output_mean=args.output_mean,
        block_tokens=args.block_tokens,
        max_batch=args.max_batch,
        pp=args.pp,
        kv_swap=args.kv_swap,
        kv_pool_mib=args.kv_pool_mib,
    )
    outcome = run_serving(model, server, config)
    metrics = outcome.metrics
    if args.json:
        print(json.dumps(metrics.to_json(), indent=2, sort_keys=True))
        return 0 if outcome.simulation.ok else 1
    status = "ok" if outcome.simulation.ok else "OUT OF MEMORY"
    print(f"{model.config.name} serving on {server.name} "
          f"(kv_swap={config.kv_swap}, pp={config.pp}): {status}")
    print(f"  {metrics.n_requests} requests, {metrics.n_iterations} "
          f"iterations, {metrics.total_output_tokens} tokens in "
          f"{metrics.makespan:.3f}s ({metrics.tokens_per_second:.1f} "
          f"tokens/sec)")
    print(f"  TTFT p50/p95/p99: {metrics.ttft_p50 * 1e3:.2f} / "
          f"{metrics.ttft_p95 * 1e3:.2f} / {metrics.ttft_p99 * 1e3:.2f} ms")
    print(f"  TPOT p50/p95/p99: {metrics.tpot_p50 * 1e3:.2f} / "
          f"{metrics.tpot_p95 * 1e3:.2f} / {metrics.tpot_p99 * 1e3:.2f} ms")
    print(f"  KV spill: {fmt_bytes(metrics.swapped_bytes)} across "
          f"{metrics.swapped_requests} requests; decode stall "
          f"{metrics.decode_stall_seconds * 1e3:.3f} ms; "
          f"{metrics.preemptions} preemptions")
    if metrics.prefix_cache_hits:
        print(f"  prefix cache: {metrics.prefix_cache_hits} hits, "
              f"{metrics.prefix_saved_tokens} prompt tokens reused")
    return 0 if outcome.simulation.ok else 1


def _cmd_cache(args) -> int:
    from repro.runtime import ResultCache
    from repro.units import MiB

    cache = ResultCache(args.cache)
    if args.action == "stats":
        if args.json:
            print(json.dumps(cache.stats_dict(), indent=2, sort_keys=True))
        else:
            print(cache.stats().summary())
        return 0
    if args.action == "evict":
        if args.max_mib is None:
            raise ConfigurationError("cache evict needs --max-mib")
        removed = cache.evict_to(int(args.max_mib * MiB))
        print(f"{args.cache}: evicted {removed} entries "
              f"(LRU, cap {args.max_mib:g} MiB)")
        return 0
    removed = cache.clear(keep_newer_than=args.keep_newer_than)
    guard = (f" (kept entries newer than {args.keep_newer_than:g}s)"
             if args.keep_newer_than is not None else "")
    print(f"{args.cache}: removed {removed} entries{guard}")
    return 0


def _cmd_serve(args) -> int:
    from repro.runtime import ResultCache
    from repro.serve import SweepServer
    from repro.units import MiB

    cache = None
    if args.cache:
        max_bytes = (int(args.cache_max_mib * MiB)
                     if args.cache_max_mib is not None else None)
        cache = ResultCache(args.cache, max_bytes=max_bytes)
    server = SweepServer(host=args.host, port=args.port, jobs=args.jobs,
                         cache=cache, retries=args.retries,
                         verbose=not args.quiet)
    server.start()
    print(f"repro serve listening on {server.url} "
          f"(jobs={args.jobs}, cache={args.cache or 'off'})", flush=True)
    server.serve_forever()
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPress (HPCA 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_job_args(p):
        p.add_argument("--model", default=None, help="e.g. bert-0.64 or gpt-10.3")
        p.add_argument("--server", default="dgx1", choices=sorted(SERVERS))
        p.add_argument("--pipeline", default=None, choices=tuple(PIPELINES))
        p.add_argument("--microbatch", type=int, default=None)
        p.add_argument("--nodes", type=int, default=1, metavar="N",
                       help="server count (N>1 builds a cluster over --fabric)")
        p.add_argument("--fabric", default="ib-edr",
                       choices=("ib-edr", "ib-hdr", "eth-100g"),
                       help="inter-node link when --nodes > 1")
        p.add_argument("--spec", default=None, metavar="PATH",
                       help="JSON job spec (overrides the flags above)")

    run = sub.add_parser("run", help="simulate one training job")
    add_job_args(run)
    run.add_argument("--system", default="mpress", choices=SYSTEMS)
    run.add_argument("--no-striping", action="store_true",
                     help="disable D2D data striping (Figure 9 ablation)")
    run.add_argument("--mapping", default="auto",
                     choices=("auto", "exact", "greedy", "identity"),
                     help="device-mapping search mode")
    run.add_argument("--save-plan", default=None, metavar="PATH")
    run.add_argument("--chrome-trace", default=None, metavar="PATH")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault campaign: a JSON schedule path or seed:N")
    run.add_argument("--faults-report", default=None, metavar="PATH",
                     help="write the ResilienceReport JSON here")
    run.set_defaults(func=_cmd_run)

    profile = sub.add_parser("profile", help="per-stage memory demands")
    add_job_args(profile)
    profile.set_defaults(func=_cmd_profile)

    plan = sub.add_parser("plan", help="build and save a memory-saving plan")
    add_job_args(plan)
    plan.add_argument("--tp", type=int, default=1,
                      help="tensor-parallel degree (plan one sharded chain)")
    plan.add_argument("--dp", type=int, default=1,
                      help="data-parallel degree (placement context)")
    plan.add_argument("--pp", type=int, default=0,
                      help="pipeline depth (0 = fill the replica block)")
    plan.add_argument("--sp", action="store_true",
                      help="sequence parallelism (with --tp)")
    plan.add_argument("--out", default=None, metavar="PATH")
    plan.add_argument("--json", action="store_true",
                      help="machine-readable report (shape, score, "
                           "per-GPU peaks) instead of the summary")
    plan.set_defaults(func=_cmd_plan)

    autoplan = sub.add_parser(
        "autoplan",
        help="search the TP x DP x PP shape grid for the best shape")
    add_job_args(autoplan)
    autoplan.add_argument("--system", default="mpress", choices=SYSTEMS,
                          help="per-chain memory-saving system")
    autoplan.add_argument("--budget-gib", type=float, default=None,
                          metavar="GIB",
                          help="per-GPU memory budget (default: the "
                               "smallest GPU's memory)")
    autoplan.add_argument("--frontier-fraction", type=float, default=0.25,
                          metavar="F",
                          help="share of the valid grid to fully simulate")
    autoplan.add_argument("--max-frontier", type=int, default=None,
                          metavar="K",
                          help="hard cap on simulated shapes")
    autoplan.add_argument("--sp", action="store_true",
                          help="shard with sequence parallelism")
    autoplan.add_argument("--json", action="store_true",
                          help="machine-readable report (ranked shapes, "
                               "sync tails, per-GPU peaks, rejections)")
    autoplan.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for the frontier")
    autoplan.add_argument("--cache", default=None, metavar="DIR",
                          help="content-addressed result cache directory")
    autoplan.add_argument("--quiet", action="store_true",
                          help="suppress per-task progress lines")
    autoplan.set_defaults(func=_cmd_autoplan)

    zero = sub.add_parser("zero", help="evaluate a ZeRO baseline")
    zero.add_argument("--model", required=True)
    zero.add_argument("--server", default="dgx1", choices=sorted(SERVERS))
    zero.add_argument("--variant", default="offload", choices=("offload", "infinity"))
    zero.add_argument("--samples", type=int, default=32)
    zero.add_argument("--ring-efficiency", type=float, default=0.8,
                      help="flat-model all-reduce efficiency (analytic mode)")
    zero.add_argument("--comm-overlap", type=float, default=0.5,
                      help="fraction of compute collectives overlap with")
    zero.add_argument("--comm-model", default="analytic",
                      choices=("analytic", "collective"),
                      help="flat-rate constants or topology-aware schedules")
    zero.set_defaults(func=_cmd_zero)

    hybrid = sub.add_parser(
        "hybrid", help="hybrid data x pipeline parallel run")
    add_job_args(hybrid)
    hybrid.add_argument("--system", default="mpress", choices=SYSTEMS,
                        help="per-replica memory-saving system")
    hybrid.add_argument("--dp", type=int, default=2,
                        help="data-parallel degree (replica count)")
    hybrid.add_argument("--tp", type=int, default=1,
                        help="tensor-parallel degree (>1 runs the 3D "
                             "cluster path, see docs/cluster.md)")
    hybrid.add_argument("--pp", type=int, default=0,
                        help="pipeline depth on the cluster path "
                             "(0 = fill each replica block)")
    hybrid.add_argument("--sp", action="store_true",
                        help="sequence parallelism (with --tp)")
    hybrid.add_argument("--cluster-placement", default="auto",
                        choices=("auto", "packed", "spread"),
                        help="replica packing across servers (cluster path)")
    hybrid.add_argument("--algorithm", default="auto",
                        choices=("auto", "ring", "tree", "hierarchical"),
                        help="gradient all-reduce algorithm")
    hybrid.add_argument("--bucket-mib", type=float, default=25.0,
                        metavar="MIB", help="gradient bucket size in MiB")
    hybrid.add_argument("--no-overlap", action="store_true",
                        help="disable backward/all-reduce overlap")
    hybrid.add_argument("--collective", default="analytic",
                        choices=("analytic", "simulate"),
                        help="price collectives analytically or via the IR")
    hybrid.add_argument("--placement", default="auto",
                        choices=("auto", "contiguous", "strided", "islands"),
                        help="replica placement over the topology")
    hybrid.set_defaults(func=_cmd_hybrid)

    capacity = sub.add_parser("capacity", help="largest trainable variant")
    capacity.add_argument("--family", required=True, choices=("bert", "gpt"))
    capacity.add_argument("--server", default="dgx1", choices=sorted(SERVERS))
    capacity.add_argument("--system", default="mpress", choices=SYSTEMS)
    capacity.set_defaults(func=_cmd_capacity)

    project = sub.add_parser("project", help="Section V superchip projection")
    project.add_argument("--devices", type=int, default=8)
    project.set_defaults(func=_cmd_project)

    sweep = sub.add_parser(
        "sweep", help="run a grid of simulations (parallel, cached)")
    sweep.add_argument("--preset", default=None,
                       help="a named grid: fig7, fig8-dgx1, fig8-dgx2, "
                            "fig9, hybrid-dgx1, cluster-2xdgx1, "
                            "serving-dgx1")
    sweep.add_argument("--models", default=None,
                       help="comma list, e.g. bert-0.64,gpt-5.3")
    sweep.add_argument("--server", default="dgx1", choices=sorted(SERVERS))
    sweep.add_argument("--nodes", type=int, default=1, metavar="N",
                       help="with --models: sweep TP x DP x PP shapes over "
                            "an N-server cluster")
    sweep.add_argument("--fabric", default="ib-edr",
                       choices=("ib-edr", "ib-hdr", "eth-100g"),
                       help="inter-node link when --nodes > 1")
    sweep.add_argument("--pipeline", default=None, choices=tuple(PIPELINES))
    sweep.add_argument("--systems", default="none,recomputation,mpress",
                       help="comma list of systems to sweep")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (1 = run inline)")
    sweep.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed result cache directory")
    sweep.add_argument("--csv", default=None, metavar="PATH")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-task progress lines")
    sweep.set_defaults(func=_cmd_sweep)

    serve_sim = sub.add_parser(
        "serve-sim",
        help="simulate LLM serving (continuous batching, paged KV, D2D swap)")
    serve_sim.add_argument("--model", required=True, help="e.g. gpt-5.3")
    serve_sim.add_argument("--server", default="dgx1", choices=sorted(SERVERS))
    serve_sim.add_argument("--requests", type=int, default=16, metavar="N",
                           help="request count")
    serve_sim.add_argument("--seed", type=int, default=0,
                           help="workload RNG seed")
    serve_sim.add_argument("--arrival-rate", type=float, default=8.0,
                           metavar="R", help="mean arrivals per second")
    serve_sim.add_argument("--prompt-mean", type=int, default=128,
                           metavar="TOKENS")
    serve_sim.add_argument("--output-mean", type=int, default=32,
                           metavar="TOKENS")
    serve_sim.add_argument("--kv-swap", default="d2d",
                           choices=("d2d", "pcie", "none"),
                           help="KV overflow policy: stripe to spare GPUs, "
                                "spill to host, or preempt+recompute")
    serve_sim.add_argument("--pp", type=int, default=1,
                           help="pipeline stages serving the model")
    serve_sim.add_argument("--block-tokens", type=int, default=16,
                           metavar="TOKENS", help="KV page size")
    serve_sim.add_argument("--max-batch", type=int, default=8, metavar="N",
                           help="continuous-batching admission cap")
    serve_sim.add_argument("--kv-pool-mib", type=int, default=None,
                           metavar="MIB",
                           help="per-stage KV pool cap (default: all memory "
                                "left after weights)")
    serve_sim.add_argument("--json", action="store_true",
                           help="machine-readable metrics instead of the "
                                "summary")
    serve_sim.set_defaults(func=_cmd_serve_sim)

    cache = sub.add_parser("cache", help="inspect or evict the result cache")
    cache.add_argument("action", choices=("stats", "clear", "evict"))
    cache.add_argument("--cache", required=True, metavar="DIR")
    cache.add_argument("--json", action="store_true",
                       help="machine-readable stats (entries, bytes, shards, "
                            "evictions, hit_rate)")
    cache.add_argument("--keep-newer-than", type=float, default=None,
                       metavar="SECONDS",
                       help="with clear: spare entries touched within the "
                            "last SECONDS")
    cache.add_argument("--max-mib", type=float, default=None, metavar="MIB",
                       help="with evict: LRU-evict down to this size cap")
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve", help="multi-tenant sweep server (planning-as-a-service)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes / concurrent simulations")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="shared content-addressed result cache")
    serve.add_argument("--cache-max-mib", type=float, default=None,
                       metavar="MIB",
                       help="LRU size cap for the shared cache")
    serve.add_argument("--retries", type=int, default=2,
                       help="pool retries before a task is excluded inline")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logs")
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
