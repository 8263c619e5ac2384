"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

A thin alternative to the pytest benchmarks for interactive use::

    python -m repro.bench insert --dataset orkut --scale 0.5
    python -m repro.bench analysis --dataset livejournal --kernel pr
    python -m repro.bench ablation --scale 0.25
    python -m repro.bench recovery --dataset orkut

Each subcommand prints the same tables the benchmark suite emits.
"""

from __future__ import annotations

import argparse
import sys

from .. import DGAP, DGAPConfig
from ..datasets import DATASETS, SMALL_DATASETS, get_dataset
from .harness import (
    DEFAULT_BATCH_SIZE,
    SYSTEM_ORDER,
    get_built_system,
    get_static_csr,
    pick_source,
    run_kernel,
)
from .reporting import (
    crash_sweep_table,
    format_table,
    ingest_phase_table,
    loop_table,
    profile_table,
)


def _batch_size(args) -> int | None:
    """CLI batch size; 0 or negative means 'one batch for everything'."""
    bs = getattr(args, "batch_size", DEFAULT_BATCH_SIZE)
    return None if bs is not None and bs <= 0 else bs


def cmd_insert(args) -> None:
    bs = _batch_size(args)
    rows, results = [], []
    for name in SYSTEM_ORDER:
        _, ins = get_built_system(name, args.dataset, scale=args.scale, batch_size=bs)
        rows.append((name, ins.meps(1), ins.meps(8), ins.meps(16), ins.write_amplification))
        results.append(ins)
    print(format_table(
        f"insert throughput — {args.dataset} (scale {args.scale}, batch {bs or 'all'})",
        ["system", "MEPS T1", "MEPS T8", "MEPS T16", "write amp"],
        rows,
    ))
    print(ingest_phase_table(results))


def cmd_analysis(args) -> None:
    src = pick_source(args.dataset, args.scale)
    csr_view = get_static_csr(args.dataset, args.scale).analysis_view()
    t_csr = run_kernel(csr_view, args.kernel, source=src)[1]
    rows = [("csr", t_csr * 1e3, 1.0)]
    for name in SYSTEM_ORDER:
        system, _ = get_built_system(name, args.dataset, scale=args.scale)
        t = run_kernel(system.analysis_view(), args.kernel, source=src)[1]
        rows.append((name, t * 1e3, t / t_csr))
    print(format_table(
        f"{args.kernel.upper()} — {args.dataset} (scale {args.scale}, modeled, 1 thread)",
        ["system", "time (ms)", "vs CSR"],
        rows,
    ))


def cmd_loop(args) -> None:
    """``analysis-loop`` (insert-only) and ``temporal`` (windowed) twins."""
    from .twin_loop import (
        DEFAULT_KERNELS,
        run_analysis_loop_pair,
        run_temporal_loop_pair,
        verify_view_counters,
    )

    common = dict(
        scale=args.scale,
        kernels=tuple(args.kernels.split(",")) if args.kernels else DEFAULT_KERNELS,
        sources=args.sources,
        batch_size=_batch_size(args),
    )
    if args.cmd == "temporal":
        pair = run_temporal_loop_pair(
            args.dataset, window=args.window,
            compact_threshold=args.compact_threshold,
            max_steps=args.max_steps or None, **common,
        )
    else:
        pair = run_analysis_loop_pair(args.dataset, rounds=args.rounds, **common)
    name = args.cmd.replace("-loop", "") + " loop"
    print(loop_table(pair, title=name))
    if getattr(args, "check_counters", False):
        checks = verify_view_counters(args.dataset, scale=args.scale)
        print(format_table(
            "incrementality counter checks",
            ["check", "ok?", "detail"],
            [(name, "yes" if ok else "NO", detail) for name, ok, detail in checks],
        ))
        if not all(ok for _, ok, _ in checks):
            raise SystemExit("counter checks failed")
    need = getattr(args, "min_speedup", 0.0)
    if need > 0 and pair.speedup < need:
        raise SystemExit(
            f"{name} speedup {pair.speedup:.2f}x < required {need:g}x"
        )


def cmd_ablation(args) -> None:
    variants = (
        ("dgap", {}),
        ("no_el", {"use_edge_log": False}),
        ("no_el_ul", {"use_edge_log": False, "use_undo_log": False}),
        ("no_el_ul_dp", {"use_edge_log": False, "use_undo_log": False, "dram_placement": False}),
    )
    rows = []
    for ds in SMALL_DATASETS:
        spec = get_dataset(ds)
        edges = spec.generate(args.scale)
        nv, _ = spec.sizes(args.scale)
        for name, kw in variants:
            g = DGAP(DGAPConfig(init_vertices=nv, init_edges=edges.shape[0], **kw))
            before = g.pool.stats.snapshot()
            g.insert_edges(edges, batch_size=_batch_size(args))
            d = g.pool.stats.delta_since(before)
            rows.append((ds, name, d.modeled_ns * 1e-9))
    print(format_table(
        "Table 5 ablation (modeled seconds)",
        ["dataset", "variant", "insert time (s)"],
        rows,
        floatfmt="{:.4f}",
    ))


def cmd_recovery(args) -> None:
    spec = get_dataset(args.dataset)
    edges = spec.generate(args.scale)
    nv, _ = spec.sizes(args.scale)
    g = DGAP(DGAPConfig(init_vertices=nv, init_edges=edges.shape[0]))
    g.insert_edges(edges, batch_size=_batch_size(args))
    g.shutdown()
    before = g.pool.stats.snapshot()
    g2 = DGAP.open(g.pool, g.config)
    normal = g.pool.stats.delta_since(before).modeled_ns * 1e-6
    g2.pool.crash()
    before = g2.pool.stats.snapshot()
    DGAP.open(g2.pool, g2.config)
    crash = g2.pool.stats.delta_since(before).modeled_ns * 1e-6
    print(format_table(
        f"recovery — {args.dataset} ({edges.shape[0]} edges)",
        ["path", "modeled ms"],
        [("normal restart", normal), ("crash recovery", crash)],
        floatfmt="{:.3f}",
    ))


def cmd_profile(args) -> None:
    from ..obs import write_chrome_trace
    from .profile import check_attribution, check_chrome_trace, run_profile

    tracer = run_profile(
        args.experiment,
        args.dataset,
        args.scale,
        _batch_size(args),
        device_ops=args.device_ops,
    )
    print(profile_table(
        tracer,
        title=(
            f"profile {args.experiment} — {args.dataset} "
            f"(scale {args.scale:g}): per-phase self attribution"
        ),
    ))
    print(f"spans recorded: {tracer.span_count()}")
    failures = []
    if args.check:
        failures += check_attribution(tracer)
    if args.trace_out:
        n = write_chrome_trace(tracer, args.trace_out)
        print(f"wrote {n} Chrome trace events to {args.trace_out}")
        if args.check:
            failures += check_chrome_trace(args.trace_out)
    if failures:
        raise SystemExit("profile checks failed:\n" + "\n".join(
            f"  {f}" for f in failures
        ))
    if args.check:
        print("attribution checks passed: per-phase modeled ns and counters "
              "sum exactly to the device totals")


def cmd_shard(args) -> None:
    """Shard-scaling twin: single pool vs N pools on the same stream."""
    from ..sharding import ShardedDGAP

    spec = get_dataset(args.dataset)
    edges = spec.generate(args.scale)
    nv, _ = spec.sizes(args.scale)
    bs = _batch_size(args)
    n = args.shards

    def build(g):
        before = g.pool.stats.snapshot()
        g.insert_edges(edges, batch_size=bs)
        return g.pool.stats.delta_since(before).modeled_ns

    def meps(ns):
        return edges.shape[0] / ns * 1e3 if ns else 0.0

    single = DGAP(DGAPConfig(init_vertices=nv, init_edges=edges.shape[0]))
    ns1 = build(single)
    sharded = ShardedDGAP(n, DGAPConfig(init_vertices=nv, init_edges=edges.shape[0]))
    nsn = build(sharded)

    ref_out, ref_in = single.view_cache().materialize()
    mrg_out, mrg_in = sharded.global_csr()
    identical = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(ref_out + ref_in, mrg_out + mrg_in)
    )
    shares = [sh.num_edges / max(sharded.num_edges, 1) for sh in sharded.shards]
    rows = [
        ("single-pool modeled MEPS", meps(ns1)),
        (f"{n}-shard modeled MEPS", meps(nsn)),
        ("speedup (modeled clock)", ns1 / nsn if nsn else 0.0),
        ("merged view byte-identical", "yes" if identical else "NO"),
        ("max shard share", max(shares) if shares else 0.0),
        ("shard shares", " ".join(f"{s:.2f}" for s in shares)),
    ]
    print(format_table(
        f"shard scaling — {args.dataset} (scale {args.scale:g}, "
        f"{edges.shape[0]} edges, batch {bs or 'all'}, {n} shards)",
        ["metric", "value"],
        rows,
    ))
    if not identical:
        raise SystemExit("merged sharded view diverged from the unsharded build")


def cmd_serve(args) -> None:
    """Online serving: Zipfian point queries under a concurrent write stream."""
    from ..serve import ServeWorkloadConfig, generate_workload, run_serve_workload
    from .reporting import serve_latency_table

    spec = get_dataset(args.dataset)
    edges = spec.generate(args.scale)
    nv, _ = spec.sizes(args.scale)
    cfg = ServeWorkloadConfig(
        n_ops=args.ops,
        read_fraction=args.read_fraction,
        zipf_theta=args.theta,
        n_clients=args.clients,
        mode=args.mode,
        seed=args.seed,
    )
    if args.shards > 1:
        from ..sharding import ShardedDGAP

        graph = ShardedDGAP(
            args.shards, DGAPConfig(init_vertices=nv, init_edges=edges.shape[0])
        )
        flavor = f"{args.shards} shards"
    else:
        graph = DGAP(DGAPConfig(init_vertices=nv, init_edges=edges.shape[0]))
        flavor = "unsharded"
    graph.insert_edges(edges, batch_size=_batch_size(args))
    ops = generate_workload(nv, cfg)
    report = run_serve_workload(graph, ops, cfg, twin_check=args.twin)
    print(serve_latency_table(
        report,
        f"serve latency — {args.dataset} (scale {args.scale:g}, {flavor}, "
        f"{cfg.mode} loop, theta {cfg.zipf_theta:g})",
    ))
    if args.twin and not report.identity_ok:
        raise SystemExit(
            f"served reads diverged from fresh-snapshot reads "
            f"({report.mismatches} mismatches)"
        )


_SWEEP_POLICIES = ("default", "torn", "reorder", "adversarial")


def cmd_crash_sweep(args) -> None:
    from ..pmem.faults import (
        ADVERSARIAL,
        DEFAULT_POLICY,
        PERSIST_REORDER,
        TORN_STORES,
        FaultPolicy,
    )
    from ..testing import (
        SweepConfig,
        crash_sweep,
        make_batched_insert_workload,
        make_insert_workload,
        make_windowed_workload,
    )

    base = {
        "default": DEFAULT_POLICY,
        "torn": TORN_STORES,
        "reorder": PERSIST_REORDER,
        "adversarial": ADVERSARIAL,
    }[args.policy]
    policy = FaultPolicy(
        torn_stores=base.torn_stores,
        persist_reorder=base.persist_reorder,
        poison_on_crash=args.poison,
        transient_read_rate=args.transient_rate,
        seed=args.seed,
    )
    spec = get_dataset(args.dataset)
    edges = spec.generate(args.scale)[: args.edges]
    nv = int(edges.max()) + 1 if edges.size else 1
    nv = max(nv, args.shards)
    cfg = DGAPConfig(init_vertices=nv, init_edges=max(len(edges), 64))

    if args.shards > 1:
        from ..sharding import ShardedDGAP

        def make_graph(injector, faults):
            return ShardedDGAP(args.shards, cfg, injector=injector, faults=faults)
    else:
        def make_graph(injector, faults):
            return DGAP(cfg, injector=injector, faults=faults)

    if args.expire_window >= 0:
        workload = make_windowed_workload(
            edges,
            window=args.expire_window,
            step=args.window_step,
            compact_every=args.compact_every,
        )
    elif args.batch_size > 0:
        workload = make_batched_insert_workload(edges, batch_size=args.batch_size)
    else:
        workload = make_insert_workload(edges)

    report = crash_sweep(
        make_graph,
        workload,
        SweepConfig(
            faults=policy,
            exhaustive_threshold=args.exhaustive_threshold,
            samples=args.points,
            seed=args.seed,
        ),
    )
    print(crash_sweep_table(
        report,
        title=(
            f"crash sweep — {args.dataset} ({len(edges)} edges, "
            f"{args.shards} shard{'s' if args.shards != 1 else ''}, "
            f"policy {args.policy}, seed {args.seed})"
        ),
    ))


def cmd_soak(args) -> None:
    from ..pmem.faults import FaultPolicy
    from ..testing import SoakConfig, make_insert_workload, soak_sweep
    from .reporting import soak_table

    policy = FaultPolicy(
        read_poison_rate=args.poison_rate,
        transient_read_rate=args.transient_rate,
        seed=args.seed,
    )
    spec = get_dataset(args.dataset)
    edges = spec.generate(args.scale)[: args.edges]
    nv = int(edges.max()) + 1 if edges.size else 1
    # A tight initial capacity keeps the PMA under pressure so the run
    # exercises log appends, merges, and rebalance windows — the demand
    # bulk-read paths where transient faults surface.
    cfg = DGAPConfig(init_vertices=nv, init_edges=max(len(edges) // 2, 256))

    def make_graph(injector, faults):
        return DGAP(cfg, injector=injector, faults=faults)

    report = soak_sweep(
        make_graph,
        make_insert_workload(edges),
        SoakConfig(
            faults=policy,
            rounds=args.rounds,
            scrub_every=args.scrub_every,
            patrol_bytes=args.patrol_kib * 1024,
        ),
    )
    print(soak_table(
        report,
        title=(
            f"soak sweep — {args.dataset} ({len(edges)} edges, "
            f"{args.rounds} rounds, seed {args.seed})"
        ),
    ))
    if report.fault_points < args.min_fault_points:
        raise SystemExit(
            f"soak survived only {report.fault_points} fault points "
            f"(< {args.min_fault_points}); raise rates or edges"
        )


def cmd_race_check(args) -> None:
    from ..testing import RaceCheckConfig, race_check
    from ..testing.racecheck import SCENARIOS, dry_run
    from .reporting import race_check_dry_table, race_check_table

    names = args.scenarios.split(",") if args.scenarios else None
    if names:
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            raise SystemExit(f"unknown scenarios {unknown}; have {sorted(SCENARIOS)}")
    if args.dry_run:
        counts = {}
        for name in names or list(SCENARIOS):
            counts.update(dry_run(name))
        print(race_check_dry_table(counts))
        return
    report = race_check(RaceCheckConfig(
        max_schedules=args.schedules, seed=args.seed, scenarios=names,
    ))
    print(race_check_table(
        report,
        title=f"race check — lock-discipline oracle (seed {args.seed})",
    ))
    if not report.ok:
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_batch_size(p):
        p.add_argument(
            "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
            help="ingest sub-batch size (1 = per-edge path, <=0 = one batch)",
        )

    p = sub.add_parser("insert", help="Fig. 6 / Table 3 style insert throughput")
    p.add_argument("--dataset", choices=sorted(DATASETS), default="orkut")
    p.add_argument("--scale", type=float, default=1.0)
    add_batch_size(p)
    p.set_defaults(fn=cmd_insert)

    p = sub.add_parser("analysis", help="Fig. 7/8 style kernel comparison")
    p.add_argument("--dataset", choices=sorted(DATASETS), default="orkut")
    p.add_argument("--kernel", choices=("pr", "bfs", "bc", "cc"), default="pr")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_analysis)

    p = sub.add_parser(
        "analysis-loop",
        help="ingest→analyze loop: incremental view cache vs from-scratch",
    )
    p.add_argument("--dataset", choices=sorted(DATASETS), default="orkut")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--kernels", default="",
                   help="comma list from pr,cc,bfs,bc (default: all four)")
    p.add_argument("--sources", type=int, default=16,
                   help="GAPBS-style trial count for the source kernels (bfs, bc)")
    p.add_argument("--batch-size", type=int, default=0,
                   help="ingest sub-batch size (<=0 = one batch per round)")
    p.add_argument("--check-counters", action="store_true",
                   help="also run the deterministic incrementality counter checks")
    p.set_defaults(fn=cmd_loop)

    p = sub.add_parser(
        "temporal",
        help="windowed stream: ingest→expire→analyze loop, cached vs scratch",
    )
    from ..datasets import TEMPORAL_DATASETS
    from .twin_loop import (
        DEFAULT_COMPACT_THRESHOLD,
        DEFAULT_DATASET,
        DEFAULT_WINDOW,
    )

    p.add_argument("--dataset", choices=sorted(TEMPORAL_DATASETS),
                   default=DEFAULT_DATASET)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="sliding window in steps (0 = expire each step "
                        "immediately)")
    p.add_argument("--compact-threshold", type=float,
                   default=DEFAULT_COMPACT_THRESHOLD,
                   help="tombstone density that triggers a merge sweep")
    p.add_argument("--kernels", default="",
                   help="comma list from pr,cc,bfs,bc (default: all four)")
    p.add_argument("--sources", type=int, default=8,
                   help="GAPBS-style trial count for the source kernels (bfs, bc)")
    p.add_argument("--max-steps", type=int, default=0,
                   help="replay only this many steps (0 = the whole stream)")
    p.add_argument("--batch-size", type=int, default=0,
                   help="ingest sub-batch size (<=0 = one batch per phase)")
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="exit nonzero unless the cached arm wins by this factor")
    p.set_defaults(fn=cmd_loop)

    p = sub.add_parser("ablation", help="Table 5 component ablation")
    p.add_argument("--scale", type=float, default=0.5)
    add_batch_size(p)
    p.set_defaults(fn=cmd_ablation)

    p = sub.add_parser("recovery", help="normal restart vs crash recovery")
    p.add_argument("--dataset", choices=sorted(DATASETS), default="orkut")
    p.add_argument("--scale", type=float, default=0.5)
    add_batch_size(p)
    p.set_defaults(fn=cmd_recovery)

    p = sub.add_parser(
        "profile",
        help="traced run: per-phase modeled-time attribution (+ Chrome trace)",
    )
    from .profile import PROFILE_EXPERIMENTS

    p.add_argument("experiment", choices=PROFILE_EXPERIMENTS)
    p.add_argument("--dataset", choices=sorted(DATASETS), default="orkut")
    p.add_argument("--scale", type=float, default=0.1)
    add_batch_size(p)
    p.add_argument("--trace-out", default="",
                   help="write Chrome trace-event JSON here (open in Perfetto)")
    p.add_argument("--device-ops", action="store_true",
                   help="also record every device primitive as a trace event")
    p.add_argument("--check", action="store_true",
                   help="verify attribution exactness and trace validity; "
                        "exit nonzero on failure")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "shard",
        help="sharded multi-pool ingest vs a single pool (modeled speedup "
             "+ merged-view identity)",
    )
    p.add_argument("--dataset", choices=sorted(DATASETS), default="citpatents")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--shards", type=int, default=4)
    add_batch_size(p)
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser(
        "crash-sweep",
        help="crash-consistency sweep with the recovery oracle (robustness)",
    )
    p.add_argument("--dataset", choices=sorted(DATASETS), default="orkut")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--edges", type=int, default=120,
                   help="cap the workload to this many edges (scalar replay per point)")
    p.add_argument("--shards", type=int, default=1,
                   help="sweep a sharded multi-pool graph with this many shards")
    p.add_argument("--batch-size", type=int, default=0,
                   help="replay via routed EdgeBatch dispatches of this size "
                        "(<=0 = per-edge ops); exercises mid-dispatch crashes")
    p.add_argument("--expire-window", type=int, default=-1,
                   help="sweep a windowed stream instead: expire edges this "
                        "many steps after insertion and compact periodically "
                        "(>=0 enables; overrides --batch-size)")
    p.add_argument("--window-step", type=int, default=6,
                   help="edges per temporal step for --expire-window")
    p.add_argument("--compact-every", type=int, default=3,
                   help="compaction cadence in steps for --expire-window")
    p.add_argument("--policy", choices=_SWEEP_POLICIES, default="default")
    p.add_argument("--poison", type=float, default=0.0,
                   help="probability a lost line is poisoned at crash (media faults)")
    p.add_argument("--transient-rate", type=float, default=0.0,
                   help="per-line transient read-fault rate during recovery "
                        "(runtime fault model; retried with modeled backoff)")
    p.add_argument("--points", type=int, default=200,
                   help="sampled crash points when above the exhaustive threshold")
    p.add_argument("--exhaustive-threshold", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_crash_sweep)

    p = sub.add_parser(
        "soak",
        help="runtime-fault soak: ingest→scrub→analyze rounds with the "
             "no-silent-corruption oracle (robustness)",
    )
    p.add_argument("--dataset", choices=sorted(DATASETS), default="orkut")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--edges", type=int, default=8000,
                   help="cap the workload to this many edges")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--scrub-every", type=int, default=25,
                   help="patrol-scrub step every this-many inserts")
    p.add_argument("--patrol-kib", type=int, default=64,
                   help="patrol-scrub window size (KiB)")
    p.add_argument("--poison-rate", type=float, default=1e-3,
                   help="per-line spontaneous-decay rate on reads/scrub")
    p.add_argument("--transient-rate", type=float, default=1e-2,
                   help="per-line transient read-fault rate (retried)")
    p.add_argument("--min-fault-points", type=int, default=200,
                   help="fail unless at least this many fault points fired")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_soak)

    p = sub.add_parser(
        "serve",
        help="online point queries under concurrent writes (snapshot-isolated views)",
    )
    p.add_argument("--dataset", default="orkut", choices=sorted(DATASETS))
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--ops", type=int, default=1500)
    p.add_argument("--read-fraction", type=float, default=0.95)
    p.add_argument("--theta", type=float, default=0.99)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--mode", default="closed", choices=("closed", "open"))
    p.add_argument("--shards", type=int, default=1,
                   help="shard count (1 = unsharded DGAP)")
    p.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--twin", action="store_true",
                   help="also run every read on a fresh snapshot and require "
                        "byte-identical results")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "race-check",
        help="deterministic-interleaving sweep with the lock-discipline oracle",
    )
    p.add_argument("--scenarios", default="",
                   help="comma list of scenario names (default: all)")
    p.add_argument("--schedules", type=int, default=120,
                   help="schedule budget per scenario (exhaustive when it fits)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dry-run", action="store_true",
                   help="one default schedule per scenario: event counts only")
    p.set_defaults(fn=cmd_race_check)

    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
