"""Command-line interface.

Five subcommands:

``partition``
    Partition a MatrixMarket file (or a named collection instance) with
    any of the paper's methods and print volume / balance / timing —
    the Mondriaan-binary-style workflow.  ``--nparts p`` (p > 2) runs
    recursive bisection; ``--jobs N`` solves independent subtrees of the
    recursion on N worker processes, bit-identically to serial.

``experiment``
    Regenerate a paper artifact (fig3, fig4, fig5, table1, fig6, table2,
    or ``all``) and write text + CSV reports to an output directory.
    ``--jobs N`` runs the underlying sweep on N worker processes
    (``--jobs 0`` = CPU count); results are bit-identical to the serial
    sweep.

``serve``
    Run the always-available partitioning daemon (:mod:`repro.serve`):
    matrices stay resident and warm, requests execute through the
    hardened worker path with admission control and a crash-safe
    partition cache.  See ``docs/serving.md``.

``submit``
    Submit one request to a running daemon through the resilient client
    (capped-exponential retry honouring ``Retry-After``, circuit
    breaker) and print the result.

``trace-report``
    Aggregate a span trace (written with ``--trace out.jsonl`` on
    ``partition``/``experiment``/``serve``) into the classic profiler
    table: per-stage counts, total and self wall time.  See
    ``docs/observability.md``.

Examples
--------
.. code-block:: shell

    repro-partition partition --instance sym_grid2d_m --method mediumgrain \
        --refine --nparts 64 --jobs 4 --seed 7
    repro-partition experiment fig4 --max-tier small --nruns 1 --out results/
    repro-partition experiment all --jobs 4 --out results/
    repro-partition serve --port 8642 --cache /tmp/parts.cache &
    repro-partition submit --port 8642 --instance sym_grid2d_s --nparts 4
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import dataclasses

from repro.core.methods import ALGO_NAMES, METHOD_NAMES, bipartition
from repro.core.recursive import partition
from repro.eval import experiments as exp
from repro.utils.executor import EXEC_BACKEND_CHOICES, JobsBudget
from repro.partitioner.config import get_config
from repro.sparse.collection import collection_names, load_instance
from repro.sparse.io_mm import read_matrix_market

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description=(
            "Medium-grain sparse matrix partitioning "
            "(reproduction of Pelt & Bisseling, IPDPS 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="partition one matrix")
    src = p_part.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="MatrixMarket file to partition")
    src.add_argument(
        "--instance",
        help=f"named collection instance (one of {len(collection_names())})",
    )
    p_part.add_argument(
        "--method",
        default="mediumgrain",
        choices=METHOD_NAMES,
    )
    p_part.add_argument("--nparts", type=int, default=2)
    p_part.add_argument(
        "--algo",
        default="recursive",
        choices=ALGO_NAMES,
        help=(
            "p-way scheme when --nparts > 2: recursive bisection "
            "(the paper's), or the direct k-way partitioner optimizing "
            "the connectivity-(lambda-1) volume in one shot"
        ),
    )
    p_part.add_argument(
        "--kway-vcycles",
        type=int,
        default=0,
        metavar="N",
        help=(
            "multilevel V-cycles for --algo kway (0 = flat direct "
            "k-way; N >= 1 = multilevel construction plus N-1 "
            "restricted V-cycles); ignored for recursive bisection"
        ),
    )
    p_part.add_argument("--eps", type=float, default=0.03)
    p_part.add_argument("--refine", action="store_true",
                        help="apply Algorithm-2 iterative refinement")
    p_part.add_argument("--config", default="mondriaan",
                        choices=("mondriaan", "patoh"))
    p_part.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "workers for recursive bisection when --nparts > 2 "
            "(1 = serial, 0 = CPU count); the partition is bit-identical "
            "to the serial one, only faster"
        ),
    )
    p_part.add_argument(
        "--exec-backend",
        default="auto",
        choices=EXEC_BACKEND_CHOICES,
        help=(
            "how parallel bisection workers run and receive submatrices: "
            "shared-memory worker processes (auto), threads, or serial; "
            "results are identical"
        ),
    )
    _add_hardening_flags(p_part)
    p_part.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "anytime soft deadline: every refinement loop stops at its "
            "next pass/level boundary once it expires and the best "
            "partition found so far is returned (marked degraded); "
            "omitted = run to completion, bit-identically"
        ),
    )
    p_part.add_argument("--seed", type=int, default=None)
    p_part.add_argument(
        "--save-parts",
        help="write the nonzero part vector to this file (one id per line)",
    )
    p_part.add_argument(
        "--save-dist",
        metavar="PREFIX",
        help=(
            "write Mondriaan-style artifacts: PREFIX-P<p>.mtx "
            "(distributed matrix), PREFIX-v<p>.mtx / PREFIX-u<p>.mtx "
            "(input/output vector distributions)"
        ),
    )
    _add_trace_flag(p_part)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument(
        "artifact",
        choices=("fig3", "fig4", "fig5", "table1", "fig6", "table2", "all"),
    )
    p_exp.add_argument("--max-tier", default="medium",
                       choices=("small", "medium", "large"))
    p_exp.add_argument("--nruns", type=int, default=2)
    p_exp.add_argument("--seed", type=int, default=2014)
    p_exp.add_argument("--out", default="results")
    p_exp.add_argument("--progress", action="store_true")
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "total worker budget for the sweep (1 = serial, 0 = CPU "
            "count), split automatically between sweep-level and "
            "recursion-level parallelism for p-way artifacts; results "
            "are bit-identical to the serial sweep, only faster"
        ),
    )
    p_exp.add_argument(
        "--algo",
        default="recursive",
        choices=ALGO_NAMES,
        help=(
            "p-way scheme for the p = 64 artifacts (fig6/table2): "
            "recursive bisection or the direct k-way partitioner; "
            "bipartition artifacts are unaffected"
        ),
    )
    p_exp.add_argument(
        "--kway-vcycles",
        type=int,
        default=0,
        metavar="N",
        help=(
            "multilevel V-cycles for --algo kway runs (0 = flat "
            "direct k-way); ignored for recursive bisection"
        ),
    )
    _add_hardening_flags(p_exp)
    _add_trace_flag(p_exp)

    p_srv = sub.add_parser(
        "serve", help="run the always-available partitioning daemon"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0,
        help="listening port (0 = ephemeral, announced on stdout)",
    )
    p_srv.add_argument(
        "--port-file",
        help="write the bound port to this file once listening",
    )
    p_srv.add_argument(
        "--max-inflight", type=int, default=2,
        help="concurrently executing requests",
    )
    p_srv.add_argument(
        "--queue-cap", type=int, default=8,
        help=(
            "admitted-but-waiting requests beyond --max-inflight; "
            "everything past the sum is shed as 503 + Retry-After"
        ),
    )
    p_srv.add_argument(
        "--timeout", type=float, default=60.0,
        help=(
            "default per-request soft deadline in seconds (the anytime "
            "budget handed to the partitioner)"
        ),
    )
    p_srv.add_argument(
        "--deadline-grace", type=float, default=5.0,
        help=(
            "headroom between a request's soft deadline and the "
            "watchdog's hard worker kill — the window in which an "
            "expiring request still answers 200 with its incumbent"
        ),
    )
    p_srv.add_argument(
        "--overload-deadline-factor", type=float, default=0.5,
        help=(
            "soft-deadline multiplier once the admission queue is more "
            "than half full (1.0 = disabled): degrade everyone a bit "
            "before shedding anyone"
        ),
    )
    p_srv.add_argument(
        "--retries", type=int, default=1,
        help="worker-attempt retry budget per request",
    )
    p_srv.add_argument(
        "--jobs", type=int, default=2,
        help="worker-pool size backing request execution",
    )
    p_srv.add_argument(
        "--serve-backend", default="process", choices=("process", "thread"),
        help=(
            "process = crash-isolated pool workers (the point); thread "
            "exists for constrained environments"
        ),
    )
    p_srv.add_argument(
        "--cache", default="",
        help=(
            "partition-cache journal path (crash-safe, fsynced; empty = "
            "in-memory cache only)"
        ),
    )
    p_srv.add_argument("--cache-cap", type=int, default=512)
    p_srv.add_argument(
        "--no-warmup", action="store_true",
        help="skip the startup warmup partition",
    )
    _add_trace_flag(p_srv)

    p_sub = sub.add_parser(
        "submit", help="submit one request to a running daemon"
    )
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, required=True)
    src2 = p_sub.add_mutually_exclusive_group(required=True)
    src2.add_argument("--file", help="MatrixMarket file to upload")
    src2.add_argument("--instance", help="named collection instance")
    p_sub.add_argument("--nparts", type=int, default=2)
    p_sub.add_argument("--method", default="mediumgrain",
                       choices=METHOD_NAMES)
    p_sub.add_argument("--algo", default="recursive", choices=ALGO_NAMES)
    p_sub.add_argument(
        "--kway-vcycles", type=int, default=0, metavar="N",
        help="multilevel V-cycles for --algo kway (0 = flat)",
    )
    p_sub.add_argument("--eps", type=float, default=0.03)
    p_sub.add_argument("--refine", action="store_true")
    p_sub.add_argument("--config", default="mondriaan",
                       choices=("mondriaan", "patoh"))
    p_sub.add_argument(
        "--seed", type=int, default=None,
        help="request seed (default: the service's well-known seed)",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline override in seconds",
    )
    p_sub.add_argument(
        "--retries", type=int, default=4,
        help="client-side retry budget for shed (503) / transport errors",
    )
    p_sub.add_argument(
        "--save-parts",
        help="write the nonzero part vector to this file (one id per line)",
    )

    p_rep = sub.add_parser(
        "trace-report",
        help="aggregate a span trace into a time-per-stage table",
    )
    p_rep.add_argument(
        "trace",
        help="JSONL trace file written with --trace",
    )
    return parser


def _add_hardening_flags(sub: argparse.ArgumentParser) -> None:
    """The hardened-execution knobs, identical on both subcommands.

    The defaults (``0``) preserve the unhardened dispatch exactly — no
    deadlines, no retries, no watchdog (see docs/robustness.md).
    """
    sub.add_argument(
        "--task-timeout",
        type=float,
        default=0,
        metavar="SECONDS",
        help=(
            "per-task deadline for pool-executed work: a task still "
            "running past it is killed by the watchdog and retried per "
            "--retries (0 = no deadline, today's behavior; results are "
            "bit-identical either way)"
        ),
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "retry budget for crashed/timed-out/invalid pool tasks, with "
            "capped exponential backoff; an exhausted task is completed "
            "serially in-process so the run always finishes (0 = no "
            "retry, today's behavior)"
        ),
    )


def _add_trace_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "write a JSONL span trace of the run to FILE, with a final "
            "metrics-snapshot record (render it with `repro-partition "
            "trace-report FILE`); omitted = tracing disabled, the "
            "zero-overhead default — results are bit-identical either way"
        ),
    )


@contextlib.contextmanager
def _tracing(path: str | None):
    """Arm the module tracer around a command, then dump metrics.

    The final record in the trace file is ``{"metrics": ...}`` — the
    full registry snapshot at exit — which ``read_trace`` skips and
    humans/scripts can pick up with one ``tail -1``.
    """
    if not path:
        yield
        return
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    tracer = _trace.enable(path)
    try:
        yield
    finally:
        tracer.sink.write({"metrics": _metrics.snapshot()})
        _trace.disable()
        print(f"trace written     : {path}")


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.utils.deadline import Deadline

    deadline = Deadline(args.deadline) if args.deadline else None
    if args.instance:
        matrix = load_instance(args.instance)
        name = args.instance
    else:
        matrix = read_matrix_market(args.file)
        name = Path(args.file).name
    print(f"matrix {name}: {matrix.nrows} x {matrix.ncols}, "
          f"nnz = {matrix.nnz}")
    cfg = dataclasses.replace(
        get_config(args.config),
        jobs=args.jobs,
        exec_backend=args.exec_backend,
        algo=args.algo,
        kway_vcycles=args.kway_vcycles,
        task_timeout=args.task_timeout or None,
        retries=args.retries,
    )
    if args.nparts == 2:
        res = bipartition(
            matrix,
            method=args.method,
            eps=args.eps,
            refine=args.refine,
            config=cfg,
            seed=args.seed,
            deadline=deadline,
        )
        parts = res.parts
        print(f"method            : {res.method}")
        print(f"communication vol : {res.volume}")
        print(f"max part size     : {res.max_part}")
        print(f"imbalance         : {res.imbalance:.4f} (eps = {args.eps})")
        print(f"feasible          : {res.feasible}")
        print(f"time              : {res.seconds:.3f} s")
        if res.refinement is not None:
            print(f"IR volume trace   : {res.refinement.volumes}")
            if res.refinement.degraded is not None:
                print(f"degraded          : "
                      f"{res.refinement.degraded.brief()} (deadline hit; "
                      f"best partition so far returned)")
    else:
        res = partition(
            matrix,
            args.nparts,
            method=args.method,
            eps=args.eps,
            refine=args.refine,
            config=cfg,
            seed=args.seed,
            deadline=deadline,
        )
        parts = res.parts
        scheme = (
            "direct k-way" if args.algo == "kway" else "recursive bisection"
        )
        print(f"method            : {res.method} ({scheme})")
        print(f"nparts            : {res.nparts} (jobs = {cfg.jobs})")
        print(f"communication vol : {res.volume}")
        print(f"max part size     : {res.max_part}")
        print(f"imbalance         : {res.imbalance:.4f} (eps = {args.eps})")
        print(f"feasible          : {res.feasible}")
        print(f"time              : {res.seconds:.3f} s")
        cut_short = [b for b in res.failures if b.startswith("Degraded")]
        recovered = [
            b for b in res.failures if not b.startswith("Degraded")
        ]
        if cut_short:
            print(f"degraded          : {', '.join(cut_short)} "
                  f"(deadline hit; best partition so far returned)")
        if recovered:
            print(f"recovered faults  : {', '.join(recovered)}")
    if args.save_parts:
        Path(args.save_parts).write_text(
            "\n".join(str(int(p)) for p in parts) + "\n", encoding="utf-8"
        )
        print(f"part vector saved : {args.save_parts}")
    if args.save_dist:
        from repro.sparse.io_dist import (
            write_distributed_matrix_market,
            write_vector_distribution,
        )
        from repro.spmv.vector_dist import distribute_vectors

        p = args.nparts
        dist = distribute_vectors(matrix, parts, p)
        prefix = Path(args.save_dist)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        mpath = Path(f"{prefix}-P{p}.mtx")
        write_distributed_matrix_market(matrix, parts, p, mpath)
        write_vector_distribution(
            dist.input_owner, p, Path(f"{prefix}-v{p}.mtx")
        )
        write_vector_distribution(
            dist.output_owner, p, Path(f"{prefix}-u{p}.mtx")
        )
        print(f"distributed output: {mpath} (+ -v{p}/-u{p} vectors)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    out = Path(args.out)
    wanted = args.artifact
    # One composable budget for the whole run: the sweep engine splits it
    # between sweep-level workers and the recursion workers inside the
    # p = 64 artifacts, so nested parallelism never oversubscribes.
    args.jobs = JobsBudget.resolve(args.jobs) if args.jobs != 1 else 1
    reports: list[exp.ExperimentReport] = []
    if wanted in ("fig3", "all"):
        reports.append(exp.run_fig3_demo())
    if wanted in ("fig4", "fig5", "table1", "all"):
        data = exp.collect_paper_runs(
            max_tier=args.max_tier,
            nruns=args.nruns,
            base_seed=args.seed,
            progress=args.progress,
            jobs=args.jobs,
            task_timeout=args.task_timeout or None,
            retries=args.retries,
        )
        if wanted in ("fig4", "all"):
            reports.append(exp.run_fig4_profiles(data))
        if wanted in ("fig5", "all"):
            reports.append(exp.run_fig5_time_profile(data))
        if wanted in ("table1", "all"):
            reports.append(exp.run_table1_geomeans(data))
    if wanted in ("fig6", "table2", "all"):
        data_p2 = exp.collect_paper_runs(
            max_tier=args.max_tier,
            nruns=args.nruns,
            config="patoh",
            base_seed=args.seed,
            with_bsp=True,
            progress=args.progress,
            jobs=args.jobs,
            task_timeout=args.task_timeout or None,
            retries=args.retries,
        )
        data_p64 = exp.collect_paper_runs(
            max_tier=args.max_tier,
            nruns=1,
            nparts=64,
            config="patoh",
            base_seed=args.seed,
            with_bsp=True,
            min_nnz=6400,
            progress=args.progress,
            jobs=args.jobs,
            algo=args.algo,
            kway_vcycles=args.kway_vcycles,
            task_timeout=args.task_timeout or None,
            retries=args.retries,
        )
        if wanted in ("fig6", "all"):
            reports.append(exp.run_fig6_profiles(data_p2, data_p64))
        if wanted in ("table2", "all"):
            data_kway = None
            if args.algo == "recursive":
                # The k-way / kway+ml method-family columns need the
                # recursive MG baseline in ``data_p64`` to normalize
                # against; under --algo kway that baseline IS k-way
                # already, so the extra sweeps would compare an engine
                # with itself.
                data_kway = exp.collect_kway_runs(
                    max_tier=args.max_tier,
                    base_seed=args.seed,
                    progress=args.progress,
                    jobs=args.jobs,
                    task_timeout=args.task_timeout or None,
                    retries=args.retries,
                )
            reports.append(
                exp.run_table2_geomeans(data_p2, data_p64, data_kway)
            )
    for report in reports:
        report.write(out)
        print(report.text)
        print()
        print(f"[written to {out / (report.name + '.txt')}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ServeConfig, run_daemon

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_cap=args.queue_cap,
        timeout=args.timeout,
        deadline_grace=args.deadline_grace,
        overload_deadline_factor=args.overload_deadline_factor,
        retries=args.retries,
        jobs=args.jobs,
        backend=args.serve_backend,
        cache_path=args.cache or None,
        cache_cap=args.cache_cap,
        port_file=args.port_file,
        warmup=not args.no_warmup,
        trace_path=args.trace,
    )
    return run_daemon(config)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ServeError
    from repro.serve.client import ServeClient
    from repro.serve.protocol import DEFAULT_SEED

    client = ServeClient(args.host, args.port, retries=args.retries)
    fields: dict = {
        "nparts": args.nparts,
        "method": args.method,
        "algo": args.algo,
        "kway_vcycles": args.kway_vcycles,
        "eps": args.eps,
        "refine": args.refine,
        "config": args.config,
        "seed": DEFAULT_SEED if args.seed is None else args.seed,
    }
    if args.instance:
        fields["instance"] = args.instance
    else:
        fields["matrix_market"] = Path(args.file).read_text(encoding="utf-8")
    if args.timeout is not None:
        fields["timeout"] = args.timeout
    try:
        result = client.partition(**fields)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        for brief in getattr(exc, "briefs", ()):
            print(f"  failure: {brief}", file=sys.stderr)
        return 1
    origin = "cache" if result.get("cached") else "computed"
    print(f"matrix            : {args.instance or Path(args.file).name} "
          f"(digest {result['digest']})")
    print(f"served from       : {origin}")
    if result.get("degraded"):
        briefs = [
            b for b in result.get("failures", ())
            if isinstance(b, str) and b.startswith("Degraded")
        ]
        print(f"degraded          : yes — deadline hit, best partition "
              f"found so far ({', '.join(briefs) or 'no brief'})")
    print(f"nparts            : {result['nparts']} ({result['algo']})")
    print(f"communication vol : {result['volume']}")
    print(f"max part size     : {result['max_part']}")
    print(f"imbalance         : {result['imbalance']:.4f} "
          f"(eps = {result['eps']})")
    print(f"feasible          : {result['feasible']}")
    print(f"time              : {result['seconds']:.3f} s")
    recovered = [
        b for b in result.get("failures", ())
        if not b.startswith("Degraded")
    ]
    if recovered:
        print(f"recovered faults  : {', '.join(recovered)}")
    if args.save_parts and "parts" in result:
        Path(args.save_parts).write_text(
            "\n".join(str(int(p)) for p in result["parts"]) + "\n",
            encoding="utf-8",
        )
        print(f"part vector saved : {args.save_parts}")
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        aggregate_trace,
        count_events,
        read_trace,
        render_report,
    )

    records = list(read_trace(args.trace))
    print(render_report(aggregate_trace(records),
                        events=count_events(records)), end="")
    return 0 if records else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also exposed as the ``repro-partition`` script)."""
    args = build_parser().parse_args(argv)
    if args.command == "partition":
        with _tracing(args.trace):
            return _cmd_partition(args)
    if args.command == "experiment":
        with _tracing(args.trace):
            return _cmd_experiment(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "trace-report":
        return _cmd_trace_report(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
