"""``python -m repro run-ses`` — one resumable SES training run.

The fault-tolerant front door to :class:`~repro.core.ses.SESTrainer`
(docs/ROBUSTNESS.md): unlike the table/figure experiment harnesses, this
command trains a single configuration and exposes the checkpoint/resume
runtime directly:

* ``--checkpoint-every N`` writes a full-state snapshot every N completed
  epochs (atomic, checksummed) into ``--checkpoint-dir``;
* ``--resume [PATH]`` continues an interrupted run — from an explicit
  snapshot file, a checkpoint directory, or (with no argument) the default
  checkpoint directory for this dataset/backbone/seed.  The resumed run
  reproduces the uninterrupted one bit-for-bit;
* ``--recover`` enables the NaN-recovery policy (rollback + LR backoff +
  bounded retries; ``--recover raise`` aborts instead of degrading);
* ``--workers N`` shards each epoch across N supervised worker processes
  with heartbeats, automatic restarts and deterministic degradation; the
  trajectory is bit-identical at any worker count (docs/PARALLEL.md);
* ``--faults SPEC`` injects faults for harness testing, e.g.
  ``crash@explainable:30`` or ``nan@predictive:2:matmul`` (grammar in
  docs/ROBUSTNESS.md; also honoured from ``REPRO_FAULTS``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def default_checkpoint_dir(dataset: str, backbone: str, seed: int) -> Path:
    """Where ``--checkpoint-every`` writes when no directory is given."""
    return Path("results") / "checkpoints" / f"{dataset}-{backbone}-seed{seed}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run-ses",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--dataset", default="cora")
    parser.add_argument("--backbone", default="gcn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier (0.15 = smoke-test size)")
    parser.add_argument("--explainable-epochs", type=int, default=None)
    parser.add_argument("--predictive-epochs", type=int, default=None)
    parser.add_argument("--hidden", type=int, default=None,
                        help="encoder hidden width (default: fast_config's)")
    parser.add_argument("--batch-size", type=int, default=None, metavar="B",
                        help="train with neighbor-sampled anchor minibatches "
                             "of B nodes (default: full-batch; B >= num_nodes "
                             "reproduces full-batch bit-for-bit)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="data-parallel training across N worker "
                             "processes (bit-identical to --workers 1 at any "
                             "N; mutually exclusive with --batch-size — see "
                             "docs/PARALLEL.md)")
    parser.add_argument("--shards", type=int, default=None, metavar="S",
                        help="anchor shards per epoch (default 4); fixes the "
                             "reduction structure independently of --workers")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        metavar="SEC",
                        help="seconds of worker silence before the liveness "
                             "watchdog declares it hung (default 10)")
    parser.add_argument("--max-worker-restarts", type=int, default=None,
                        metavar="K",
                        help="restart budget per worker rank before the pool "
                             "degrades to fewer workers (default 2)")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                        help="write a full-state snapshot every N epochs")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="snapshot directory (default: results/checkpoints/<run>)")
    parser.add_argument("--checkpoint-keep", type=int, default=3,
                        help="newest snapshots kept on disk (0 = keep all)")
    parser.add_argument("--resume", nargs="?", const="auto", default=None,
                        metavar="PATH",
                        help="resume from a snapshot file or directory; bare "
                             "--resume uses the default checkpoint directory")
    parser.add_argument("--recover", nargs="?", const="1", default=None,
                        choices=["1", "raise"],
                        help="enable NaN rollback/backoff recovery "
                             "(`raise` aborts on exhaustion instead of degrading)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault-injection plan, e.g. crash@explainable:30 "
                             "(overrides REPRO_FAULTS)")
    parser.add_argument("--telemetry", action="store_true",
                        help="write a JSONL run record under results/runs/")
    parser.add_argument("--live", action="store_true",
                        help="draw an in-place ANSI training dashboard on "
                             "stderr (uses an in-memory run record unless "
                             "--telemetry is also given)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.batch_size is not None:
        parser.error("--workers and --batch-size are mutually exclusive")
    if args.workers is None:
        for flag, value in (
            ("--shards", args.shards),
            ("--heartbeat-timeout", args.heartbeat_timeout),
            ("--max-worker-restarts", args.max_worker_restarts),
        ):
            if value is not None:
                parser.error(f"{flag} applies only with --workers")
    if args.resume not in (None, "auto") and not Path(args.resume).exists():
        parser.error(f"--resume: no such file or directory: {args.resume}")

    from .datasets import dataset_key, dataset_names
    from .nn.encoder import BACKBONES

    if dataset_key(args.dataset) not in dataset_names():
        parser.error(f"--dataset: unknown dataset {args.dataset!r}; "
                     f"expected one of {tuple(dataset_names())}")
    if args.backbone not in BACKBONES:
        parser.error(f"--backbone: unknown backbone {args.backbone!r}; "
                     f"expected one of {BACKBONES}")
    # The flag wins over its environment variable; whichever is used is
    # checked here, before the dataset load, not inside SESTrainer.
    from .resilience import (
        CheckpointError,
        FaultPlan,
        RecoveryPolicy,
        TrainingDivergedError,
        recovery_policy_from_env,
    )

    try:
        faults = FaultPlan.parse(args.faults) if args.faults is not None else FaultPlan.from_env()
    except ValueError as error:
        parser.error(f"{'--faults' if args.faults is not None else 'REPRO_FAULTS'}: {error}")
    if args.recover is not None:
        recovery = RecoveryPolicy(
            on_exhaustion="raise" if args.recover == "raise" else "degrade"
        )
    else:
        try:
            recovery = recovery_policy_from_env()
        except ValueError as error:
            parser.error(str(error))
    if args.telemetry:
        os.environ["REPRO_TELEMETRY"] = "1"

    # Imports after arg parsing so `--help` stays instant.
    from .core import SESTrainer, fast_config
    from .datasets import load_dataset
    from .graph import classification_split

    overrides = {"seed": args.seed}
    if args.explainable_epochs is not None:
        overrides["explainable_epochs"] = args.explainable_epochs
    if args.predictive_epochs is not None:
        overrides["predictive_epochs"] = args.predictive_epochs
    if args.hidden is not None:
        overrides["hidden_features"] = args.hidden
        overrides["mask_mlp_hidden"] = args.hidden
    config = fast_config(args.backbone, **overrides)

    graph = classification_split(
        load_dataset(args.dataset, scale=args.scale, seed=args.seed), seed=args.seed
    )

    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and (args.checkpoint_every > 0 or args.resume == "auto"):
        checkpoint_dir = default_checkpoint_dir(args.dataset, args.backbone, args.seed)
    resume_from = None
    if args.resume is not None:
        resume_from = Path(checkpoint_dir if args.resume == "auto" else args.resume)

    recorder = None
    dashboard = None
    if args.live:
        # The dashboard is a recorder listener, so --live needs a real
        # RunRecorder even with telemetry off — an in-memory one then: the
        # events drive the TTY and are discarded.
        import io

        from .obs.dashboard import LiveDashboard
        from .obs.recorder import RunRecorder, default_recorder, telemetry_enabled

        name = f"{args.dataset}-{args.backbone}-seed{args.seed}"
        if telemetry_enabled():
            recorder = default_recorder(name)
        else:
            recorder = RunRecorder(run_id=name, path=io.StringIO())
        dashboard = LiveDashboard().attach(recorder)

    trainer = SESTrainer(
        graph, config, recorder=recorder, recovery=recovery, faults=faults
    )
    if args.workers is not None:
        trainer.configure_parallel(
            args.workers,
            shards=args.shards,
            heartbeat_timeout=args.heartbeat_timeout,
            max_restarts=args.max_worker_restarts,
        )
    try:
        result = trainer.fit(
            resume_from=resume_from,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            checkpoint_keep=args.checkpoint_keep,
            batch_size=args.batch_size,
        )
    except (CheckpointError, TrainingDivergedError) as error:
        print(f"run-ses: {error}", file=sys.stderr)
        return 1
    finally:
        if dashboard is not None:
            dashboard.close()
        if recorder is not None:
            recorder.close()

    completed = trainer._completed
    print(f"dataset={graph.name} backbone={config.backbone} seed={config.seed}")
    if trainer.batch_size is not None:
        print(f"minibatch: batch_size={trainer.batch_size} "
              f"({trainer._sampler.num_batches} batches/epoch)")
    if trainer.workers is not None:
        print(f"parallel: workers={trainer.workers} "
              f"shards={trainer._sampler.num_batches} "
              f"restarts={trainer._parallel.total_restarts}")
    print(f"epochs: explainable={completed['explainable']} "
          f"predictive={completed['predictive']}")
    if trainer.recovery is not None and trainer.recovery.total_rollbacks:
        print(f"recovery: {trainer.recovery.total_rollbacks} rollback(s), "
              f"degraded={sorted(trainer.recovery.degraded_phases) or 'none'}")
    print(f"test accuracy: {result.test_accuracy:.4f}")
    print(f"val accuracy:  {result.val_accuracy:.4f}")
    print(f"readout: {trainer.active_readout()}  "
          f"training time: {result.training_time:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
