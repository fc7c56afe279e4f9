"""Command-line entry point: ``python -m repro.experiments <id> [...]``.

Examples::

    repro-experiments table1
    repro-experiments fig9 --scale 0.2
    repro-experiments all --scale 0.1 --out results.txt
    repro-experiments all --out results.txt --resume   # skip finished ones
    repro-experiments faultsweep --check-invariants
    repro-experiments fig9 --snapshot-every 2000000 --snapshot-dir snaps \\
        --deadline 3500                                # snapshot + watchdog
    repro-experiments fig9 --snapshot-every 2000000 --resume-from snaps

Long ``all`` runs are crash-safe: with ``--out``, each experiment's
rendered output is appended (and a checkpoint sidecar updated) as soon as
it completes, and ``--resume`` skips experiments the checkpoint already
records — a crash mid-sweep loses only the experiment that was running.
With ``--snapshot-every``, even the experiment that was running loses
nothing: every timing run snapshots its full architectural state
periodically and ``--resume-from`` continues each run from its last
snapshot, bit-identically (see :mod:`repro.snapshot`).

Exit codes: 0 — everything completed; 2 — bad invocation, corrupt or
mismatched checkpoint/snapshot; 3 — completed partially (crash-safe
sweeps skipped failing jobs; survivors' results are valid); 4 — the
wall-clock watchdog expired and state was snapshotted (resume with
``--resume-from``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import perf
from repro.core import invariants
from repro.experiments import parallel as _parallel
from repro.experiments import (
    ablation,
    faultsweep,
    fig1,
    fig2,
    fig3,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    pollution,
    related,
    sensitivity,
    table1,
    table2,
    table3,
    tlbsweep,
    zoo,
)

from repro.snapshot import (
    SnapshotError,
    SnapshotPolicy,
    WatchdogExpired,
    set_policy,
)

__all__ = ["EXPERIMENTS", "CheckpointError", "main"]

# Process exit codes (documented in the module docstring and EXPERIMENTS.md).
EXIT_CLEAN = 0
EXIT_ERROR = 2
EXIT_PARTIAL = 3
EXIT_WATCHDOG = 4


class CheckpointError(Exception):
    """The ``--out`` checkpoint sidecar is unusable for resuming."""

EXPERIMENTS = {
    "table1": table1.run,
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "table2": table2.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "tlb": tlbsweep.run,
    "fig10": fig10.run,
    "table3": table3.run,
    "fig11": fig11.run,
    "pollution": pollution.run,
    "ablation": ablation.run,
    "zoo": zoo.run,
    "sensitivity": sensitivity.run,
    "related": related.run,
    "faultsweep": faultsweep.run,
}

# Experiments whose run() takes no scale (configuration dumps).
_UNSCALED = {"table1", "table3", "fig2", "fig3"}


def _checkpoint_path(out_path: str) -> str:
    return out_path + ".ckpt.json"


def _load_checkpoint(out_path: str, fingerprint: dict) -> dict:
    """Completed-experiment records from a previous (crashed) run.

    A checkpoint that cannot be used raises :class:`CheckpointError` with
    a message saying why and what to do — resuming a ``--scale 0.1``
    sweep with ``--scale 0.5`` results would silently mix incomparable
    numbers, and a half-written sidecar means the previous run's appends
    cannot be trusted either.
    """
    path = _checkpoint_path(out_path)
    if not os.path.exists(path):
        return {}
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (json.JSONDecodeError, OSError) as exc:
        raise CheckpointError(
            "checkpoint %s is corrupt (%s); delete it, or rerun without "
            "--resume to start the sweep over" % (path, exc)
        ) from exc
    if not isinstance(data, dict) or "completed" not in data:
        raise CheckpointError(
            "checkpoint %s is not a repro-experiments checkpoint; delete "
            "it, or rerun without --resume" % path
        )
    if data.get("fingerprint") != fingerprint:
        raise CheckpointError(
            "checkpoint %s was written with parameters %s, but this run "
            "uses %s — finish with the original parameters, or rerun "
            "without --resume to discard it"
            % (path, data.get("fingerprint"), fingerprint)
        )
    completed = data.get("completed", {})
    return completed if isinstance(completed, dict) else {}


def _save_checkpoint(out_path: str, fingerprint: dict, completed: dict) -> None:
    """Atomically persist the finished experiments (tmp + fsync + replace)."""
    path = _checkpoint_path(out_path)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "w") as handle:
            json.dump(
                {"fingerprint": fingerprint, "completed": completed},
                handle, indent=1,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id, or 'all'",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale factor (default: per-experiment)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload build seed"
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="also append rendered output to this file (incrementally, "
             "with a resumable checkpoint sidecar)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip experiments already recorded in the --out checkpoint",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="run the full simulation-integrity checker after every "
             "timing run (fails loudly instead of reporting bad numbers)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="record a state digest (and, with --snapshot-dir, a full "
             "resumable snapshot) every N simulated uops of each timing run",
    )
    parser.add_argument(
        "--snapshot-dir", type=str, default=None, metavar="DIR",
        help="directory for per-run snapshot files (requires "
             "--snapshot-every)",
    )
    parser.add_argument(
        "--resume-from", type=str, default=None, metavar="DIR",
        help="resume each timing run from its snapshot in DIR when one "
             "exists (implies --snapshot-dir DIR)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock watchdog: once SECONDS elapse, the next snapshot "
             "boundary saves state and the process exits with code 4 "
             "(requires --snapshot-every and a snapshot directory)",
    )
    parser.add_argument(
        "--service-store", type=str, default=None, metavar="DIR",
        help="run timing sweeps through the simulation service "
             "(repro.service) with a content-addressed result cache "
             "rooted at DIR: a re-run sweep recomputes only the cells "
             "whose configuration changed",
    )
    parser.add_argument(
        "--service-workers", type=int, default=1, metavar="N",
        help="worker count for --service-store (default: 1)",
    )
    parser.add_argument(
        "--service-mode", choices=("thread", "fabric"),
        default="thread",
        help="worker tier for --service-store: in-process threads or "
             "the persistent multi-process fabric (default: thread)",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="render an ASCII chart of the result where supported",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="record stage timings and simulator throughput "
             "(repro.perf) and print the profile after each experiment",
    )
    args = parser.parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    snapshot_dir = args.resume_from or args.snapshot_dir
    if snapshot_dir is not None and args.snapshot_every is None:
        parser.error("--snapshot-dir/--resume-from require --snapshot-every")
    if args.deadline is not None and snapshot_dir is None:
        parser.error(
            "--deadline requires --snapshot-every and --snapshot-dir "
            "(expiry saves a snapshot before exiting)"
        )
    if args.service_store and args.snapshot_every is not None:
        # Thread workers share this process and fabric workers fork
        # after set_policy(), so service jobs would inherit the policy.
        parser.error(
            "--service-store cannot be combined with --snapshot-every: "
            "service jobs would run under this process's snapshot "
            "policy, and a --deadline would fail them as sim_error"
        )
    policy = None
    if args.snapshot_every is not None:
        try:
            policy = SnapshotPolicy(
                every=args.snapshot_every,
                directory=snapshot_dir,
                resume=args.resume_from is not None,
                deadline=args.deadline,
            )
        except ValueError as exc:
            parser.error(str(exc))
    fingerprint = {"scale": args.scale, "seed": args.seed}
    completed: dict = {}
    previous_checks = invariants.set_global_checks(
        args.check_invariants or invariants.checks_enabled()
    )
    previous_profile = perf.set_enabled(args.profile or perf.enabled())
    previous_policy = set_policy(policy) if policy is not None else None
    _parallel.drain_sweep_failures()  # stale failures from earlier calls
    session = None
    if args.service_store:
        from repro.service.client import ServiceSession

        session = ServiceSession(
            store_dir=args.service_store,
            max_workers=args.service_workers,
            worker_mode=args.service_mode,
            max_pending=4096,
        ).start()
        session.install()
    try:
        if args.out and args.resume:
            completed = _load_checkpoint(args.out, fingerprint)
        for name in names:
            if name in completed:
                print("[%s skipped: already in checkpoint]" % name)
                continue
            run = EXPERIMENTS[name]
            kwargs = {}
            if name not in _UNSCALED:
                kwargs["seed"] = args.seed
                if args.scale is not None:
                    kwargs["scale"] = args.scale
            started = time.time()
            if args.profile:
                perf.RECORDER.reset()
            result = run(**kwargs)
            elapsed = time.time() - started
            text = result.render()
            if args.profile:
                text += "\n\n" + perf.report()
            if args.chart:
                from repro.experiments.chartrender import render_chart

                chart = render_chart(result)
                if chart:
                    text += "\n\n" + chart
            text += "\n\n[%s completed in %.1fs]\n" % (name, elapsed)
            print(text)
            if args.out:
                # Append immediately: a crash on a later experiment loses
                # nothing that already finished.
                with open(args.out, "a") as handle:
                    handle.write(text + "\n")
                completed[name] = {"elapsed": elapsed, "text": text}
                _save_checkpoint(args.out, fingerprint, completed)
    except (CheckpointError, SnapshotError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except WatchdogExpired as exc:
        print("[watchdog] %s" % exc)
        return EXIT_WATCHDOG
    finally:
        invariants.set_global_checks(previous_checks)
        perf.set_enabled(previous_profile)
        if policy is not None:
            set_policy(previous_policy)
        if session is not None:
            status = session.status()
            session.close()
            print(status.render())
    failures = _parallel.drain_sweep_failures()
    if failures:
        summary = "[partial: %d job%s failed; survivors' results are " \
            "complete]\n" % (len(failures), "" if len(failures) == 1 else "s")
        summary += "\n".join(
            "  %s: %s (after %d attempt%s%s)"
            % (f.benchmark, f.error, f.attempts,
               "" if f.attempts == 1 else "s",
               ", timed out" if f.timed_out else "")
            for f in failures
        )
        print(summary)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(summary + "\n")
        return EXIT_PARTIAL
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
