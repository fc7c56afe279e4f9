"""Tests for the repro-experiments command-line runner."""

import pytest

from repro.experiments.runner import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_PARTIAL,
    EXIT_WATCHDOG,
    EXPERIMENTS,
    main,
)


class TestCLI:
    def test_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "4-GHz system configuration" in out
        assert "completed in" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_out_file_written(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        assert main(["table3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        content = out_file.read_text()
        assert "markov_big" in content

    def test_scale_forwarded(self, capsys):
        # A scaled functional experiment must run end to end.
        assert main(["fig1", "--scale", "0.01", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "MPTU trace" in out

    def test_registry_complete(self):
        assert len(EXPERIMENTS) == 18
        assert "faultsweep" in EXPERIMENTS

    def test_profile_flag_prints_report(self, capsys):
        from repro import perf

        assert main(["fig1", "--scale", "0.01", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "perf profile:" in out
        assert "functional uops/sec" in out
        # The flag must not leave recording on for the rest of the process.
        assert not perf.enabled()


class TestCheckpointResume:
    def test_checkpoint_written_alongside_out(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        assert main(["table3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "results.txt.ckpt.json"
        assert ckpt.exists()
        import json

        data = json.loads(ckpt.read_text())
        assert "table3" in data["completed"]

    def test_resume_skips_completed_experiments(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        assert main(["table3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        first_content = out_file.read_text()
        assert main(["table3", "--out", str(out_file), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipped: already in checkpoint" in out
        # Nothing was re-run, so nothing was re-appended.
        assert out_file.read_text() == first_content

    def test_resume_rejects_checkpoint_on_parameter_change(
        self, tmp_path, capsys
    ):
        # Resuming a sweep with different parameters would silently mix
        # incomparable numbers; the runner must refuse, loudly.
        out_file = tmp_path / "results.txt"
        assert main(["fig1", "--scale", "0.01", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main([
            "fig1", "--scale", "0.02", "--out", str(out_file), "--resume",
        ]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert "skipped" not in captured.out
        assert "parameters" in captured.err
        assert "0.01" in captured.err and "0.02" in captured.err

    def test_resume_rejects_corrupt_checkpoint(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        assert main(["table3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        (tmp_path / "results.txt.ckpt.json").write_text("{not json")
        assert main([
            "table3", "--out", str(out_file), "--resume",
        ]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "corrupt" in err
        assert "--resume" in err  # tells the user how to recover

    def test_without_resume_flag_experiments_rerun(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        assert main(["table3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["table3", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out


class _Rendered:
    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


def _failing_job(job):
    raise RuntimeError("boom")


def _fake_partial_run(seed=1, scale=None):
    """A sweep whose only job always fails: survivors=0, one JobFailure."""
    from repro.experiments.parallel import run_sweep
    from repro.params import MachineConfig

    outcome = run_sweep(
        MachineConfig(), ["b2b"], scale or 0.01, seed=seed,
        processes=1, retries=1, backoff=0.0, job_runner=_failing_job,
    )
    return _Rendered("survivors: %d" % len(outcome.speedups))


def _fake_timing_run(seed=1, scale=None):
    """One real timing run, small enough for the CLI snapshot tests."""
    from repro.core.simulator import TimingSimulator
    from repro.params import MachineConfig
    from repro.workloads.suite import build_benchmark

    workload = build_benchmark("b2b", scale=scale or 0.02, seed=seed)
    result = TimingSimulator(MachineConfig(), workload.memory).run(
        workload.trace, 1000
    )
    return _Rendered("cycles: %s" % result.cycles)


class TestExitCodes:
    @pytest.fixture(autouse=True)
    def _register(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "failsweep", _fake_partial_run)
        monkeypatch.setitem(EXPERIMENTS, "tinytiming", _fake_timing_run)

    def test_partial_sweep_exit_code_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "results.txt"
        assert main(["failsweep", "--out", str(out_file)]) == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "partial: 1 job failed" in out
        assert "b2b: RuntimeError: boom (after 2 attempts)" in out
        # The failure summary also lands in the --out file.
        assert "partial: 1 job failed" in out_file.read_text()

    def test_clean_run_with_snapshots(self, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        argv = ["tinytiming", "--scale", "0.02",
                "--snapshot-every", "5000", "--snapshot-dir", str(snapdir)]
        assert main(argv) == EXIT_CLEAN
        capsys.readouterr()
        snaps = list(snapdir.glob("*.snap"))
        assert len(snaps) == 1
        # Resuming a completed run just finishes the tail, still cleanly.
        assert main(["tinytiming", "--scale", "0.02",
                     "--snapshot-every", "5000",
                     "--resume-from", str(snapdir)]) == EXIT_CLEAN
        capsys.readouterr()

    def test_watchdog_exit_then_resume(self, tmp_path, capsys):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        assert main(["tinytiming", "--scale", "0.02",
                     "--snapshot-every", "5000",
                     "--snapshot-dir", str(snapdir),
                     "--deadline", "0"]) == EXIT_WATCHDOG
        out = capsys.readouterr().out
        assert "watchdog" in out
        assert "--resume-from" in out  # the message says how to continue
        assert list(snapdir.glob("*.snap"))
        # The snapshot left behind is resumable to a clean finish.
        assert main(["tinytiming", "--scale", "0.02",
                     "--snapshot-every", "5000",
                     "--resume-from", str(snapdir)]) == EXIT_CLEAN
        capsys.readouterr()

    def test_snapshot_dir_requires_every(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table1", "--snapshot-dir", str(tmp_path)])

    def test_resume_from_requires_every(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table1", "--resume-from", str(tmp_path)])

    def test_deadline_requires_snapshot_dir(self):
        with pytest.raises(SystemExit):
            main(["table1", "--snapshot-every", "5000", "--deadline", "60"])

    def test_service_store_refuses_snapshot_every(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["tinytiming", "--service-store", str(tmp_path / "cache"),
                  "--snapshot-every", "5000"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--service-store cannot be combined with --snapshot-every" \
            in err
        assert "snapshot policy" in err
        # Refused before any service started or store was opened.
        assert not (tmp_path / "cache").exists()


class TestInvariantFlag:
    def test_check_invariants_flag_restores_global_state(self, capsys):
        from repro.core import invariants

        assert not invariants.checks_enabled()
        assert main(["table1", "--check-invariants"]) == 0
        capsys.readouterr()
        assert not invariants.checks_enabled()

    def test_faultsweep_runs_from_cli(self, capsys):
        assert main(["faultsweep", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Fault sweep" in out
        assert "intensity" in out
