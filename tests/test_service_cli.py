"""The repro-serve command line (repro.service.cli).

The cold-then-warm batch round trip here is the same check CI's service
smoke job performs: the second identical batch must be served (almost)
entirely from cache.
"""

import json

import pytest

from repro.service.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_PARTIAL, main

BATCH = {
    "requests": [
        {"benchmark": "b2c", "scale": 0.02, "mode": "functional"},
        {"benchmark": "b2c", "scale": 0.02, "mode": "functional",
         "machine": {"content": {"enabled": False}},
         "priority": "interactive"},
        {"benchmark": "b2c", "scale": 0.02, "mode": "functional",
         "machine": {"content": {"depth_threshold": 5}}},
    ]
}


def _write_batch(tmp_path, payload=None, name="batch.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload if payload is not None else BATCH))
    return str(path)


class TestBatch:
    def test_cold_then_warm_round_trip(self, tmp_path, capsys):
        batch = _write_batch(tmp_path)
        store = str(tmp_path / "cache")
        cold_report = str(tmp_path / "cold.json")
        warm_report = str(tmp_path / "warm.json")

        assert main(["batch", batch, "--store", store,
                     "--report-json", cold_report]) == EXIT_CLEAN
        cold_out = capsys.readouterr().out
        assert "computed" in cold_out
        assert "service status" in cold_out

        assert main(["batch", batch, "--store", store,
                     "--report-json", warm_report]) == EXIT_CLEAN
        warm_out = capsys.readouterr().out
        assert "cache" in warm_out

        with open(cold_report) as handle:
            cold = json.load(handle)
        with open(warm_report) as handle:
            warm = json.load(handle)
        assert cold["stats"]["cache_hit_rate"] == 0.0
        assert all(row["source"] == "computed" for row in cold["requests"])
        # The CI smoke criterion: >= 90% of the warm batch from cache.
        assert warm["stats"]["cache_hit_rate"] >= 0.9
        assert all(row["source"] == "cache" for row in warm["requests"])
        # Digests are stable across the two runs, row for row.
        assert [r["digest"] for r in cold["requests"]] \
            == [r["digest"] for r in warm["requests"]]

    def test_priority_recorded_in_report(self, tmp_path, capsys):
        batch = _write_batch(tmp_path)
        report = str(tmp_path / "report.json")
        assert main(["batch", batch, "--store", str(tmp_path / "cache"),
                     "--report-json", report]) == EXIT_CLEAN
        capsys.readouterr()
        with open(report) as handle:
            rows = json.load(handle)["requests"]
        assert rows[0]["priority"] == "sweep"
        assert rows[1]["priority"] == "interactive"

    def test_duplicate_requests_dedup_in_one_batch(self, tmp_path, capsys):
        payload = {"requests": [BATCH["requests"][0]] * 3}
        batch = _write_batch(tmp_path, payload)
        report = str(tmp_path / "report.json")
        assert main(["batch", batch, "--store", str(tmp_path / "cache"),
                     "--report-json", report]) == EXIT_CLEAN
        capsys.readouterr()
        with open(report) as handle:
            data = json.load(handle)
        assert data["stats"]["executed"] == 1
        assert data["stats"]["dedup_hits"] == 2

    def test_failed_request_yields_partial_exit(self, tmp_path, capsys):
        payload = {"requests": [
            BATCH["requests"][0],
            {"benchmark": "no_such_benchmark", "scale": 0.02,
             "mode": "functional"},
        ]}
        batch = _write_batch(tmp_path, payload)
        assert main(["batch", batch, "--store", str(tmp_path / "cache"),
                     "--retries", "0"]) == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "failed" in out
        # The good request's result is still cached.
        assert main(["batch", _write_batch(tmp_path, {
            "requests": [BATCH["requests"][0]]
        }, name="good.json"), "--store", str(tmp_path / "cache")]) \
            == EXIT_CLEAN
        assert "cache" in capsys.readouterr().out


class TestBadInput:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == EXIT_ERROR
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["batch", str(path)]) == EXIT_ERROR
        assert "not valid JSON" in capsys.readouterr().err

    def test_empty_requests(self, tmp_path, capsys):
        assert main(
            ["batch", _write_batch(tmp_path, {"requests": []})]
        ) == EXIT_ERROR
        assert "non-empty" in capsys.readouterr().err

    def test_typoed_field_names_the_request(self, tmp_path, capsys):
        payload = {"requests": [
            {"benchmark": "b2c", "scale": 0.02, "benchmrk": "typo"}
        ]}
        assert main(["batch", _write_batch(tmp_path, payload)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "request #0" in err
        assert "unknown request fields" in err

    def test_unknown_machine_field(self, tmp_path, capsys):
        payload = {"requests": [
            {"benchmark": "b2c", "scale": 0.02,
             "machine": {"content": {"depht_threshold": 5}}}
        ]}
        assert main(["batch", _write_batch(tmp_path, payload)]) == EXIT_ERROR
        assert "unknown fields for" in capsys.readouterr().err

    def test_no_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestStatus:
    def test_status_lists_cached_digests(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main(["batch", _write_batch(tmp_path), "--store", store]) \
            == EXIT_CLEAN
        capsys.readouterr()
        assert main(["status", "--store", store]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "3 cached results" in out

    def test_status_on_empty_store(self, tmp_path, capsys):
        assert main(
            ["status", "--store", str(tmp_path / "void")]
        ) == EXIT_CLEAN
        assert "0 cached results" in capsys.readouterr().out

    def test_status_json_schema(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main(["batch", _write_batch(tmp_path), "--store", store]) \
            == EXIT_CLEAN
        capsys.readouterr()
        assert main(["status", "--store", store, "--json"]) == EXIT_CLEAN
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"store", "quarantine", "last_run"}
        assert report["store"]["entries"] == 3
        assert report["store"]["directory"]
        assert set(report["quarantine"]) == {"entries", "jobs"}
        assert report["quarantine"]["entries"] == {"total": 0, "by_code": {}}
        assert report["quarantine"]["jobs"] == 0
        # The batch run's shutdown persisted its taxonomy counters.
        assert report["last_run"] is not None
        assert report["last_run"]["completed"] == 3
        assert report["last_run"]["failure_codes"] == {}
        assert report["last_run"]["breaker_state"] == "closed"

    def test_status_reports_totals_over_every_run(self, tmp_path, capsys):
        # The second batch is served from cache and computes nothing, so
        # its counters alone would read 0 completed: what status prints
        # is the store's totals, and it must say so.
        store = str(tmp_path / "cache")
        batch = _write_batch(tmp_path)
        for _ in range(2):
            assert main(["batch", batch, "--store", store]) == EXIT_CLEAN
        capsys.readouterr()
        assert main(["status", "--store", store]) == EXIT_CLEAN
        human = capsys.readouterr().out
        assert "service totals over 2 runs: 3 completed, 0 failed" in human
        assert "last service run" not in human
        assert main(["status", "--store", store, "--json"]) == EXIT_CLEAN
        totals = json.loads(capsys.readouterr().out)["last_run"]
        assert totals["runs"] == 2
        assert totals["submitted"] == 6
        assert totals["completed"] == 3
        assert totals["cache_hits"] == 3

    def test_status_json_reports_failures_and_quarantine(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "cache")
        bad = {"requests": [
            {"benchmark": "b2c", "scale": 0.02, "mode": "functional"},
            {"benchmark": "no-such-bench", "scale": 0.02,
             "mode": "functional"},
        ]}
        assert main(["batch", _write_batch(tmp_path, bad), "--store", store,
                     "--retries", "0"]) == EXIT_PARTIAL
        # Damage the cached entry so status sees store quarantine too.
        from repro.service.store import ResultStore
        damaged = ResultStore(store)
        digest = damaged.entries()[0]
        with open(damaged.path(digest), "wb") as handle:
            handle.write(b"garbage")
        damaged.scrub()
        capsys.readouterr()
        assert main(["status", "--store", store, "--json"]) == EXIT_CLEAN
        report = json.loads(capsys.readouterr().out)
        assert report["quarantine"]["entries"]["total"] == 1
        assert report["quarantine"]["entries"]["by_code"] == {"unreadable": 1}
        assert report["last_run"]["failure_codes"] == {"sim_error": 1}
        capsys.readouterr()
        assert main(["status", "--store", store]) == EXIT_CLEAN
        human = capsys.readouterr().out
        assert "quarantined entries: 1" in human
        assert "failures by code: sim_error=1" in human


class TestScrub:
    def _seed_store(self, tmp_path):
        store = str(tmp_path / "cache")
        assert main(["batch", _write_batch(tmp_path), "--store", store]) \
            == EXIT_CLEAN
        return store

    def test_scrub_clean_store_exits_clean(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["scrub", "--store", store]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "3 scanned, 3 ok" in out

    def test_scrub_quarantines_damage_and_exits_partial(
        self, tmp_path, capsys
    ):
        store = self._seed_store(tmp_path)
        from repro.service.store import ResultStore
        damaged = ResultStore(store)
        digest = damaged.entries()[0]
        with open(damaged.path(digest), "wb") as handle:
            handle.write(b"garbage")
        capsys.readouterr()
        assert main(["scrub", "--store", store, "--json"]) == EXIT_PARTIAL
        report = json.loads(capsys.readouterr().out)
        assert report["scanned"] == 3
        assert report["ok"] == 2
        assert report["quarantined"] == {"unreadable": 1}
        assert report["unrepaired"] == 1

    def test_scrub_repair_recomputes_flipped_entry(self, tmp_path, capsys):
        import pickle

        store = self._seed_store(tmp_path)
        from repro.service.store import ResultStore
        damaged = ResultStore(store)
        digest = damaged.entries()[0]
        path = damaged.path(digest)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["result"] = pickle.dumps("tampered")
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        capsys.readouterr()
        assert main(["scrub", "--store", store, "--repair"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "1 repaired" in out.replace("(", "").replace(")", "")
        # The entry is valid again and the store is fully warm.
        fresh = ResultStore(store)
        assert digest in fresh
        capsys.readouterr()
        assert main(["scrub", "--store", store]) == EXIT_CLEAN
        assert "3 ok" in capsys.readouterr().out


class TestServeCommand:
    def test_token_specs_parse_to_priority_map(self):
        from repro.service.cli import _parse_tokens
        from repro.service.request import Priority

        tokens = _parse_tokens(["alice=interactive", "bot=sweep"])
        assert tokens == {
            "alice": Priority.INTERACTIVE,
            "bot": Priority.SWEEP,
        }
        assert _parse_tokens(None) == {}

    def test_malformed_token_spec_is_a_clean_error(self, capsys):
        assert main(["serve", "--token", "no-equals-sign"]) == EXIT_ERROR
        assert "TOKEN=PRIORITY" in capsys.readouterr().err

    def test_bad_priority_in_token_spec_is_a_clean_error(self, capsys):
        assert main(["serve", "--token", "alice=urgent"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err
