"""The content-addressed result store (repro.service.store).

A cache must never be load-bearing: every corruption mode here has to
degrade to a miss (plus quarantine of the damaged entry — moved aside
for forensics, never deleted), never to a wrong or torn result.
"""

import json
import os
import pickle

import pytest

from repro.service.store import RESULT_STORE_VERSION, ResultStore

DIGEST = "ab" * 16  # 32 hex chars, like a real blake2b-128 digest
OTHER = "cd" * 16


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(DIGEST, {"cycles": 123.0}, fingerprint={"seed": 1})
        assert store.get(DIGEST, fingerprint={"seed": 1}) == {"cycles": 123.0}
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_missing_is_a_miss(self, store):
        assert store.get(DIGEST) is None
        assert store.stats.misses == 1
        assert store.stats.invalidated == 0

    def test_contains_and_entries(self, store):
        assert DIGEST not in store
        store.put(DIGEST, 1)
        store.put(OTHER, 2)
        assert DIGEST in store
        assert sorted(store.entries()) == sorted([DIGEST, OTHER])

    def test_sharded_layout(self, store):
        path = store.put(DIGEST, 1)
        assert "/%s/" % DIGEST[:2] in path
        assert path.endswith(DIGEST + ".res")

    def test_overwrite_is_atomic_replace(self, store):
        store.put(DIGEST, "old")
        store.put(DIGEST, "new")
        assert store.get(DIGEST) == "new"

    def test_rejects_non_hex_digest(self, store):
        with pytest.raises(ValueError, match="hex digest"):
            store.path("../escape")


class TestCorruptionDegradesToMiss:
    def _entry_path(self, store):
        return store.path(DIGEST)

    def test_garbage_bytes(self, store):
        store.put(DIGEST, 42)
        with open(self._entry_path(store), "wb") as handle:
            handle.write(b"not a pickle at all")
        assert store.get(DIGEST) is None
        assert store.stats.invalidated == 1
        # The damaged entry is gone; the next lookup is a clean miss.
        assert DIGEST not in store

    def test_truncated_entry(self, store):
        store.put(DIGEST, {"big": list(range(1000))})
        path = self._entry_path(store)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert store.get(DIGEST) is None
        assert store.stats.invalidated == 1

    def _tamper(self, store, **overrides):
        path = self._entry_path(store)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope.update(overrides)
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)

    def test_checksum_mismatch(self, store):
        store.put(DIGEST, "payload")
        self._tamper(store, result=pickle.dumps("swapped payload"))
        assert store.get(DIGEST) is None
        assert store.stats.invalidated == 1
        assert store.stats.quarantined == {"checksum_mismatch": 1}

    def test_store_version_mismatch(self, store):
        store.put(DIGEST, "payload")
        self._tamper(store, store_version=RESULT_STORE_VERSION + 1)
        assert store.get(DIGEST) is None
        assert store.stats.invalidated == 1
        assert store.stats.quarantined == {"version_mismatch": 1}

    def test_wrong_digest_key(self, store):
        store.put(DIGEST, "payload")
        self._tamper(store, digest=OTHER)
        assert store.get(DIGEST) is None
        assert store.stats.quarantined == {"wrong_digest": 1}

    def test_fingerprint_mismatch(self, store):
        store.put(DIGEST, "payload", fingerprint={"seed": 1})
        assert store.get(DIGEST, fingerprint={"seed": 2}) is None
        assert store.stats.invalidated == 1
        assert store.stats.quarantined == {"fingerprint_mismatch": 1}

    def test_fingerprint_not_checked_when_omitted(self, store):
        store.put(DIGEST, "payload", fingerprint={"seed": 1})
        assert store.get(DIGEST) == "payload"


class TestMaintenance:
    def test_invalidate(self, store):
        store.put(DIGEST, 1)
        assert store.invalidate(DIGEST) is True
        assert store.invalidate(DIGEST) is False
        assert store.get(DIGEST) is None

    def test_prune_removes_only_damaged_entries(self, store):
        store.put(DIGEST, "good")
        store.put(OTHER, "bad")
        with open(store.path(OTHER), "wb") as handle:
            handle.write(b"garbage")
        assert store.prune() == 1
        assert store.entries() == [DIGEST]
        assert store.get(DIGEST) == "good"

    def test_stats_hit_rate(self, store):
        store.put(DIGEST, 1)
        store.get(DIGEST)
        store.get(OTHER)
        assert store.stats.lookups == 2
        assert store.stats.hit_rate == 0.5
        as_dict = store.stats.as_dict()
        assert as_dict["hits"] == 1
        assert as_dict["hit_rate"] == 0.5

    def test_empty_store_entries(self, store):
        assert store.entries() == []
        assert store.prune() == 0


class TestQuarantine:
    def test_damaged_entry_moves_to_quarantine_not_unlink(self, store):
        store.put(DIGEST, 42)
        with open(store.path(DIGEST), "wb") as handle:
            handle.write(b"not a pickle at all")
        assert store.get(DIGEST) is None
        # The bytes survive for forensics, with a reason sidecar.
        moved = os.listdir(store.quarantine_dir)
        assert DIGEST + ".res" in moved
        assert DIGEST + ".res.reason.json" in moved
        sidecar = json.loads(
            open(os.path.join(store.quarantine_dir,
                              DIGEST + ".res.reason.json")).read()
        )
        assert sidecar["code"] == "unreadable"
        assert sidecar["quarantined_at"]

    def test_quarantined_counted_by_code(self, store):
        store.put(DIGEST, "payload")
        store.put(OTHER, "payload2")
        with open(store.path(DIGEST), "wb") as handle:
            handle.write(b"garbage")
        path = store.path(OTHER)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["result"] = pickle.dumps("swapped")
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        store.get(DIGEST)
        store.get(OTHER)
        assert store.stats.quarantined == {
            "unreadable": 1, "checksum_mismatch": 1,
        }
        summary = store.quarantine_summary()
        assert summary["total"] == 2
        assert summary["by_code"] == {
            "unreadable": 1, "checksum_mismatch": 1,
        }

    def test_quarantine_collisions_keep_every_copy(self, store):
        for _ in range(3):
            store.put(DIGEST, "payload")
            with open(store.path(DIGEST), "wb") as handle:
                handle.write(b"garbage")
            assert store.get(DIGEST) is None
        names = [n for n in os.listdir(store.quarantine_dir)
                 if n.endswith(".res") or ".res." in n]
        res_files = [n for n in names if not n.endswith(".reason.json")]
        assert len(res_files) == 3  # no overwrite of older evidence

    def test_quarantine_dir_is_not_an_entry_shard(self, store):
        store.put(DIGEST, "good")
        store.put(OTHER, "bad")
        with open(store.path(OTHER), "wb") as handle:
            handle.write(b"garbage")
        store.get(OTHER)
        assert store.entries() == [DIGEST]


class TestScrub:
    def test_scrub_clean_store(self, store):
        store.put(DIGEST, 1, fingerprint={"seed": 1})
        report = store.scrub()
        assert report.scanned == 1
        assert report.ok == 1
        assert report.corrupt == 0
        assert "1 ok" in report.render()

    def test_scrub_quarantines_and_reports_by_code(self, store):
        store.put(DIGEST, "good")
        store.put(OTHER, "bad")
        with open(store.path(OTHER), "wb") as handle:
            handle.write(b"garbage")
        report = store.scrub()
        assert report.scanned == 2
        assert report.ok == 1
        assert report.quarantined == {"unreadable": 1}
        assert report.unrepaired == 1
        assert OTHER not in store
        assert store.get(DIGEST) == "good"

    def test_scrub_repairs_fingerprinted_entries(self, store):
        store.put(DIGEST, "original", fingerprint={"seed": 1})
        path = store.path(DIGEST)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["result"] = pickle.dumps("tampered")
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)

        calls = []

        def repair(digest, fingerprint):
            calls.append((digest, fingerprint))
            store.put(digest, "recomputed", fingerprint=fingerprint)
            return True

        report = store.scrub(repair=repair)
        assert calls == [(DIGEST, {"seed": 1})]
        assert report.repaired == 1
        assert report.unrepaired == 0
        assert store.get(DIGEST, fingerprint={"seed": 1}) == "recomputed"

    def test_failed_repair_counts_as_unrepaired(self, store):
        store.put(DIGEST, "original", fingerprint={"seed": 1})
        with open(store.path(DIGEST), "wb") as handle:
            handle.write(b"garbage")  # unreadable: no fingerprint survives
        report = store.scrub(repair=lambda d, f: True)
        assert report.repaired == 0
        assert report.unrepaired == 1

    def test_prune_is_scrub_without_repair(self, store):
        store.put(DIGEST, "good")
        store.put(OTHER, "bad")
        with open(store.path(OTHER), "wb") as handle:
            handle.write(b"garbage")
        assert store.prune() == 1
        assert store.entries() == [DIGEST]


class TestAtomicSidecars:
    """Quarantine reason sidecars go through the same same-dir-temp +
    fsync + os.replace idiom as entries: a crash mid-write must never
    leave a *torn* sidecar (half a JSON document) behind."""

    def test_atomic_write_json_replaces_and_cleans_temp(self, tmp_path):
        from repro.service.store import atomic_write_json

        path = str(tmp_path / "nested" / "doc.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})  # overwrite is a replace
        assert json.load(open(path)) == {"v": 2}
        siblings = os.listdir(os.path.dirname(path))
        assert siblings == ["doc.json"]  # no temp debris

    def test_failed_write_preserves_previous_content(self, tmp_path):
        from repro.service import store as store_module

        path = str(tmp_path / "doc.json")
        store_module.atomic_write_json(path, {"v": "good"})

        class Torn:
            """Serializes like a dict until json hits the poison value."""
            def __init__(self):
                self.boom = True

        with pytest.raises(TypeError):
            store_module.atomic_write_json(path, {"v": Torn()})
        # The visible file still holds the last complete document and
        # the aborted temp file was cleaned up.
        assert json.load(open(path)) == {"v": "good"}
        assert os.listdir(str(tmp_path)) == ["doc.json"]

    def test_sidecar_crash_leaves_no_torn_json(self, store, monkeypatch):
        """Simulated crash mid-sidecar-write: the quarantined entry
        survives, and there is either a complete sidecar or none — never
        a truncated one (the pre-fix bare ``json.dump`` failure mode)."""
        from repro.service import store as store_module

        real_dump = json.dump

        def crashing_dump(tree, handle, **kwargs):
            handle.write('{"code": "unre')  # half a document...
            raise OSError(28, "No space left on device")  # ...then crash

        store.put(DIGEST, 42)
        with open(store.path(DIGEST), "wb") as handle:
            handle.write(b"corrupted")
        monkeypatch.setattr(store_module.json, "dump", crashing_dump)
        assert store.get(DIGEST) is None  # degrades to a miss as ever
        monkeypatch.setattr(store_module.json, "dump", real_dump)

        names = os.listdir(store.quarantine_dir)
        assert DIGEST + ".res" in names  # forensics preserved
        assert not [n for n in names if ".tmp." in n]  # no debris
        for name in names:
            if name.endswith(".reason.json"):
                # Any sidecar that exists must parse completely.
                json.load(open(os.path.join(store.quarantine_dir, name)))

    def test_torn_sidecar_is_counted_not_fatal(self, store):
        """A torn sidecar from a pre-fix crash (or direct disk damage)
        must not break the quarantine census: it counts as 'unknown'."""
        store.put(DIGEST, "payload")
        with open(store.path(DIGEST), "wb") as handle:
            handle.write(b"corrupted")
        assert store.get(DIGEST) is None
        sidecar = os.path.join(
            store.quarantine_dir, DIGEST + ".res.reason.json"
        )
        with open(sidecar, "w") as handle:
            handle.write('{"code": "unre')  # tear it after the fact
        summary = store.quarantine_summary()
        assert summary["total"] == 1
        assert summary["by_code"] == {"unknown": 1}
