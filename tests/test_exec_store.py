"""ResultStore and atomic-JSON-write behaviour (no simulation here)."""

import json
import os

import pytest

from repro.exec import (
    FleetBackend,
    ProbeJob,
    ResultStore,
    WorkerLostError,
    payload_checksum,
    seal,
    unseal,
)
from repro.exec.fleet import RESULT_DIR
from repro.exec.store import ENVELOPE_KEY, SCHEMA_VERSION
from repro.harness.serialize import write_json_atomic

FP = "ab" + "0" * 62
FP2 = "cd" + "1" * 62


def test_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "cache")
    assert store.get(FP) is None
    assert FP not in store
    store.put(FP, {"x": 1.5, "nested": {"k": [1, 2]}})
    assert FP in store
    assert store.get(FP) == {"x": 1.5, "nested": {"k": [1, 2]}}
    assert len(store) == 1


def test_entries_sharded_by_prefix(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, {})
    store.put(FP2, {})
    assert (tmp_path / "ab" / f"{FP}.json").is_file()
    assert (tmp_path / "cd" / f"{FP2}.json").is_file()
    assert len(store) == 2


def test_corrupt_entry_quarantined_not_crashed(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, {"ok": True})
    path = store.path_for(FP)
    path.write_text('{"ok": tru')  # truncated mid-write
    assert store.get(FP) is None
    assert not path.exists()  # gone from the shard...
    quarantined = store.quarantine_root / f"{FP}.json"
    assert quarantined.is_file()  # ...but preserved for diagnosis
    assert store.quarantine_events == 1
    assert store.stats().quarantined == 1
    log = (store.quarantine_root / "log.jsonl").read_text()
    assert FP in log and "unparseable" in log


def test_checksum_mismatch_quarantined(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, {"ok": True})
    path = store.path_for(FP)
    entry = json.loads(path.read_text())
    entry["payload"]["ok"] = False  # bit-rot inside the payload
    path.write_text(json.dumps(entry))
    assert store.get(FP) is None
    assert (store.quarantine_root / f"{FP}.json").is_file()


def test_unknown_envelope_schema_quarantined(tmp_path):
    store = ResultStore(tmp_path)
    store.path_for(FP).parent.mkdir(parents=True)
    store.path_for(FP).write_text(json.dumps(
        {ENVELOPE_KEY: SCHEMA_VERSION + 1, "sha256": "x",
         "payload": {}}))
    assert store.get(FP) is None
    assert store.quarantine_events == 1


def test_put_writes_checksummed_envelope(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, {"x": 1})
    assert store.path_for(FP).read_bytes() == seal({"x": 1})
    entry = json.loads(store.path_for(FP).read_text())
    assert entry[ENVELOPE_KEY] == SCHEMA_VERSION
    assert entry["sha256"] == payload_checksum({"x": 1})
    assert entry["payload"] == {"x": 1}


def test_seal_unseal_roundtrip():
    payload = {"x": 1.5, "nested": {"k": [1, 2]}, "s": "é"}
    sealed = seal(payload)
    assert isinstance(sealed, bytes)
    assert unseal(sealed) == payload
    # the format is the one hand-built envelopes have always had
    assert json.loads(sealed) == {
        ENVELOPE_KEY: SCHEMA_VERSION,
        "sha256": payload_checksum(payload), "payload": payload}
    # a bare object is not a payload
    with pytest.raises(ValueError, match="unknown envelope schema None"):
        unseal(b'{"pre": "envelope"}')


@pytest.mark.parametrize("raw, reason", [
    (b'{"ok": tru', "unparseable JSON"),
    (b"\xff\xfe{}", "unparseable JSON"),
    (b"[1, 2, 3]", "not a JSON object"),
    (json.dumps({ENVELOPE_KEY: SCHEMA_VERSION + 1, "sha256": "x",
                 "payload": {}}).encode(),
     f"unknown envelope schema {SCHEMA_VERSION + 1}"),
    (json.dumps({ENVELOPE_KEY: SCHEMA_VERSION,
                 "sha256": "x"}).encode(), "envelope without payload"),
    (json.dumps({ENVELOPE_KEY: SCHEMA_VERSION, "sha256": "0" * 64,
                 "payload": {"probe": 1}}).encode(),
     "checksum mismatch"),
    (json.dumps({ENVELOPE_KEY: True, "sha256": payload_checksum({}),
                 "payload": {}}).encode(),
     "unknown envelope schema True"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "nested too deeply",
                 id="deeply-nested"),
    (json.dumps(json.loads(seal({"probe": 1}))).encode(),
     "not in sealed form"),
])
def test_one_codec_rejects_store_entries_and_fleet_results_alike(
        tmp_path, raw, reason):
    with pytest.raises(ValueError) as err:
        unseal(raw)
    assert str(err.value) == reason
    # as a store entry: quarantined with that reason, a miss
    store = ResultStore(tmp_path / "cache")
    store.path_for(FP).parent.mkdir(parents=True)
    store.path_for(FP).write_bytes(raw)
    assert store.get(FP) is None
    assert store.quarantine_events == 1
    log = (store.quarantine_root / "log.jsonl").read_text()
    assert json.loads(log)["reason"] == reason
    # as a fleet result: quarantined, the job is lost and re-queued
    backend = FleetBackend(tmp_path / "fleet", poll_s=0.02)
    handle = backend.submit(ProbeJob({"id": 1}))
    result = tmp_path / "fleet" / RESULT_DIR / f"{handle.fingerprint}.json"
    result.write_bytes(raw)
    with pytest.raises(WorkerLostError, match="corrupt in transit"):
        backend.result(handle)
    assert backend.corrupt_results == 1
    assert (tmp_path / "fleet" / "quarantine"
            / f"{handle.fingerprint}.json").read_bytes() == raw
    backend.shutdown(wait=False)


def test_non_dict_entry_quarantined(tmp_path):
    store = ResultStore(tmp_path)
    store.path_for(FP).parent.mkdir(parents=True)
    store.path_for(FP).write_text("[1, 2, 3]")
    assert store.get(FP) is None
    assert FP not in store
    assert store.quarantine_events == 1


def test_malformed_fingerprint_rejected(tmp_path):
    store = ResultStore(tmp_path)
    for bad in ("", "../escape", "a/b", "a.b", "ABCDEF01", "short",
                "quarantine", None, 42):
        with pytest.raises(ValueError) as err:
            store.path_for(bad)
        assert "lowercase hex digest" in str(err.value)  # says why


def test_stats_and_len_cover_nested_and_quarantined(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, {"a": 1})
    store.put(FP2, {"b": 2})
    # an entry nested deeper than one shard level still counts
    nested = tmp_path / "ef" / "deep" / ("ef" + "2" * 62 + ".json")
    nested.parent.mkdir(parents=True)
    nested.write_text("{}")
    assert len(store) == 3
    store.path_for(FP).write_text("broken")
    assert store.get(FP) is None  # quarantined
    assert len(store) == 2  # live entries only
    stats = store.stats()
    assert stats.entries == 2
    assert stats.bytes > 0
    assert stats.quarantined == 1
    assert "2 entries" in stats.format()


def test_verify_quarantines_bare_and_broken_entries_and_reports(
        tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, {"sealed": True})
    bare_path = store.path_for(FP2)
    bare_path.parent.mkdir(parents=True)
    bare_path.write_text('{"bare": true}')
    bad = "ee" + "3" * 62
    store.path_for(bad).parent.mkdir(parents=True)
    store.path_for(bad).write_text("not json")
    (tmp_path / "ab" / "README.txt.json").write_text("{}")

    report = store.verify()
    assert report == {"checked": 3, "ok": 1, "quarantined": 2,
                      "foreign": 1}
    assert not bare_path.exists()
    assert store.get(FP) == {"sealed": True}


def test_gc_reclaims_quarantine_and_debris(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, {"keep": True})
    store.path_for(FP2).parent.mkdir(parents=True)
    store.path_for(FP2).write_text("broken")
    assert store.get(FP2) is None  # -> quarantine
    stray = tmp_path / "ab" / ".x.json.123.tmp"
    stray.write_text("debris")
    # age the stray past the grace window: gc treats *young* tmp files
    # as possibly-live atomic writes and leaves them alone
    old = 1_000_000.0
    os.utime(stray, (old, old))

    out = store.gc()
    assert out["removed"] >= 3  # entry + quarantine log + stray tmp
    assert out["bytes"] > 0
    assert not store.quarantine_root.exists()
    assert not stray.exists()
    assert store.get(FP) == {"keep": True}  # valid entries untouched


def test_gc_spares_fresh_tmp_of_a_concurrent_writer(tmp_path):
    # Regression: gc used to unlink every *.tmp unconditionally, so a
    # concurrent sweep's in-flight write_json_atomic temp file could
    # vanish between write and os.replace, killing that sweep's put().
    store = ResultStore(tmp_path)
    live = tmp_path / "ab" / f".{FP}.json.777.tmp"
    live.parent.mkdir(parents=True)
    live.write_text('{"half": "written"}')  # mtime = now

    out = store.gc()
    assert live.exists()  # inside the grace window: untouched
    assert out["removed"] == 0
    # an explicit zero grace (operator knows no sweep is running)
    # reclaims it
    out = store.gc(tmp_grace_s=0.0)
    assert not live.exists()
    assert out["removed"] == 1


@pytest.mark.parametrize("grace", [float("nan"), -1.0])
def test_gc_rejects_a_grace_that_would_disarm_the_writer_guard(tmp_path,
                                                               grace):
    # ``now - mtime < nan`` is false, so a NaN (or negative) grace used
    # to reclaim a live writer's temp file written a moment earlier.
    store = ResultStore(tmp_path)
    live = tmp_path / "ab" / f".{FP}.json.777.tmp"
    live.parent.mkdir(parents=True)
    live.write_text('{"half": "written"}')
    with pytest.raises(ValueError, match="tmp_grace_s"):
        store.gc(tmp_grace_s=grace)
    assert live.exists()


def test_discard_missing_is_fine(tmp_path):
    ResultStore(tmp_path).discard(FP)


# ---------------------------------------------------------------------
def test_write_json_atomic_creates_parents(tmp_path):
    path = tmp_path / "deep" / "nested" / "out.json"
    write_json_atomic({"a": 1}, path)
    assert json.loads(path.read_text()) == {"a": 1}


def test_write_json_atomic_leaves_no_temp_debris(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic([1, 2], path)
    write_json_atomic([3, 4], path)  # overwrite in place
    assert json.loads(path.read_text()) == [3, 4]
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_json_atomic_failure_keeps_old_content(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic({"good": True}, path)
    with pytest.raises(TypeError):
        write_json_atomic({"bad": object()}, path)
    # old archive untouched, no temp files left behind
    assert json.loads(path.read_text()) == {"good": True}
    assert os.listdir(tmp_path) == ["out.json"]


# ---------------------------------------------------------------------
def _hammer_store(root, fp, value, barrier):
    """Child-process body for the concurrent-writer stress test."""
    from repro.exec import ResultStore
    barrier.wait()  # maximize overlap
    store = ResultStore(root)
    for _ in range(25):
        store.put(fp, {"value": value})


def test_concurrent_writers_same_fingerprint_never_corrupt(tmp_path):
    # Two sweeps sharing a cache (or a fleet's duplicate completion)
    # can race put() on one fingerprint.  Hammer the same entry from
    # many processes and assert every interleaving resolves to one
    # complete, valid envelope — last-write-wins, never a quarantined
    # half-entry.
    import multiprocessing

    ctx = multiprocessing.get_context()
    n = 4
    barrier = ctx.Barrier(n)
    procs = [ctx.Process(target=_hammer_store,
                         args=(str(tmp_path), FP, i, barrier))
             for i in range(n)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    store = ResultStore(tmp_path)
    payload = store.get(FP)
    assert payload in [{"value": i} for i in range(n)]
    assert store.quarantine_events == 0
    assert not store.quarantine_root.exists()
    # No temp debris: every loser's file was cleaned up by replace.
    assert list(tmp_path.rglob("*.tmp")) == []


def test_put_fsyncs_through_write_json_atomic(tmp_path, monkeypatch):
    # put() asks for durability; the fsync must actually reach the OS.
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd),
                                    real_fsync(fd))[1])
    ResultStore(tmp_path).put(FP, {"x": 1})
    assert synced
