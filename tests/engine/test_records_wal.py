"""Version chains, value copying, and the write-ahead log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.records import Model, RecordKey, Version, VersionChain, copy_value
from repro.engine.wal import WriteAheadLog
from repro.errors import WalError
from repro.models.xml.node import element, text


KEY = RecordKey(Model.DOCUMENT, "orders", "o1")


class TestVersionChain:
    def test_visible_at_picks_latest_leq(self):
        chain = VersionChain()
        chain.append(Version(1, "a"))
        chain.append(Version(5, "b"))
        assert chain.visible_at(0) is None
        assert chain.visible_at(1).value == "a"
        assert chain.visible_at(4).value == "a"
        assert chain.visible_at(5).value == "b"
        assert chain.visible_at(99).value == "b"

    def test_append_requires_increasing_ts(self):
        chain = VersionChain()
        chain.append(Version(2, "a"))
        with pytest.raises(AssertionError):
            chain.append(Version(2, "b"))

    def test_tombstone_visibility(self):
        chain = VersionChain()
        chain.append(Version(1, "a"))
        chain.append(Version(2, None))
        assert chain.visible_at(2).value is None

    def test_prune_keeps_visible_version(self):
        chain = VersionChain()
        for ts in (1, 2, 3, 4):
            chain.append(Version(ts, f"v{ts}"))
        removed = chain.prune_before(3)
        assert removed == 2
        assert chain.visible_at(3).value == "v3"
        assert chain.visible_at(9).value == "v4"

    def test_is_dead_only_tombstone(self):
        chain = VersionChain()
        chain.append(Version(1, None))
        assert chain.is_dead()
        chain.append(Version(2, "x"))
        assert not chain.is_dead()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20, unique=True))
    def test_visibility_matches_linear_scan(self, stamps):
        stamps = sorted(stamps)
        chain = VersionChain()
        for ts in stamps:
            chain.append(Version(ts, ts))
        for probe in range(52):
            expected = max((t for t in stamps if t <= probe), default=None)
            got = chain.visible_at(probe)
            assert (got.value if got else None) == expected


class TestCopyValue:
    def test_json_deep_copy(self):
        original = {"a": [1, {"b": 2}]}
        clone = copy_value(original)
        clone["a"][1]["b"] = 9
        assert original["a"][1]["b"] == 2

    def test_xml_deep_copy(self):
        tree = element("a", {"k": "1"}, text("x"), element("b"))
        clone = copy_value(tree)
        clone.children[1].set("mutated", "yes")
        assert tree.children[1].get("mutated") is None
        assert clone == tree or clone.get("k") == "1"


class TestWal:
    def test_records_require_type(self):
        with pytest.raises(WalError):
            WriteAheadLog().append({"no_type": 1})

    def test_crash_loses_unsynced_tail(self):
        wal = WriteAheadLog(sync_every_append=False)
        wal.log_begin(1)
        wal.sync()
        wal.log_write(1, KEY, {"x": 1})
        lost = wal.crash()
        assert lost == 1
        assert [r["type"] for r in wal.records()] == ["begin"]

    def test_crash_with_autosync_loses_nothing(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_write(1, KEY, {})
        assert wal.crash() == 0

    def test_replay_skips_uncommitted(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_write(1, KEY, {"v": 1})
        wal.log_begin(2)
        wal.log_write(2, KEY, {"v": 2})
        wal.log_commit(1, 10)
        # txn 2 never commits
        replayed = list(wal.replay())
        assert replayed == [(10, KEY, {"v": 1})]

    def test_replay_orders_by_commit_ts(self):
        wal = WriteAheadLog()
        key2 = RecordKey(Model.DOCUMENT, "orders", "o2")
        wal.log_begin(1)
        wal.log_begin(2)
        wal.log_write(2, key2, "late")
        wal.log_write(1, KEY, "early")
        wal.log_commit(2, 20)
        wal.log_commit(1, 10)
        replayed = list(wal.replay())
        assert [ts for ts, _, _ in replayed] == [10, 20]

    def test_replay_copies_values(self):
        wal = WriteAheadLog()
        doc = {"v": [1]}
        wal.log_begin(1)
        wal.log_write(1, KEY, doc)
        wal.log_commit(1, 1)
        doc["v"].append(2)  # mutate after logging
        _, _, replayed_value = next(iter(wal.replay()))
        assert replayed_value == {"v": [1]}

    def test_committed_transactions(self):
        wal = WriteAheadLog()
        wal.log_commit(3, 7)
        assert wal.committed_transactions() == {3: 7}

    def test_truncate_before_checkpoint(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_write(1, KEY, "a")
        wal.log_commit(1, 1)
        wal.log_checkpoint(1)
        wal.log_begin(2)
        dropped = wal.truncate_before_checkpoint()
        assert dropped == 3
        assert [r["type"] for r in wal.records()] == ["checkpoint", "begin"]

    def test_truncate_without_checkpoint_is_noop(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        assert wal.truncate_before_checkpoint() == 0


class TestPreparedRecords:
    """2PC participant records: prepare / decision and in-doubt replay."""

    def _prepared_wal(self) -> WriteAheadLog:
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_write(1, KEY, {"status": "in-doubt"})
        wal.log_prepare(1, global_id=7)
        return wal

    def test_in_doubt_writes_are_held_back(self):
        wal = self._prepared_wal()
        assert list(wal.replay()) == []  # neither redone nor dropped
        assert wal.prepared_in_doubt() == {1: 7}

    def test_commit_decision_redoes_the_writes(self):
        wal = self._prepared_wal()
        wal.log_decision(1, "commit", ts=3, global_id=7)
        assert wal.prepared_in_doubt() == {}
        assert wal.committed_transactions() == {1: 3}
        [(ts, key, value)] = list(wal.replay())
        assert (ts, key, value) == (3, KEY, {"status": "in-doubt"})

    def test_abort_decision_drops_the_writes(self):
        wal = self._prepared_wal()
        wal.log_decision(1, "abort", global_id=7)
        assert wal.prepared_in_doubt() == {}
        assert list(wal.replay()) == []

    def test_prepare_is_forced_durable_without_autosync(self):
        wal = WriteAheadLog(sync_every_append=False)
        wal.log_begin(1)
        wal.log_write(1, KEY, "a")
        wal.log_prepare(1, global_id=9)
        wal.log_begin(2)  # unsynced tail after the prepare
        assert wal.crash() == 1  # only the second begin is lost
        assert wal.prepared_in_doubt() == {1: 9}

    def test_decision_requires_commit_ts(self):
        wal = self._prepared_wal()
        with pytest.raises(WalError):
            wal.log_decision(1, "commit")
        with pytest.raises(WalError):
            wal.log_decision(1, "maybe")

    def test_max_commit_ts_spans_both_commit_kinds(self):
        wal = WriteAheadLog()
        wal.log_commit(1, 4)
        wal.log_decision(2, "commit", ts=9, global_id=1)
        assert wal.max_commit_ts() == 9
