"""Change-feed contract: codec, sequencing, durability, backend parity."""

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cdc import (
    ConstraintChanged,
    FeedError,
    FeedRecord,
    JsonlChangeFeed,
    MemoryChangeFeed,
    SqliteChangeFeed,
    TupleAdded,
    TupleRetracted,
    decode_event,
    encode_event,
    feed_status,
    open_change_feed,
)
from repro.cdc.feed import encode_envelope

EVENTS = [
    TupleAdded(entity="e1", row={"a": 1, "b": "x", "c": None}),
    TupleRetracted(entity="e1", row={"a": 1, "b": "x", "c": None}),
    ConstraintChanged(constraints="# currency constraints\n"),
]


class TestCodec:
    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_round_trip(self, event):
        encoded = encode_event(event)
        assert decode_event(encoded) == event
        # Canonical: re-encoding the decoded event is byte-stable.
        assert encode_event(decode_event(encoded)) == encoded

    def test_canonical_is_key_order_independent(self):
        a = encode_event(TupleAdded(entity="e", row={"x": 1, "y": 2}))
        b = encode_event(TupleAdded(entity="e", row={"y": 2, "x": 1}))
        assert a == b

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            json.dumps(["a", "list"]),
            json.dumps({"kind": "no_such_kind"}),
            json.dumps({"kind": "tuple_added", "row": {"a": 1}}),
            json.dumps({"kind": "tuple_added", "entity": "", "row": {}}),
            json.dumps({"kind": "tuple_added", "entity": "e", "row": "nope"}),
            json.dumps({"kind": "tuple_added", "entity": "e", "row": {}, "junk": 1}),
            json.dumps({"kind": "constraint_changed", "constraints": 42}),
        ],
    )
    def test_malformed_events_are_rejected(self, text):
        with pytest.raises(FeedError):
            decode_event(text)

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b"\xff not utf-8",
            b'{"data": {"kind": "constraint_changed", "constraints": ""}}',
            b'{"data": {"kind": "constraint_changed", "constraints": ""}, "seq": "1"}',
            b'{"data": {"kind": "constraint_changed", "constraints": ""}, "seq": true}',
            b'{"data": {"kind": "constraint_changed", "constraints": ""}, "seq": 0}',
            b'{"data": {"kind": "constraint_changed", "constraints": ""}, "seq": 1, "ts": "x"}',
            b'{"data": {"kind": "no_such_kind"}, "seq": 1}',
        ],
    )
    def test_malformed_envelopes_are_rejected_at_open(self, line, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(line + b"\n")
        with pytest.raises(FeedError, match="feed.jsonl:1: "):
            JsonlChangeFeed(path)

    def test_envelope_round_trips_through_jsonl(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as feed:
            for event in EVENTS:
                feed.append(event)
            records = list(feed.events())
        lines = path.read_text().splitlines()
        assert lines == [encode_envelope(record) for record in records]


def _open_backend(name, tmp_path):
    if name == "memory":
        return MemoryChangeFeed()
    if name == "jsonl":
        return JsonlChangeFeed(tmp_path / "feed.jsonl")
    return SqliteChangeFeed(tmp_path / "feed.db")


BACKENDS = ["memory", "jsonl", "sqlite"]


class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sequences_start_at_one_and_increase(self, backend, tmp_path):
        with _open_backend(backend, tmp_path) as feed:
            assert len(feed) == 0 and feed.last_sequence() == 0
            sequences = [feed.append(event) for event in EVENTS]
            assert sequences == [1, 2, 3]
            assert feed.last_sequence() == 3 and len(feed) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_events_after_position(self, backend, tmp_path):
        with _open_backend(backend, tmp_path) as feed:
            for event in EVENTS:
                feed.append(event)
            tail = list(feed.events(after=1))
            assert [record.seq for record in tail] == [2, 3]
            assert [record.event for record in tail] == EVENTS[1:]
            assert list(feed.events(after=3)) == []

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_durable_backends_persist_across_reopen(self, backend, tmp_path):
        with _open_backend(backend, tmp_path) as feed:
            for event in EVENTS:
                feed.append(event)
        with _open_backend(backend, tmp_path) as reopened:
            assert reopened.last_sequence() == 3
            assert [record.event for record in reopened.events()] == EVENTS
            # Appends continue the persisted sequence, never reuse it.
            assert reopened.append(EVENTS[0]) == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_events_limit(self, backend, tmp_path):
        with _open_backend(backend, tmp_path) as feed:
            for event in EVENTS:
                feed.append(event)
            assert [r.seq for r in feed.events(limit=2)] == [1, 2]
            assert [r.seq for r in feed.events(after=1, limit=5)] == [2, 3]
            assert list(feed.events(after=1, limit=0)) == []
            with pytest.raises(FeedError):
                feed.events(limit=-1)

    def test_jsonl_rejects_corrupt_sequence(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as feed:
            feed.append(EVENTS[0])
            good = path.read_text()
        path.write_text(good + good)  # duplicate seq 1
        with pytest.raises(FeedError):
            with JsonlChangeFeed(path) as feed:
                list(feed.events())


def _line(seq, event):
    return (encode_envelope(FeedRecord(seq, 0.0, event)) + "\n").encode()


class TestJsonlTail:
    def test_handles_see_each_others_appends(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with JsonlChangeFeed(path) as a, JsonlChangeFeed(path) as b:
            assert a.append(EVENTS[0]) == 1
            assert b.append(EVENTS[1]) == 2
            assert a.last_sequence() == 2
            assert feed_status(a, 1)["behind"] == 1
            # The next append continues the chain instead of reusing seq 2.
            assert a.append(EVENTS[2]) == 3
            assert [r.seq for r in b.events(after=2)] == [3]
        with JsonlChangeFeed(path) as reopened:
            assert [(r.seq, r.event) for r in reopened.events()] == list(
                enumerate(EVENTS, start=1)
            )

    def test_unterminated_last_line_is_not_a_record(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(_line(1, EVENTS[0]) + _line(2, EVENTS[1])[:-1])
        torn = len(_line(1, EVENTS[0]))
        with JsonlChangeFeed(path) as feed:
            assert feed.last_sequence() == 1
            assert [r.seq for r in feed.events()] == [1]
            with pytest.raises(FeedError, match=f"byte {torn}"):
                feed.append(EVENTS[2])
            # Nothing was glued onto the torn line.
            assert path.read_bytes() == _line(1, EVENTS[0]) + _line(2, EVENTS[1])[:-1]
            with path.open("ab") as handle:
                handle.write(b"\n")  # the newline lands: record 2 now exists
            assert [r.seq for r in feed.events()] == [1, 2]
            assert feed.append(EVENTS[2]) == 3
        with JsonlChangeFeed(path) as reopened:
            assert [r.event for r in reopened.events()] == EVENTS

    def test_reader_skips_an_append_caught_mid_line(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        line = _line(1, EVENTS[0])
        with JsonlChangeFeed(path) as reader:
            with path.open("ab") as writer:  # another process, mid-write
                writer.write(line[:10])
                writer.flush()
                assert list(reader.events()) == []
                assert reader.last_sequence() == 0
                writer.write(line[10:])
            assert [(r.seq, r.event) for r in reader.events()] == [(1, EVENTS[0])]

    def test_threads_share_a_handle_while_another_handle_tails(self, tmp_path):
        """Appenders racing on one handle never reuse a sequence number, and
        a second handle polling meanwhile sees a gapless prefix."""
        path = tmp_path / "feed.jsonl"
        writers, per_writer = 4, 50
        expected = list(range(1, writers * per_writer + 1))
        seen = []

        def append(feed, index):
            for _ in range(per_writer):
                seq = feed.append(TupleAdded(entity=f"e{index}", row={"a": index}))
                assert [r.seq for r in feed.events(after=seq - 1, limit=1)] == [seq]

        def tail(feed):
            deadline = time.monotonic() + 60
            while len(seen) < len(expected) and time.monotonic() < deadline:
                seen.extend(r.seq for r in feed.events(after=len(seen), limit=7))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JsonlChangeFeed(path) as shared, JsonlChangeFeed(path) as reader:
                with ThreadPoolExecutor(writers + 1) as pool:
                    futures = [pool.submit(append, shared, i) for i in range(writers)]
                    futures.append(pool.submit(tail, reader))
                    for future in futures:
                        future.result(timeout=60)
                assert [r.seq for r in shared.events()] == expected
                assert seen == expected
        finally:
            sys.setswitchinterval(interval)

    def test_file_rewritten_under_the_index_is_rejected(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_bytes(_line(1, EVENTS[0]) + _line(2, EVENTS[1]))
        with JsonlChangeFeed(path) as feed:
            path.write_bytes(_line(7, EVENTS[0]) + _line(8, EVENTS[1]))  # same size
            with pytest.raises(FeedError, match="expected sequence 1, found 7"):
                list(feed.events())
            path.write_bytes(_line(1, EVENTS[0]))
            with pytest.raises(FeedError, match="shrank"):
                list(feed.events())


class TestOpenChangeFeed:
    def test_dispatch(self, tmp_path):
        assert isinstance(open_change_feed(":memory:"), MemoryChangeFeed)
        jsonl = open_change_feed(tmp_path / "feed.jsonl")
        assert isinstance(jsonl, JsonlChangeFeed)
        jsonl.close()
        sqlite = open_change_feed(tmp_path / "feed.db")
        assert isinstance(sqlite, SqliteChangeFeed)
        sqlite.close()

    def test_feed_passthrough(self):
        feed = MemoryChangeFeed()
        assert open_change_feed(feed) is feed

    def test_jsonl_and_sqlite_store_identical_streams(self, tmp_path):
        with JsonlChangeFeed(tmp_path / "a.jsonl") as a, SqliteChangeFeed(
            tmp_path / "b.db"
        ) as b:
            for event in EVENTS:
                assert a.append(event) == b.append(event)
            assert [(r.seq, r.event) for r in a.events()] == [
                (r.seq, r.event) for r in b.events()
            ]
