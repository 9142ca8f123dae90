"""Unit tests for the receiving queue and its scan."""

from repro.protocols.base import DeliveryVerdict
from repro.protocols.queue import ReceivingQueue, request_matches
from repro.simnet.network import Frame
from repro.simnet.primitives import ANY_SOURCE, ANY_TAG


def frame(src=0, tag=0, idx=1, verdict_tag=None):
    return Frame("app", src, 1, f"p{src}-{idx}", 64,
                 {"tag": tag, "send_index": idx})


def classify_all(verdict):
    return lambda meta, src: verdict


class TestMatching:
    def test_wildcards(self):
        f = frame(src=2, tag=7)
        assert request_matches(f, ANY_SOURCE, ANY_TAG)
        assert request_matches(f, 2, 7)
        assert not request_matches(f, 3, ANY_TAG)
        assert not request_matches(f, ANY_SOURCE, 8)


class TestScan:
    def test_delivers_first_match_in_arrival_order(self):
        q = ReceivingQueue()
        q.enqueue(frame(src=0, idx=1))
        q.enqueue(frame(src=0, idx=2))
        res = q.scan(ANY_SOURCE, ANY_TAG, classify_all(DeliveryVerdict.DELIVER))
        assert res.frame.meta["send_index"] == 1
        assert len(q) == 1

    def test_non_matching_frames_stay(self):
        q = ReceivingQueue()
        q.enqueue(frame(src=0, tag=1, idx=1))
        q.enqueue(frame(src=2, tag=5, idx=1))
        res = q.scan(2, 5, classify_all(DeliveryVerdict.DELIVER))
        assert res.frame.src == 2
        assert len(q) == 1 and q.frames()[0].src == 0

    def test_deferred_frames_are_skipped_not_lost(self):
        q = ReceivingQueue()
        q.enqueue(frame(src=0, idx=1))

        def classify(meta, src):
            return DeliveryVerdict.DEFER

        res = q.scan(ANY_SOURCE, ANY_TAG, classify)
        assert res.frame is None
        assert len(q) == 1

    def test_duplicates_removed_even_if_not_matching_request(self):
        q = ReceivingQueue()
        q.enqueue(frame(src=0, tag=9, idx=1))  # dup, tag mismatch
        q.enqueue(frame(src=2, tag=5, idx=1))

        def classify(meta, src):
            return DeliveryVerdict.DUPLICATE if src == 0 else DeliveryVerdict.DELIVER

        res = q.scan(2, 5, classify)
        assert res.frame.src == 2
        assert [f.src for f in res.duplicates] == [0]
        assert len(q) == 0

    def test_defer_then_deliver_order_preserved(self):
        q = ReceivingQueue()
        q.enqueue(frame(src=0, idx=1))
        q.enqueue(frame(src=2, idx=1))

        def classify(meta, src):
            # first frame's deps unsatisfied; second deliverable
            return DeliveryVerdict.DEFER if src == 0 else DeliveryVerdict.DELIVER

        res = q.scan(ANY_SOURCE, ANY_TAG, classify)
        assert res.frame.src == 2
        assert [f.src for f in q.frames()] == [0]

    def test_scan_stops_classifying_after_hit(self):
        q = ReceivingQueue()
        q.enqueue(frame(src=0, idx=1))
        q.enqueue(frame(src=2, idx=1))
        calls = []

        def classify(meta, src):
            calls.append(src)
            return DeliveryVerdict.DELIVER

        q.scan(ANY_SOURCE, ANY_TAG, classify)
        assert calls == [0]  # the second frame was never classified

    def test_empty_scan(self):
        q = ReceivingQueue()
        res = q.scan(ANY_SOURCE, ANY_TAG, classify_all(DeliveryVerdict.DELIVER))
        assert res.frame is None and res.duplicates == []
