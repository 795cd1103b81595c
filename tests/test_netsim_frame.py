"""Tests for the Frame dataclass."""

import pytest

from repro.netsim.frame import DEFAULT_HEAD_BYTES, Frame


class TestFrame:
    def test_basic_construction(self):
        f = Frame(wire_len=1514, head=b"\x01" * 256)
        assert f.wire_len == 1514
        assert len(f.head) == 256

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Frame(wire_len=0, head=b"")

    def test_rejects_head_longer_than_wire(self):
        with pytest.raises(ValueError):
            Frame(wire_len=10, head=b"\x00" * 20)

    def test_clone_is_new_frame_same_content(self):
        original = Frame(wire_len=100, head=b"\x07" * 80, flow_id=5, site="STAR")
        clone = original.clone()
        assert clone is not original
        assert clone.head == original.head
        assert clone.flow_id == 5
        assert clone.site == "STAR"


class TestCapturedBytes:
    def test_truncation_below_head(self):
        f = Frame(wire_len=1514, head=bytes(range(200)))
        assert f.captured_bytes(64) == bytes(range(64))

    def test_exact_head(self):
        f = Frame(wire_len=1514, head=bytes(range(200)))
        assert f.captured_bytes(200) == bytes(range(200))

    def test_padding_beyond_head(self):
        f = Frame(wire_len=1514, head=bytes(range(100)))
        captured = f.captured_bytes(150)
        assert len(captured) == 150
        assert captured[:100] == bytes(range(100))
        assert captured[100:] == b"\x00" * 50

    def test_never_exceeds_wire_len(self):
        f = Frame(wire_len=80, head=bytes(range(80)))
        assert len(f.captured_bytes(500)) == 80

    def test_default_head_covers_deepest_stack_plus_truncation(self):
        # Paper: deepest stacks are 12 headers; captures truncate at 200 B.
        assert DEFAULT_HEAD_BYTES >= 200
