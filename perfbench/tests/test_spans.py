"""Span recording and self-time arithmetic."""

import json

import pytest

from spans import NullRecorder, Recorder, covered, self_time


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5)]) == 4
    assert covered(0, 10, [(1, 2), (4, 6)]) == 3
    assert covered(0, 10, [(-5, 1), (9, 20)]) == 2
    assert covered(0, 10, [(12, 15)]) == 0


def test_self_time_is_duration_minus_child_cover():
    assert self_time(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert self_time(0, 1, [(0, 1)]) == 0


def test_recorder_nests_and_tags_ops(tmp_path):
    rec = Recorder()
    rec.op = 4
    with rec.span("op"):
        rec.call("child", sum, [1, 2])
        with rec.span("child2", rows=3) as s:
            s["extra"] = 1
    spans = {s["name"]: s for s in rec.with_self_times()}
    assert spans["child"]["parent"] == spans["child2"]["parent"] == spans["op"]["id"]
    assert spans["op"]["parent"] is None
    assert all(s["op"] == 4 for s in spans.values())
    assert spans["child2"]["rows"] == 3 and spans["child2"]["extra"] == 1
    kids = spans["child"]["dur"] + spans["child2"]["dur"]
    assert spans["op"]["self"] == pytest.approx(spans["op"]["dur"] - kids, abs=1e-12)
    rec.dump(tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == ["op", "child", "child2"]


def test_failed_span_records_error_and_reraises():
    rec = Recorder()
    with pytest.raises(ZeroDivisionError):
        rec.call("boom", lambda: 1 / 0)
    assert rec.spans[0]["error"] == "ZeroDivisionError"
    assert rec.spans[0]["end"] is not None


def test_null_recorder_calls_through():
    rec = NullRecorder()
    assert rec.call("x", max, 1, 2) == 2
    with rec.span("y") as s:
        s["n"] = 1
