"""SubmissionJournal: durability, replay worklists, write-rename rotation."""

import builtins
import json
import os

import pytest

from repro.errors import ReproError
from repro.serve import SubmissionJournal

CELLS = [{"experiment": "t", "runner": "tests.exec.workers:echo",
          "params": {}, "seed": 0}]


def test_submit_then_done_leaves_nothing_pending(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with SubmissionJournal(path) as j:
        j.submit("sweep-000001", "demo", CELLS)
        assert [r["sweep_id"] for r in j.pending()] == ["sweep-000001"]
        j.done("sweep-000001", ok=1, error=0)
        assert j.pending() == []
        assert j.stats()["records"] == 2


def test_pending_survives_reopen(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with SubmissionJournal(path) as j:
        j.submit("sweep-000001", "done-one", CELLS)
        j.done("sweep-000001", ok=1, error=0)
        j.submit("sweep-000002", "interrupted", CELLS)
    with SubmissionJournal(path) as j:        # the restart
        (rec,) = j.pending()
        assert rec["sweep_id"] == "sweep-000002"
        assert rec["name"] == "interrupted"
        assert rec["cells"] == CELLS          # enough to rebuild the sweep


def test_torn_trailing_line_is_dropped_not_fatal(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with SubmissionJournal(path) as j:
        j.submit("sweep-000001", "demo", CELLS)
    with open(path, "a") as fh:
        fh.write('{"type": "done", "sweep_id": "sweep-0')   # kill mid-append
    with SubmissionJournal(path) as j:
        assert [r["sweep_id"] for r in j.pending()] == ["sweep-000001"]
        assert j.stats()["dropped"] == 1


def test_rotation_compacts_to_pending_only(tmp_path):
    path = str(tmp_path / "j.jsonl")
    j = SubmissionJournal(path, rotate_after=10**9)   # no auto-rotate
    for i in range(5):
        j.submit(f"sweep-{i:06d}", "dead", CELLS)
        j.done(f"sweep-{i:06d}", ok=1, error=0)
    j.submit("sweep-000099", "live", CELLS)
    dropped = j.rotate()
    assert dropped == 10                              # 5 dead pairs
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert [r["sweep_id"] for r in lines] == ["sweep-000099"]
    # The journal stays usable for appends after rotation.
    j.done("sweep-000099", ok=1, error=0)
    assert j.pending() == []
    assert j.stats()["rotations"] == 1
    j.close()


def test_auto_rotation_fires_on_completed_threshold(tmp_path):
    j = SubmissionJournal(str(tmp_path / "j.jsonl"), rotate_after=2)
    for i in range(4):
        j.submit(f"sweep-{i:06d}", "x", CELLS)
        j.done(f"sweep-{i:06d}", ok=1, error=0)
    assert j.rotations >= 1
    assert j.stats()["records"] < 8       # dead pairs were compacted away
    j.close()


def test_next_sweep_number_never_repeats_across_restarts(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with SubmissionJournal(path) as j:
        assert j.next_sweep_number() == 1
        j.submit("sweep-000007", "x", CELLS)
        j.done("sweep-000007", ok=1, error=0)
    with SubmissionJournal(path) as j:
        assert j.next_sweep_number() == 8


def test_records_require_type_and_sweep_id(tmp_path):
    j = SubmissionJournal(str(tmp_path / "j.jsonl"))
    with pytest.raises(ReproError):
        j.append({"type": "submit"})
    j.close()


def test_rotation_is_write_rename_not_truncate(tmp_path, monkeypatch):
    """A crash mid-rotation must leave a complete journal behind: the
    compacted file is fully written and fsync'd *before* the replace."""
    path = str(tmp_path / "j.jsonl")
    j = SubmissionJournal(path, rotate_after=10**9)
    j.submit("sweep-000001", "live", CELLS)
    replaced = {}
    real_replace = os.replace

    def spying_replace(src, dst):
        # At replace time the temp file must already hold the full
        # compacted journal.
        with open(src) as fh:
            replaced["content"] = fh.read()
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spying_replace)
    j.rotate()
    assert json.loads(replaced["content"])["sweep_id"] == "sweep-000001"
    j.close()


def test_sweep_numbers_survive_rotation_and_restart(tmp_path):
    """Rotation drops the dead pairs that held the high-water mark; the
    numbering must not fall back with them, in this life or the next."""
    path = str(tmp_path / "j.jsonl")
    issued = []
    with SubmissionJournal(path, rotate_after=2) as j:
        for _ in range(3):
            issued.append(j.next_sweep_number())
            sid = f"sweep-{issued[-1]:06d}"
            j.submit(sid, "x", CELLS)
            j.done(sid, ok=1, error=0)
        assert j.rotations == 1
    with SubmissionJournal(path, rotate_after=2) as j:    # the restart
        issued.append(j.next_sweep_number())
        j.rotate()                       # nothing pending: only the mark
        assert j.pending() == []
        issued.append(j.next_sweep_number())
    assert issued == [1, 2, 3, 4, 4]


def test_a_journal_written_before_the_mark_record_still_opens(tmp_path):
    """The parent commit's format: submit and done lines only, with a
    torn tail and a line of garbage for good measure."""
    path = str(tmp_path / "j.jsonl")
    submit = {"type": "submit", "name": "old", "cells": CELLS}
    with open(path, "w") as fh:
        for rec in ({**submit, "sweep_id": "sweep-000041"},
                    {"type": "done", "sweep_id": "sweep-000041",
                     "ok": 1, "error": 0},
                    {**submit, "sweep_id": "sweep-000042"}):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.write("not json at all\n")
        fh.write('{"type": "done", "sweep_id": "sweep-0000')
    with SubmissionJournal(path) as j:
        assert [r["sweep_id"] for r in j.pending()] == ["sweep-000042"]
        assert j.next_sweep_number() == 43
        assert j.stats() == {"records": 3, "pending": 1, "dropped": 2,
                             "rotations": 0}


def test_an_append_after_a_torn_tail_is_not_glued_to_it(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with open(path, "w") as fh:
        fh.write('{"type": "submit", "sweep_id": "sweep-0000')
    with SubmissionJournal(path) as j:
        j.submit("sweep-000001", "after-the-tear", CELLS)
    with SubmissionJournal(path) as j:
        assert [r["name"] for r in j.pending()] == ["after-the-tear"]
        assert j.stats()["dropped"] == 1


def test_the_file_is_read_once_per_open_and_fsynced_once_per_append(
        tmp_path, monkeypatch):
    """Box-immune budget: every question the journal answers comes from
    what it folded at open plus what it wrote since — no call re-reads
    the file — and durability is one fsync per record, never batched."""
    path = str(tmp_path / "j.jsonl")
    with SubmissionJournal(path) as j:                  # a previous life
        j.submit("sweep-000001", "interrupted", CELLS)
    reads, syncs = [], []
    real_open, real_fsync = builtins.open, os.fsync

    def spying_open(file, mode="r", *args, **kwargs):
        if file == path and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    def spying_fsync(fd):
        syncs.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(builtins, "open", spying_open)
    monkeypatch.setattr(os, "fsync", spying_fsync)
    with SubmissionJournal(path, rotate_after=3) as j:
        for n in range(2, 6):
            assert j.next_sweep_number() == n
            j.submit(f"sweep-{n:06d}", "x", CELLS)
            assert len(j.pending()) == 2
            j.done(f"sweep-{n:06d}", ok=1, error=0)
            assert j.stats()["pending"] == 1
        assert j.rotations == 1
        appended = 8
        assert len(syncs) == appended + j.rotations
        j.rotate()
    assert reads == ["r"]
