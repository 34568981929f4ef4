import pytest

from voxmix.files import atomic_write


def _write_and_fail(path):
    with pytest.raises(RuntimeError, match="partway"):
        with atomic_write(path) as fh:
            fh.write("half of a new file")
            fh.flush()
            raise RuntimeError("killed partway")


def test_write_that_raises_partway_leaves_the_previous_file(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("previous\n")
    _write_and_fail(path)
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


def test_write_that_raises_partway_leaves_no_file(tmp_path):
    _write_and_fail(tmp_path / "log.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("previous\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
        assert path.read_text() == "previous\n"  # not visible before the block ends
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]


def test_write_that_raises_partway_keeps_what_it_wrote_as_the_partial_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("previous\n")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path, partial=tmp_path / "m.jsonl.aborted") as fh:
            fh.write("step 1\n")
            raise KeyboardInterrupt
    assert path.read_text() == "previous\n"
    assert (tmp_path / "m.jsonl.aborted").read_text() == "step 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "m.jsonl.aborted"]


def test_completed_write_removes_the_partial_file_of_an_earlier_failure(tmp_path):
    path, partial = tmp_path / "m.jsonl", tmp_path / "m.jsonl.aborted"
    partial.write_text("step 1\n")
    with atomic_write(path, partial=partial) as fh:
        fh.write("step 1\nstep 2\n")
    assert path.read_text() == "step 1\nstep 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]


def test_write_replaces_a_temporary_file_left_by_a_killed_writer(tmp_path):
    (tmp_path / ".report.csv.tmp").write_text("stale half of a file")
    with atomic_write(tmp_path / "report.csv") as fh:
        fh.write("new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]
    assert (tmp_path / "report.csv").read_text() == "new\n"
