"""The on-disk checkpoint format: versioning, validation, fingerprint
binding and the Checkpointer save policy."""

from __future__ import annotations

import json

import pytest

from repro import ChessChecker, SearchLimits
from repro.programs import EXPECTED_BUGS, resolve_builtin, toy
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointMismatch,
    Checkpointer,
    search_fingerprint,
)

from ._parity import BOUNDS


def test_bounds_cover_every_buggy_builtin():
    # If this fails, a buggy built-in was added: give it a bound in
    # tests/service/_parity.py so resume parity covers it.
    assert set(BOUNDS) == set(EXPECTED_BUGS)


def _interrupted_checkpoint(tmp_path, spec="wsq:pop-race", bound=2):
    path = tmp_path / "run.ckpt.json"
    ChessChecker(resolve_builtin(spec)).check(
        max_bound=bound,
        limits=SearchLimits(max_transitions=300),
        checkpoint=path,
        checkpoint_stride=8,
    )
    assert path.exists()
    return path


class TestFormat:
    def test_interrupted_run_writes_versioned_checkpoint(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        assert data["format"] == CHECKPOINT_FORMAT
        assert data["version"] == CHECKPOINT_VERSION
        checkpoint = Checkpoint.load(path)
        assert checkpoint.bound >= 0
        assert checkpoint.sequence >= 1
        # The frontier it would resume from is non-empty mid-search.
        assert checkpoint.work_items or checkpoint.next_items

    def test_round_trip_preserves_everything(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        checkpoint = Checkpoint.load(path)
        copy = tmp_path / "copy.ckpt.json"
        checkpoint.save(copy)
        assert json.loads(copy.read_text()) == json.loads(path.read_text())

    def test_not_json_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "junk.ckpt.json"
        path.write_text("not json {")
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    def test_missing_keys_are_a_checkpoint_error(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        del data["work_items"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    def test_nonzero_analysis_pruned_is_a_checkpoint_error(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        assert data["context"]["analysis_pruned"] == 0
        data["context"]["analysis_pruned"] = 3
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="analysis_pruned"):
            Checkpoint.load(path)

    def test_unknown_version_is_a_checkpoint_error(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)


class TestValidation:
    def test_checkpoint_binds_to_its_program(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        checkpoint = Checkpoint.load(path)
        checkpoint.validate(search_fingerprint(resolve_builtin("wsq:pop-race")))
        with pytest.raises(CheckpointMismatch):
            checkpoint.validate(search_fingerprint(toy.racy_counter()))

    def test_checkpoint_binds_to_strategy_options(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        checkpoint = Checkpoint.load(path)
        program = resolve_builtin("wsq:pop-race")
        with pytest.raises(CheckpointMismatch):
            checkpoint.validate(search_fingerprint(program, state_caching=True))

    def test_checkpoint_of_the_analysis_reduction_is_refused(self, tmp_path):
        # Fingerprints still carry the constant "analysis": false; one
        # written with the since-removed reduction on named another
        # search and must not resume.
        path = _interrupted_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        assert data["fingerprint"]["analysis"] is False
        data["fingerprint"]["analysis"] = True
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointMismatch):
            ChessChecker(resolve_builtin("wsq:pop-race")).check(
                max_bound=2, checkpoint=path
            )

    def test_v1_checkpoint_is_refused_with_a_rerun_hint(self, tmp_path):
        # v1 files hold hash-seed-dependent state fingerprints: resuming
        # one would silently treat every visited state as new.
        path = _interrupted_checkpoint(tmp_path)
        data = json.loads(path.read_text())
        data["version"] = 1
        data["fingerprint"]["hash_probe"] = 12345
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError) as excinfo:
            Checkpoint.load(path)
        message = str(excinfo.value)
        assert "v1" in message and "re-run" in message
        assert "cannot be resumed" in message

    def test_resuming_someone_elses_checkpoint_fails_loudly(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        with pytest.raises(CheckpointMismatch):
            ChessChecker(toy.racy_counter()).check(max_bound=0, checkpoint=path)


class TestCheckpointer:
    def test_note_item_fires_on_the_stride(self, tmp_path):
        pointer = Checkpointer(tmp_path / "x.ckpt.json", {}, stride=3)
        assert [pointer.note_item() for _ in range(3)] == [False, False, True]

    def test_clear_removes_the_file_and_tolerates_absence(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        pointer = Checkpointer(path, {})
        pointer.clear()
        assert not path.exists()
        pointer.clear()  # idempotent

    def test_resume_state_is_none_without_a_file(self, tmp_path):
        pointer = Checkpointer(tmp_path / "none.ckpt.json", {})
        assert pointer.resume_state() is None

    def test_sequence_continues_across_resumes(self, tmp_path):
        path = _interrupted_checkpoint(tmp_path)
        first = Checkpoint.load(path).sequence
        ChessChecker(resolve_builtin("wsq:pop-race")).check(
            max_bound=2,
            limits=SearchLimits(max_transitions=600),
            checkpoint=path,
            checkpoint_stride=8,
        )
        assert Checkpoint.load(path).sequence > first
