"""Blob backends: atomicity, namespacing, absence semantics."""

import os
import threading

import pytest

from repro.store import DirectoryBackend, MemoryBackend


class TestMemoryBackend:
    def test_read_write_roundtrip(self):
        backend = MemoryBackend()
        assert backend.read("a/b.json") is None
        backend.write("a/b.json", b"payload")
        assert backend.read("a/b.json") == b"payload"
        assert list(backend.names()) == ["a/b.json"]

    def test_overwrite_replaces(self):
        backend = MemoryBackend()
        backend.write("k", b"one")
        backend.write("k", b"two")
        assert backend.read("k") == b"two"
        assert len(backend) == 1


class TestDirectoryBackend:
    def test_roundtrip_and_subdirectories(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "store")
        backend.write("synthesis/abc.json", b"{}")
        backend.write("validation/def.json", b"[]")
        assert backend.read("synthesis/abc.json") == b"{}"
        assert sorted(backend.names()) == [
            "synthesis/abc.json",
            "validation/def.json",
        ]

    def test_missing_blob_reads_none(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        assert backend.read("synthesis/nope.json") is None

    def test_unsafe_names_rejected(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        for name in ("../evil", "a//b", ".", "a/./b"):
            with pytest.raises(ValueError):
                backend.write(name, b"x")

    def test_write_is_atomic_no_tmp_residue(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.write("synthesis/k.json", b"x" * 4096)
        files = [p.name for p in (tmp_path / "synthesis").iterdir()]
        assert files == ["k.json"]

    def test_tmp_files_invisible_to_names(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.write("synthesis/k.json", b"x")
        # A crashed writer's leftover must not surface as a blob.
        (tmp_path / "synthesis" / "k.tmp.12345").write_bytes(b"partial")
        assert list(backend.names()) == ["synthesis/k.json"]

    def test_unwritable_target_degrades_silently(self, tmp_path):
        """The write contract: an unwritable store never fails the run
        that computed the result (here the kind 'directory' is a file,
        so mkdir raises OSError)."""
        backend = DirectoryBackend(tmp_path)
        (tmp_path / "synthesis").write_bytes(b"not a directory")
        backend.write("synthesis/k.json", b"x")  # must not raise
        assert backend.read("synthesis/k.json") is None

    def test_two_backends_share_a_directory(self, tmp_path):
        a = DirectoryBackend(tmp_path)
        b = DirectoryBackend(tmp_path)
        a.write("synthesis/k.json", b"from-a")
        assert b.read("synthesis/k.json") == b"from-a"


class TestDirectoryInterleaving:
    """Deterministic interleavings of concurrent writers on one directory."""

    def test_lease_is_not_readable_before_its_bytes(
        self, tmp_path, monkeypatch
    ):
        """A peer that reads a lease while its writer is mid-write must
        see no blob, never an empty one: the read here runs when the
        writer opens its file, before any byte is written."""
        backend = DirectoryBackend(tmp_path)
        seen = []
        real_fdopen = os.fdopen

        def fdopen(fd, *args, **kwargs):
            seen.append(backend.read("inflight/k"))
            return real_fdopen(fd, *args, **kwargs)

        monkeypatch.setattr(os, "fdopen", fdopen)
        assert backend.write_if_absent("inflight/k", b"lease") is True
        monkeypatch.undo()
        assert seen == [None]
        assert backend.read("inflight/k") == b"lease"
        assert list(backend.names()) == ["inflight/k"]

    def test_threads_of_one_process_stage_distinct_temp_files(
        self, tmp_path, monkeypatch
    ):
        backend = DirectoryBackend(tmp_path)
        staged = []
        real_replace = os.replace

        def replace(src, dst, *args, **kwargs):
            staged.append(os.fspath(src))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        for payload in (b"one", b"two"):
            writer = threading.Thread(
                target=backend.write, args=("synthesis/k.json", payload)
            )
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
        monkeypatch.undo()
        assert len(staged) == 2
        assert staged[0] != staged[1]
        assert backend.read("synthesis/k.json") == b"two"
        assert list(backend.names()) == ["synthesis/k.json"]
