"""TraceCache: content addressing, mmap sharing, corruption recovery."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.run import RunSpec, TraceCache

SPEC = RunSpec(workload="jacobi", workload_params={"n": 64}, n_gpus=2,
               iterations=1)


def _entry_bytes(payload):
    """Worker: populate a fresh cache at ``root``, return the entry's
    bytes as a sorted (filename, contents) list."""
    root, spec = payload
    cache = TraceCache(root)
    cache.get_or_generate(spec)
    entry = cache.path_for(spec.trace_key())
    return [(p.name, p.read_bytes()) for p in sorted(entry.iterdir())]


class TestMemoryLayer:
    def test_second_lookup_hits(self):
        cache = TraceCache()
        a = cache.get_or_generate(SPEC)
        b = cache.get_or_generate(SPEC)
        assert a is b
        assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0}

    def test_clear_memory_forces_regeneration(self):
        cache = TraceCache()
        cache.get_or_generate(SPEC)
        cache.clear_memory()
        cache.get_or_generate(SPEC)
        assert cache.stats()["misses"] == 2


class TestDiskLayer:
    def test_disk_entry_shared_across_cache_instances(self, tmp_path):
        writer = TraceCache(tmp_path)
        generated = writer.get_or_generate(SPEC)
        reader = TraceCache(tmp_path)
        loaded = reader.get_or_generate(SPEC)
        assert reader.stats() == {"hits": 1, "misses": 0, "corrupt": 0}
        assert loaded.total_remote_bytes() == generated.total_remote_bytes()
        assert loaded.n_gpus == generated.n_gpus

    def test_disk_loads_are_memory_mapped(self, tmp_path):
        writer = TraceCache(tmp_path)
        generated = writer.get_or_generate(SPEC)
        reader = TraceCache(tmp_path)
        loaded = reader.get_or_generate(SPEC)
        phase = loaded.iterations[0].phases[0]
        # Zero-copy: phase columns are slices of a read-only memmap
        # (shared page cache across worker processes), byte-identical
        # to the generated arrays.
        base = phase.stores.addrs.base
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        src = generated.iterations[0].phases[0]
        assert phase.stores.addrs.tobytes() == src.stores.addrs.tobytes()
        assert phase.reads.starts.tobytes() == src.reads.starts.tobytes()

    def test_mmap_false_materializes(self, tmp_path):
        TraceCache(tmp_path).get_or_generate(SPEC)
        loaded = TraceCache(tmp_path, mmap=False).get_or_generate(SPEC)
        phase = loaded.iterations[0].phases[0]
        base = phase.stores.addrs.base
        while base is not None:
            assert not isinstance(base, np.memmap)
            base = base.base

    def test_same_spec_byte_identical_across_processes(self, tmp_path):
        """Two processes, two cache roots, one trace_key -> identical
        bytes on disk (the content-addressing guarantee)."""
        roots = [str(tmp_path / "a"), str(tmp_path / "b")]
        with ProcessPoolExecutor(max_workers=2) as pool:
            blobs = list(
                pool.map(_entry_bytes, [(r, SPEC) for r in roots])
            )
        assert blobs[0] == blobs[1]

    def test_differing_seed_and_params_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_generate(SPEC)
        cache.get_or_generate(SPEC.with_options(seed=8))
        cache.get_or_generate(SPEC.with_options(workload_params={"n": 128}))
        assert cache.stats() == {"hits": 0, "misses": 3, "corrupt": 0}
        assert len(list(tmp_path.glob("trace-*/header.json"))) == 3

    def test_replay_only_knobs_share_one_entry(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_generate(SPEC.with_options(paradigm="p2p"))
        cache.get_or_generate(SPEC.with_options(paradigm="finepack"))
        assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0}
        assert len(list(tmp_path.glob("trace-*/header.json"))) == 1


class TestCorruption:
    def test_corrupted_entry_regenerated_not_fatal(self, tmp_path):
        writer = TraceCache(tmp_path)
        writer.get_or_generate(SPEC)
        path = writer.path_for(SPEC.trace_key())
        (path / "header.json").write_text("this is not json")

        reader = TraceCache(tmp_path)
        trace = reader.get_or_generate(SPEC)
        assert trace.n_gpus == SPEC.n_gpus
        assert reader.stats() == {"hits": 0, "misses": 1, "corrupt": 1}
        # and the bad entry was replaced by a good one
        third = TraceCache(tmp_path)
        third.get_or_generate(SPEC)
        assert third.stats() == {"hits": 1, "misses": 0, "corrupt": 0}

    def test_truncated_entry_regenerated(self, tmp_path):
        writer = TraceCache(tmp_path)
        writer.get_or_generate(SPEC)
        path = writer.path_for(SPEC.trace_key())
        # A killed worker can leave a column file truncated.
        col = path / "addrs.npy"
        col.write_bytes(col.read_bytes()[:16])

        reader = TraceCache(tmp_path)
        reader.get_or_generate(SPEC)
        assert reader.stats()["corrupt"] == 1


class TestEnvDefault:
    def test_from_env(self, tmp_path, monkeypatch):
        from repro.run import CACHE_ENV

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cache = TraceCache.from_env()
        assert cache.root == tmp_path

        monkeypatch.delenv(CACHE_ENV)
        assert TraceCache.from_env().root is None
