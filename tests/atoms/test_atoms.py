"""Emulation atom tests (host plane, tiny workloads)."""

from __future__ import annotations

import os

import pytest

from repro.atoms import (
    AtomWork,
    ComputeAtom,
    MemoryAtom,
    NetworkAtom,
    StorageAtom,
    get_atom,
    list_atoms,
    register,
)
from repro.core.config import SynapseConfig
from repro.core.errors import ConfigError


class TestAtomWork:
    def test_addition(self):
        total = AtomWork(cycles=1.0, read_bytes=2) + AtomWork(cycles=3.0, alloc_bytes=4)
        assert total.cycles == 4.0
        assert total.read_bytes == 2
        assert total.alloc_bytes == 4

    def test_empty_flag(self):
        assert AtomWork().empty
        assert not AtomWork(cycles=1.0).empty
        assert not AtomWork(sent_bytes=1).empty


class TestRegistry:
    def test_builtin_atoms(self):
        for name in ("compute", "memory", "storage", "network"):
            assert name in list_atoms()

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            get_atom("gpu")

    def test_register_rejects_non_atom(self):
        with pytest.raises(ConfigError):
            register(int)


class TestComputeAtom:
    def test_wants_only_cycles(self):
        atom = ComputeAtom(SynapseConfig())
        assert atom.wants(AtomWork(cycles=1.0))
        assert not atom.wants(AtomWork(read_bytes=10))

    def test_execute_small_budget(self):
        atom = ComputeAtom(SynapseConfig(compute_kernel="asm"))
        atom.setup()
        atom.execute(AtomWork(cycles=1e7))  # a few ms

    def test_openmp_path(self):
        atom = ComputeAtom(SynapseConfig(compute_kernel="asm", openmp_threads=2))
        atom.setup()
        atom.execute(AtomWork(cycles=2e7))


class TestMemoryAtom:
    def test_pool_accounting(self):
        config = SynapseConfig(mem_block_size=1 << 16)
        atom = MemoryAtom(config)
        atom.execute(AtomWork(alloc_bytes=4 << 16))
        assert atom.resident_bytes == 4 << 16
        atom.execute(AtomWork(free_bytes=2 << 16))
        assert atom.resident_bytes == 2 << 16
        atom.teardown()
        assert atom.resident_bytes == 0

    def test_sub_block_amounts_carry(self):
        config = SynapseConfig(mem_block_size=1 << 20)
        atom = MemoryAtom(config)
        atom.execute(AtomWork(alloc_bytes=(1 << 19)))
        assert atom.resident_bytes == 0  # below one block: carried
        atom.execute(AtomWork(alloc_bytes=(1 << 19)))
        assert atom.resident_bytes == 1 << 20

    def test_free_never_underflows(self):
        atom = MemoryAtom(SynapseConfig(mem_block_size=1 << 16))
        atom.execute(AtomWork(free_bytes=1 << 20))
        assert atom.resident_bytes == 0

    def test_wants(self):
        atom = MemoryAtom(SynapseConfig())
        assert atom.wants(AtomWork(alloc_bytes=1))
        assert atom.wants(AtomWork(free_bytes=1))
        assert not atom.wants(AtomWork(cycles=1.0))


class TestStorageAtom:
    def test_writes_expected_bytes(self, tmp_path):
        config = SynapseConfig(io_block_size_write=4096)
        config.extra["io_dir"] = str(tmp_path)
        atom = StorageAtom(config)
        atom.setup()
        atom.execute(AtomWork(write_bytes=10_000))
        assert os.path.getsize(atom._write_path) == 10_000
        atom.teardown()

    def test_reads_complete(self, tmp_path):
        config = SynapseConfig(io_block_size_read=4096)
        config.extra["io_dir"] = str(tmp_path)
        atom = StorageAtom(config)
        atom.setup()
        atom.execute(AtomWork(read_bytes=50_000))  # grows scratch then reads
        atom.teardown()

    def test_teardown_cleans_up(self, tmp_path):
        config = SynapseConfig()
        config.extra["io_dir"] = str(tmp_path)
        atom = StorageAtom(config)
        atom.setup()
        scratch = atom._dir.name
        atom.execute(AtomWork(write_bytes=100))
        atom.teardown()
        assert not os.path.exists(scratch)

    def test_wants(self):
        atom = StorageAtom(SynapseConfig())
        assert atom.wants(AtomWork(read_bytes=1))
        assert atom.wants(AtomWork(write_bytes=1))
        assert not atom.wants(AtomWork(alloc_bytes=1))


class TestNetworkAtom:
    def test_send_and_receive(self):
        atom = NetworkAtom(SynapseConfig(net_block_size=1024))
        atom.setup()
        try:
            atom.execute(AtomWork(sent_bytes=10_000, received_bytes=5_000))
        finally:
            atom.teardown()

    def test_teardown_idempotent(self):
        atom = NetworkAtom(SynapseConfig())
        atom.setup()
        atom.teardown()
        atom.teardown()

    def test_teardown_never_leaves_the_drain_thread_on_a_closed_socket(
        self, monkeypatch
    ):
        """The drain thread used to call ``settimeout`` on a socket its
        owner might already have closed (``OSError: Bad file
        descriptor`` in the thread).  Set-up then immediate teardown is
        the racy schedule; the thread must be gone before the pair is."""
        import threading

        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        for _ in range(25):
            atom = NetworkAtom(SynapseConfig())
            atom.setup()
            drain = atom._drain
            atom.teardown()
            assert not drain.is_alive()
        assert crashes == []

    def test_wants(self):
        atom = NetworkAtom(SynapseConfig())
        assert atom.wants(AtomWork(sent_bytes=1))
        assert atom.wants(AtomWork(received_bytes=1))
        assert not atom.wants(AtomWork(cycles=1.0))
