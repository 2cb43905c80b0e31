"""Network atom: simple socket-based traffic emulation.

Table 1 marks network emulation as partially supported: "emulation of
simple socket-based network communication is implemented" (§4.5).  The
atom pumps bytes through a local socket pair with a draining echo thread
— real kernel socket buffers, real copies, no remote endpoint.
"""

from __future__ import annotations

import socket
import threading

from repro.atoms.base import AtomBase, AtomWork
from repro.core.config import SynapseConfig

__all__ = ["NetworkAtom"]


class NetworkAtom(AtomBase):
    """Sends/receives bytes over a local socketpair in tunable blocks."""

    name = "network"

    def __init__(self, config: SynapseConfig) -> None:
        super().__init__(config)
        self._local: socket.socket | None = None
        self._remote: socket.socket | None = None
        self._drain: threading.Thread | None = None
        self._stop = threading.Event()

    def setup(self) -> None:
        self._local, self._remote = socket.socketpair()
        self._stop.clear()
        # Set before the thread exists: the owner may close the pair at
        # any time after that, and the thread must only ever see a
        # closed socket as "stop".
        self._remote.settimeout(0.1)

        def drain(remote: socket.socket) -> None:
            while not self._stop.is_set():
                try:
                    if not remote.recv(1 << 16):
                        return
                except socket.timeout:
                    continue
                except OSError:
                    return

        self._drain = threading.Thread(
            target=drain, args=(self._remote,), daemon=True, name="network-atom-drain"
        )
        self._drain.start()

    def wants(self, work: AtomWork) -> bool:
        return work.sent_bytes > 0 or work.received_bytes > 0

    def execute(self, work: AtomWork) -> None:
        if self._local is None:
            self.setup()
        assert self._local is not None and self._remote is not None
        block_size = int(self.config.net_block_size)
        block = b"\x42" * block_size
        # Sends: local -> remote (drained by the echo thread).
        remaining = work.sent_bytes
        while remaining > 0:
            chunk = block if remaining >= block_size else block[:remaining]
            self._local.sendall(chunk)
            remaining -= len(chunk)
        # Receives: remote -> local.
        remaining = work.received_bytes
        while remaining > 0:
            chunk = block if remaining >= block_size else block[:remaining]
            self._remote.sendall(chunk)
            got = 0
            while got < len(chunk):
                data = self._local.recv(min(1 << 16, len(chunk) - got))
                if not data:
                    return
                got += len(data)
            remaining -= len(chunk)

    def teardown(self) -> None:
        # Stop and join the drain thread while the pair is still open,
        # so it never calls into a closed descriptor.
        self._stop.set()
        if self._drain is not None:
            if self._local is not None:
                try:  # end-of-stream wakes the thread out of recv() at once
                    self._local.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
            self._drain.join(timeout=1.0)
            self._drain = None
        for sock in (self._local, self._remote):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._local = self._remote = None
