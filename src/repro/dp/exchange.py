"""Shard payload codec and allreduce rendezvous.

A *payload* is the per-shard contribution to one allreduce round: the
scaled loss, the gradient list (params order), the probed-point count,
and partial validator sums.  Payloads cross process boundaries inside a
*frame*: every flat array of :func:`encode_payload` travels as (key, dtype,
shape, raw bytes) and is read back with ``np.frombuffer``, so the codec
round-trips every array bit-exactly and reducing payloads that crossed a
socket gives the same bits as reducing them in-process (``LocalExchange``
≡ ``StoreExchange``).

Exchanges implement one method::

    exchange(step, phase, local) -> {shard_id: payload}  # ALL shards

Every rank receives *all* shard payloads — its own decoded from the very
frame it sends its peers — and runs the identical fixed-order reduction,
so ranks never need a broadcast to stay in lockstep.

``StoreExchange`` joins the ranks of one host over Unix-domain sockets in
a private directory.  Each rank listens on ``rank-<r>.sock``; on the first
round it connects to every lower rank and accepts every higher one.  Each
round it sends its owned shards to every peer as one length-prefixed frame
and blocks on receive: nothing polls, and a peer whose connection closes
fails the round at once.
"""

from __future__ import annotations

import functools
import json
import math
import os
import selectors
import socket
import struct
import time

import numpy as np

from .. import obs

__all__ = [
    "MAX_SOCKET_PATH", "LocalExchange", "StoreExchange", "decode_frame",
    "decode_payload", "encode_frame", "encode_payload", "socket_path",
]

_VAL_SEP = "|"


def encode_payload(payload):
    """Flatten a payload dict into ``{flat_key: ndarray}`` (frame order)."""
    flat = {}
    if "loss" in payload:
        flat["loss"] = np.asarray(payload["loss"])
    for i, grad in enumerate(payload.get("grads", ())):
        flat[f"grad{i:04d}"] = np.asarray(grad)
    if "probe_points" in payload:
        flat["probe_points"] = np.asarray(payload["probe_points"], dtype=np.int64)
    for vi, per_var in sorted(payload.get("validators", {}).items()):
        for var, (num, den) in sorted(per_var.items()):
            if _VAL_SEP in var:
                raise ValueError(f"validator variable name {var!r} may not "
                                 f"contain {_VAL_SEP!r}")
            prefix = f"val{int(vi):04d}{_VAL_SEP}{var}{_VAL_SEP}"
            flat[prefix + "num"] = np.asarray(num, dtype=np.float64)
            flat[prefix + "den"] = np.asarray(den, dtype=np.float64)
    return flat


def decode_payload(flat):
    """Inverse of :func:`encode_payload`; tolerates absent sections."""
    payload = {}
    grads, validators = {}, {}
    for key in flat:
        value = np.asarray(flat[key])
        if key == "loss":
            payload["loss"] = value
        elif key == "probe_points":
            payload["probe_points"] = int(value)
        elif key.startswith("grad"):
            grads[int(key[4:])] = value
        elif key.startswith("val"):
            vi_str, var, part = key[3:].split(_VAL_SEP)
            slot = validators.setdefault(int(vi_str), {}).setdefault(
                var, [0.0, 0.0])
            slot[0 if part == "num" else 1] = float(value)
        else:
            raise ValueError(f"unknown payload key {key!r}")
    if grads:
        payload["grads"] = [grads[i] for i in sorted(grads)]
        if sorted(grads) != list(range(len(grads))):
            raise ValueError("gradient slots are not contiguous")
    if validators:
        payload["validators"] = {
            vi: {var: tuple(slot) for var, slot in per_var.items()}
            for vi, per_var in validators.items()}
    return payload


# ----------------------------------------------------------------------
# Wire frames
# ----------------------------------------------------------------------
# A frame is a header ``<u64 body length><u64 step><u16 phase length>
# <u32 layout length>``, the phase name, the *layout* and then the array
# data.  The layout is JSON ``[[shard, [[key, dtype, shape], ...]], ...]``
# with ``np.dtype.str`` dtypes (byte order included).  The data holds every
# array's raw C-order bytes in layout order, each at a multiple of
# ``_ALIGN`` from the frame start, so decoded arrays are aligned views into
# the frame whether it was built or received.  A rank's layout is the same
# every round, so both ends build and parse it once.
_HEAD = struct.Struct("<QQHI")
_LENGTH = struct.Struct("<Q")
_ALIGN = 16


@functools.lru_cache(maxsize=64)
def _layout(signature):
    return json.dumps(signature).encode()


@functools.lru_cache(maxsize=64)
def _plan(layout):
    """``(slots, data size)`` of a layout: per shard, each array's key,
    dtype, item count, shape and offset from the data start."""
    slots, size = [], 0
    for shard, arrays in json.loads(layout):
        shard_slots = []
        for key, dtype_str, shape in arrays:
            dtype = np.dtype(dtype_str)
            if dtype.hasobject:
                raise ValueError(f"payload array {key!r} has object dtype")
            size += -size % _ALIGN
            count = math.prod(shape)
            shard_slots.append((key, dtype, count, tuple(shape), size))
            size += count * dtype.itemsize
        slots.append((int(shard), tuple(shard_slots)))
    return tuple(slots), size


def encode_frame(step, phase, payloads):
    """``{shard: payload}`` of one round -> one length-prefixed frame."""
    flats = {int(shard): encode_payload(payload)
             for shard, payload in sorted(payloads.items())}
    layout = _layout(tuple(
        (shard, tuple((key, array.dtype.str, array.shape)
                      for key, array in flat.items()))
        for shard, flat in flats.items()))
    slots, size = _plan(layout)
    phase_bytes = phase.encode()
    head_size = _HEAD.size + len(phase_bytes) + len(layout)
    start = head_size + -head_size % _ALIGN
    frame = bytearray(start + size)
    frame[:head_size] = _HEAD.pack(
        len(frame) - _LENGTH.size, int(step), len(phase_bytes),
        len(layout)) + phase_bytes + layout
    for shard, shard_slots in slots:
        flat = flats[shard]
        for key, dtype, count, _shape, offset in shard_slots:
            at = start + offset
            frame[at:at + count * dtype.itemsize] = flat[key].tobytes()
    return frame


def decode_frame(frame):
    """Inverse of :func:`encode_frame`: ``(step, phase, {shard: payload})``.

    Arrays are ``np.frombuffer`` views into ``frame`` (writable when the
    frame is a ``bytearray``); nothing is unpickled or unzipped.
    """
    length, step, phase_len, layout_len = _HEAD.unpack_from(frame, 0)
    offset = _HEAD.size
    phase = frame[offset:offset + phase_len].decode()
    offset += phase_len
    slots, size = _plan(bytes(frame[offset:offset + layout_len]))
    offset += layout_len
    start = offset + -offset % _ALIGN
    if length != len(frame) - _LENGTH.size or start + size != len(frame):
        raise ValueError(f"frame of {len(frame)} bytes declares {length} "
                         f"body bytes and a {start + size}-byte layout")
    payloads = {}
    for shard, shard_slots in slots:
        if shard in payloads:
            raise ValueError(f"frame carries shard {shard} twice")
        payloads[shard] = decode_payload({
            key: np.frombuffer(frame, dtype, count, start + at).reshape(shape)
            for key, dtype, count, shape, at in shard_slots})
    return step, phase, payloads


class LocalExchange:
    """In-process rendezvous for ``world_size == 1``: one rank owns every
    shard, so the gather is just its own contributions."""

    def __init__(self, n_shards):
        self.n_shards = int(n_shards)

    def exchange(self, step, phase, local):
        if sorted(local) != list(range(self.n_shards)):
            raise ValueError(f"local exchange needs all {self.n_shards} "
                             f"shards, got {sorted(local)}")
        return dict(local)

    def close(self):
        pass


#: longest AF_UNIX socket path: ``sun_path`` holds 108 bytes with its NUL
MAX_SOCKET_PATH = 107

#: first bytes a connecting rank sends: magic and its rank
_HELLO = struct.Struct("<4sI")
_MAGIC = b"RPDX"


def socket_path(root, rank):
    """Path of ``rank``'s listening socket under ``root``; raises
    ``ValueError`` naming the path when it exceeds :data:`MAX_SOCKET_PATH`."""
    path = os.path.join(str(root), f"rank-{int(rank)}.sock")
    if len(os.fsencode(path)) > MAX_SOCKET_PATH:
        raise ValueError(
            f"dp socket path {path!r} is {len(os.fsencode(path))} bytes; "
            f"AF_UNIX allows at most {MAX_SOCKET_PATH}, so use a shorter "
            f"exchange root")
    return path


class _Inbox:
    """Reassembles one peer's frame from non-blocking reads."""

    def __init__(self):
        self.frame = bytearray(_LENGTH.size)
        self.got = 0
        self.sized = False

    def read(self, sock):
        """Read what ``sock`` has without blocking; ``True`` once the whole
        frame is in.  Never reads past it: the peer may already have sent
        the next round's frame behind it."""
        while self.got < len(self.frame):
            try:
                n = sock.recv_into(memoryview(self.frame)[self.got:])
            except BlockingIOError:
                return False
            if n == 0:
                raise EOFError
            self.got += n
            if not self.sized and self.got == _LENGTH.size:
                (length,) = _LENGTH.unpack_from(self.frame, 0)
                self.frame += bytes(length)
                self.sized = True
        return self.sized


class StoreExchange:
    """Socket rendezvous of the ranks of one host.

    Each rank listens on :func:`socket_path` under ``root`` from
    construction on, but connects to its peers only on the first round, so
    building a rank never waits on a peer's start-up.  ``timeout`` is the
    longest a rank waits for a peer to connect or to send its frame; a
    peer whose connection closes raises at once, naming the rank and step.
    Time spent blocked on peer frames is metered as
    ``dp.straggler_wait_seconds``.
    """

    def __init__(self, root, *, n_shards, world_size, rank, timeout=120.0):
        self.root = str(root)
        self.n_shards = int(n_shards)
        self.world_size = int(world_size)
        self.rank = int(rank)
        self.timeout = float(timeout)
        socket_path(self.root, self.world_size - 1)   # the longest path
        os.makedirs(self.root, mode=0o700, exist_ok=True)
        self.path = socket_path(self.root, self.rank)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._listener.bind(self.path)
            self._listener.listen(self.world_size)
        except BaseException:
            self._listener.close()
            raise
        #: ``peer rank -> connected socket`` after the first round
        self._peers = None

    def exchange(self, step, phase, local):
        deadline = time.monotonic() + self.timeout
        if self._peers is None:
            self._connect(deadline)
        frame = encode_frame(step, phase, local)
        frames = self._transfer(frame, step, phase, deadline)
        frames[self.rank] = frame

        gathered, count = {}, 0
        for peer in sorted(frames):
            got_step, got_phase, payloads = decode_frame(frames[peer])
            if (got_step, got_phase) != (int(step), phase):
                raise RuntimeError(
                    f"dp allreduce rank {self.rank} at step {step} ({phase}) "
                    f"got rank {peer}'s frame for step {got_step} "
                    f"({got_phase}): ranks are out of lockstep")
            gathered.update(payloads)
            count += len(payloads)
        if (count != self.n_shards
                or sorted(gathered) != list(range(self.n_shards))):
            raise ValueError(f"dp allreduce rank {self.rank} gathered "
                             f"{count} shards {sorted(gathered)}, expected "
                             f"each of {self.n_shards} once")
        return {shard: gathered[shard] for shard in range(self.n_shards)}

    # -- connection set-up (first round only) ---------------------------
    def _connect(self, deadline):
        peers, conn = {}, None
        try:
            for peer in range(self.rank):
                peers[peer] = self._dial(peer, deadline)
            while len(peers) < self.world_size - 1:
                missing = [p for p in range(self.rank + 1, self.world_size)
                           if p not in peers]
                try:
                    self._listener.settimeout(
                        max(deadline - time.monotonic(), 1e-3))
                    conn, _ = self._listener.accept()
                    conn.settimeout(max(deadline - time.monotonic(), 1e-3))
                    hello = conn.recv(_HELLO.size, socket.MSG_WAITALL)
                except socket.timeout:
                    raise TimeoutError(
                        f"dp allreduce rank {self.rank} timed out after "
                        f"{self.timeout:g}s waiting for {_ranks(missing)} to "
                        f"connect to {self.path}") from None
                peer = (_HELLO.unpack(hello)[1]
                        if len(hello) == _HELLO.size
                        and hello.startswith(_MAGIC) else None)
                if peer not in missing:
                    raise ConnectionError(
                        f"dp allreduce rank {self.rank}: unexpected hello "
                        f"{hello!r} on {self.path}")
                peers[peer], conn = conn, None
        except BaseException:
            for sock in [*peers.values(), conn]:
                if sock is not None:
                    sock.close()
            raise
        for conn in peers.values():
            conn.setblocking(False)
        self._peers = peers
        self._listener.close()

    def _dial(self, peer, deadline):
        """Connect to a lower rank, retrying with a short backoff while its
        socket does not exist yet (the peer is still starting up)."""
        path = socket_path(self.root, peer)
        backoff = 0.001
        while True:
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.settimeout(max(deadline - time.monotonic(), 1e-3))
                conn.connect(path)
                conn.sendall(_HELLO.pack(_MAGIC, self.rank))
                return conn
            except (FileNotFoundError, ConnectionRefusedError,
                    socket.timeout):
                conn.close()
            except BaseException:
                conn.close()
                raise
            if time.monotonic() + backoff > deadline:
                raise TimeoutError(
                    f"dp allreduce rank {self.rank} timed out after "
                    f"{self.timeout:g}s waiting for rank {peer} to accept "
                    f"on {path}")
            time.sleep(backoff)
            backoff = min(2 * backoff, 0.05)

    # -- one round -------------------------------------------------------
    def _transfer(self, frame, step, phase, deadline):
        """Send ``frame`` to every peer and receive one frame from each,
        multiplexed so that frames larger than the socket buffers cannot
        deadlock two ranks that both send before they receive."""
        outgoing = {peer: memoryview(frame) for peer in self._peers}
        inboxes = {peer: _Inbox() for peer in self._peers}
        received = {}
        waited = 0.0
        with selectors.DefaultSelector() as selector:
            for peer, conn in self._peers.items():
                selector.register(conn, selectors.EVENT_READ
                                  | selectors.EVENT_WRITE, peer)
            while outgoing or inboxes:
                remaining = deadline - time.monotonic()
                started = time.perf_counter()
                events = selector.select(max(remaining, 0.0))
                waited += time.perf_counter() - started
                if not events and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"dp allreduce rank {self.rank} timed out after "
                        f"{self.timeout:g}s at step {step} ({phase}) "
                        f"waiting for "
                        f"{_ranks(sorted(set(outgoing) | set(inboxes)))}")
                for key, mask in events:
                    peer = key.data
                    try:
                        if mask & selectors.EVENT_WRITE and peer in outgoing:
                            sent = key.fileobj.send(outgoing[peer])
                            outgoing[peer] = outgoing[peer][sent:]
                            if not len(outgoing[peer]):
                                del outgoing[peer]
                        if (mask & selectors.EVENT_READ and peer in inboxes
                                and inboxes[peer].read(key.fileobj)):
                            received[peer] = inboxes.pop(peer).frame
                    except BlockingIOError:
                        pass
                    except (EOFError, OSError) as exc:
                        raise ConnectionError(
                            f"dp allreduce rank {self.rank}: rank {peer} "
                            f"closed its connection at step {step} "
                            f"({phase})") from exc
                    events_left = ((selectors.EVENT_WRITE
                                    if peer in outgoing else 0)
                                   | (selectors.EVENT_READ
                                      if peer in inboxes else 0))
                    if events_left != key.events:
                        if events_left:
                            selector.modify(key.fileobj, events_left, peer)
                        else:
                            selector.unregister(key.fileobj)
        if waited:
            obs.inc("dp.straggler_wait_seconds", waited)
        return received

    def close(self):
        """Close every connection and the listener; peers still waiting on
        this rank see the closed connection and fail fast."""
        for conn in (self._peers or {}).values():
            conn.close()
        self._peers = {}
        self._listener.close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _ranks(ranks):
    """``[1]`` -> ``"rank 1"``, ``[1, 2]`` -> ``"ranks 1, 2"``."""
    ranks = list(ranks)
    return ("rank " if len(ranks) == 1 else "ranks ") + ", ".join(
        str(r) for r in ranks)
