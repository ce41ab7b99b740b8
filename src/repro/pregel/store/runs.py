"""Sorted message spill runs and their merge-join reader.

Messages emitted under ``store="spill"`` are routed straight into
per-partition *run files* instead of in-memory grouped outboxes. Worker
``w``'s messages for partition ``p``, to be delivered at superstep
``s``, land in ``<base>/runs/s<s>/p<p>-w<w>.run``: a sequence of
BlockWriter frames, each framing one *run* — a chunk of ``(source,
target, value)`` triples sorted by ``(repr(target), repr(source))``.
Chunks are cut whenever the router's in-memory buffer reaches its entry
budget, so emission memory stays bounded no matter how many messages a
superstep produces.

Delivery is a k-way **merge-join**: all of a partition's runs are merged
(``heapq.merge``) into one stream ordered by target, then source — and
joined against the partition's vertex page. The merge reproduces the
in-memory plane's canonical inbox order *exactly*: the in-memory store
concatenates worker outboxes in worker-id order and stably sorts each
inbox by ``repr(source)``; here the sort key is the same and
``heapq.merge`` breaks ties by input order, where inputs are enumerated
(worker id, chunk sequence) — i.e. worker-id order, then emission
order. Byte-identical trace digests across the two planes follow.
"""

import heapq
import pickle
import threading

from repro.common.errors import PregelError
from repro.pregel.messages import Envelope, MessageStore, group_by_target
from repro.pregel.store.pages import iter_frames
from repro.simfs.writers import BlockWriter

RUN_MAGIC = b"MRN1"

#: Buffered ``(source, target, value)`` triples per router before a
#: chunk is sorted and spilled.
RUN_CHUNK_ENTRIES = 16384


def run_directory(base, superstep):
    return f"{base}/runs/s{superstep:05d}"


def run_path(base, superstep, partition_id, worker_id):
    return (
        f"{run_directory(base, superstep)}/"
        f"p{partition_id:05d}-w{worker_id:03d}.run"
    )


def _run_sort_key(triple):
    return (repr(triple[1]), repr(triple[0]))


def encode_run(triples):
    """One sorted chunk of ``(source, target, value)`` triples to bytes."""
    return RUN_MAGIC + pickle.dumps(triples, protocol=4)


def decode_run(payload):
    if payload[:4] != RUN_MAGIC:
        raise PregelError(
            f"bad message run magic {payload[:4]!r} (expected MRN1)"
        )
    return pickle.loads(payload[4:])


class RunRouter:
    """Routes one worker's emitted messages into sorted spill runs.

    ``deferred=True`` (the process backend) buffers the run files in a
    private in-memory filesystem; :meth:`shipped_files` hands the bytes
    to the parent, which installs them verbatim — offsets and framing
    are file-relative, so the bytes are position-independent.

    The router also fills the resolver's work list as it goes: a target
    absent from ``locations`` *at emit time* is counted in
    ``suspect_counts``. The barrier re-checks suspects after graph
    mutations, so a vertex created at the same barrier still receives
    its messages, exactly as the in-memory plane's
    ``missing_targets`` scan behaves.
    """

    def __init__(self, filesystem, base, worker_id, superstep, partitioner,
                 locations, chunk_entries=RUN_CHUNK_ENTRIES, lock=None,
                 deferred=False):
        if deferred:
            from repro.simfs.filesystem import SimFileSystem

            filesystem = SimFileSystem()
            lock = None
        self._fs = filesystem
        self._base = base
        self._worker_id = worker_id
        self._superstep = superstep
        self._partitioner = partitioner
        self._locations = locations
        self._chunk_entries = chunk_entries
        self._lock = lock or threading.RLock()
        self._deferred = deferred
        self._buffers = {}
        self._buffered = 0
        self._writers = {}
        self.count = 0
        self.suspect_counts = {}
        self._sealed = False

    def add(self, source, target, value):
        partition_id = self._partitioner.partition_for(target)
        batch = self._buffers.get(partition_id)
        if batch is None:
            self._buffers[partition_id] = [(source, target, value)]
        else:
            batch.append((source, target, value))
        if target not in self._locations:
            self.suspect_counts[target] = (
                self.suspect_counts.get(target, 0) + 1
            )
        self.count += 1
        self._buffered += 1
        if self._buffered >= self._chunk_entries:
            self._flush()

    def add_broadcast(self, source, targets, value):
        for target in targets:
            self.add(source, target, value)

    def _flush(self):
        for partition_id in sorted(self._buffers):
            batch = self._buffers[partition_id]
            if not batch:
                continue
            # Stable sort: one source's messages to one target keep their
            # emission order, matching MessageStore.canonicalize().
            batch.sort(key=_run_sort_key)
            writer = self._writers.get(partition_id)
            if writer is None:
                writer = BlockWriter(
                    self._fs,
                    run_path(
                        self._base, self._superstep, partition_id,
                        self._worker_id,
                    ),
                )
                self._writers[partition_id] = writer
            with self._lock:
                writer.write_block(encode_run(batch))
            self._buffers[partition_id] = []
        self._buffered = 0

    def seal(self):
        """Flush remaining buffers and close the chunk writers."""
        if self._sealed:
            return
        self._flush()
        for writer in self._writers.values():
            writer.close()
        self._sealed = True

    def shipped_files(self):
        """Deferred mode: the sealed run files as ``[(path, bytes)]``."""
        if not self._deferred:
            return []
        return [
            (writer.path, self._fs.read_bytes(writer.path))
            for _, writer in sorted(self._writers.items())
        ]


def partition_run_paths(filesystem, base, superstep, partition_id):
    """The run files feeding one partition, in (worker, file) name order."""
    prefix = f"p{partition_id:05d}-"
    return sorted(
        path
        for path in filesystem.glob_files(
            run_directory(base, superstep), suffix=".run"
        )
        if path.rsplit("/", 1)[-1].startswith(prefix)
    )


def iter_partition_triples(filesystem, base, superstep, partition_id):
    """Merged ``(source, target, value)`` stream for one partition.

    Each BlockWriter frame is one independently sorted run; the streams
    are k-way merged with the same key the runs were sorted by.
    ``heapq.merge`` is stable across its inputs, and the inputs are
    enumerated in (worker id, chunk sequence) order — reproducing the
    in-memory canonical inbox order tie for tie.
    """
    runs = []
    for path in partition_run_paths(filesystem, base, superstep, partition_id):
        data = filesystem.read_bytes(path)
        for payload in iter_frames(data):
            runs.append(decode_run(payload))
    if not runs:
        return iter(())
    if len(runs) == 1:
        return iter(runs[0])
    return heapq.merge(*runs, key=_run_sort_key)


def count_run_targets(filesystem, base, superstep, partitioner, vertex_ids):
    """How many spilled messages address each of ``vertex_ids``.

    The resolver's removed-vertex path: after a barrier removes a
    vertex, any in-flight message to it must recreate it (policy
    ``create``) or be dropped — either way the barrier needs the count.
    Scans only the partitions the ids map to.
    """
    by_partition = {}
    for vertex_id in vertex_ids:
        by_partition.setdefault(
            partitioner.partition_for(vertex_id), set()
        ).add(vertex_id)
    counts = {}
    for partition_id, wanted in sorted(by_partition.items()):
        for source, target, value in iter_partition_triples(
            filesystem, base, superstep, partition_id
        ):
            if target in wanted:
                counts[target] = counts.get(target, 0) + 1
    return counts


class SpilledMessageStore:
    """The spill plane's superstep message store.

    Holds no message bytes itself — only the identity of the run
    directory, the routed-message total, and the resolver's state.
    :meth:`load_partition` merges one partition's runs into a plain
    :class:`~repro.pregel.messages.MessageStore`, so the worker's compute
    loop, the graft-san permutation and the combiner fold are the ones
    the in-memory plane uses.

    The barrier's resolver asks the same ``missing_targets`` /
    ``drop_inbox`` questions as of an in-memory store. ``suspects`` maps
    each target that was absent at emit time to its message count (the
    routers record them); ``removed`` lists the barrier's removal
    requests, whose in-flight messages passed that emit-time check and
    are counted with a run scan of just their partitions.
    """

    def __init__(self, filesystem, base, superstep, num_partitions,
                 total_messages=0, combiner=None, schedule=None,
                 partitioner=None, suspects=None, removed=()):
        self.filesystem = filesystem
        self.base = base
        self.superstep = superstep
        self.num_partitions = num_partitions
        self.total_messages = total_messages
        self._combiner = combiner
        self._schedule = schedule
        self._partitioner = partitioner
        self._target_counts = dict(suspects or {})
        self._removed = removed
        self._dropped = set()

    def load_partition(self, partition_id):
        """One partition's inbox as a plain :class:`MessageStore`.

        Built from the canonical k-way run merge, then permuted by the
        graft-san schedule at this delivery superstep's coordinates and
        combined, exactly as the in-memory barrier does. The returned
        store's ``inboxes_permuted`` and ``eliminated`` count that work
        for the consuming worker.
        """
        dropped = self._dropped
        view = MessageStore()
        view.merge_grouped(group_by_target(
            Envelope(source, target, value)
            for source, target, value in iter_partition_triples(
                self.filesystem, self.base, self.superstep, partition_id
            )
            if target not in dropped
        ))
        view.inboxes_permuted, view.eliminated = view.permute_and_combine(
            self._schedule, self.superstep, self._combiner
        )
        return view

    def has_messages(self):
        return self.total_messages > 0

    def missing_targets(self, locations):
        """Targets with messages but no vertex (the resolver's work list).

        Called after the barrier's removals and additions, so a suspect
        created at the same barrier still receives its messages.
        """
        counts = self._target_counts
        removed = [
            vertex_id for vertex_id in self._removed
            if vertex_id not in locations and vertex_id not in counts
        ]
        if removed:
            counts.update(count_run_targets(
                self.filesystem, self.base, self.superstep,
                self._partitioner, removed,
            ))
        return [target for target in counts if target not in locations]

    def drop_inbox(self, vertex_id):
        """Resolver policy ``drop``: discard a missing target's messages."""
        self._dropped.add(vertex_id)
        dropped = self._target_counts.pop(vertex_id, 0)
        self.total_messages -= dropped
        return dropped

    def iter_checkpoint_messages(self):
        """``(source, target, value)`` for every undropped in-flight message.

        Per-target order is the delivered order (canonical, then
        permuted and combined), which is what a checkpoint must preserve:
        restore re-delivers in file order and the re-executed superstep
        consumes inboxes as delivered.
        """
        for partition_id in range(self.num_partitions):
            yield from self.load_partition(
                partition_id
            ).iter_checkpoint_messages()
