"""Seeded permutation of message delivery order (graft-san's lever).

The Pregel model hands ``compute()`` its inbox as an unordered bag; this
engine *canonicalizes* inbox order (stable sort by source id) so that
runs are byte-identical across backends. That determinism is also a
blind spot: order-sensitive user code produces the same (wrong-by-luck)
answer on every run, so nothing ever notices. A
:class:`PermutationSchedule` re-opens the model's freedom on purpose —
it shuffles each inbox into a *different but deterministic* order, seeded
via :func:`~repro.common.rng.derive_rng` from
``(seed, "san", schedule, superstep, target)``, without adding, dropping,
or altering any message. Two runs under the same schedule agree exactly;
runs under different schedules agree only if the computation is
order-insensitive. The sanitizer (:mod:`repro.graft.sanitizer`) turns
that contrast into verdicts.

Schedule 0 is the identity (canonical order); schedules 1, 2, ... are
distinct deterministic shuffles. Every message plane applies the schedule
*after* canonicalization and *before* combining — the in-memory planes at
the producing barrier, the spill plane when a partition's inbox loads —
so combiner folds experience the permuted order too, exercising GL015's
hazard class along with GL016–GL018's.
"""

from repro.common.rng import derive_rng


class PermutationSchedule:
    """Deterministically permute per-vertex inbox order at each barrier.

    ``schedule`` selects the permutation family member: 0 is the identity
    (useful as an explicit baseline), any other value yields a shuffle
    derived from ``(seed, "san", schedule, superstep, repr(target))`` —
    stable across backends, worker counts, and platforms. ``seed``
    defaults to the engine's run seed via :meth:`bind` (the same
    late-binding discipline the chaos injector uses).
    """

    def __init__(self, schedule=1, seed=None):
        self.schedule = schedule
        self.seed = seed

    def bind(self, run_seed):
        """Adopt the engine's run seed unless one was given explicitly."""
        if self.seed is None:
            self.seed = run_seed
        return self

    def is_identity(self):
        return self.schedule == 0

    def permute_inbox(self, target, superstep, envelopes):
        """Shuffle one inbox in place; returns True if order changed."""
        if self.schedule == 0 or len(envelopes) < 2:
            return False
        rng = derive_rng(
            self.seed, "san", self.schedule, superstep, repr(target)
        )
        rng.shuffle(envelopes)
        return True

    def permute_store(self, store, superstep):
        """Permute every inbox of a message store for one delivery superstep.

        Called on a canonicalized envelope store: the whole outgoing store
        at an in-memory barrier, or one loaded spill partition. The
        shuffle depends only on its coordinates, so it is identical
        whichever backend, plane or partition ran it. Returns the number
        of inboxes whose order changed.
        """
        if self.schedule == 0:
            return 0
        permuted = 0
        for target, envelopes in store._by_target.items():
            if self.permute_inbox(target, superstep, envelopes):
                permuted += 1
        return permuted

    def __repr__(self):
        return (
            f"PermutationSchedule(schedule={self.schedule!r}, "
            f"seed={self.seed!r})"
        )
