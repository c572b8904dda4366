"""Incremental fault-state restore across campaign re-entries.

The compaction loop re-simulates near-identical fault lists every time a
PTP is edited and re-run, yet a stuck-at fault's detection outcome under
pattern ``p`` depends **only** on pattern ``p``'s values over the fault's
supporting primary inputs (:meth:`PropagationSchedule.support_of`): the
good values on the support fix excitation, every side-input met while the
effect walks the fanout cone, and the observed outputs the cone drives.
This module exploits that locality — the cross-run analogue of the
event engine's within-run redundancy trimming (ERASER's observation, at
campaign scope):

* After every run, :class:`IncrementalFaultSim` stores a **fault-state
  record** in the :class:`~repro.exec.cache.ArtifactCache`, keyed by
  (PTP name, module fingerprint, engine): per cone group (faults sharing
  a seed net, as grouped by the event engine) the sorted support nets,
  the list of *distinct support-restricted pattern values* seen, and per
  fault site a detection mask over that value list.
* On the next run the current pattern set is projected onto each group's
  support.  A fault is **restored** — its detection word rebuilt exactly,
  without simulation — when its group's support nets match and every
  current projected value already appears in the record; the remainder is
  **invalidated** and re-simulated through the ordinary scheduler/pool
  path, compacted dense with an exclusive prefix-sum over the
  needs-resim flags (stream compaction) and scattered back in
  fault-list order.

Keying detections by *value* rather than by pattern index makes the
record order-independent: deleting a store block, reordering patterns,
or appending patterns that only revisit known support values all restore
for free.  ``strict`` mode re-simulates everything anyway and raises
:class:`~repro.errors.IncrementalError` unless the restored result is
bit-identical — the soundness oracle behind ``--incremental strict``.

Records carry a whole-payload checksum: a bit flip that still parses as
JSON is caught at load, the entry is deleted
(:meth:`ArtifactCache.report_corrupt`), and the run falls back to full
re-simulation — corruption can cost speed, never correctness.
"""

from __future__ import annotations

from ..errors import IncrementalError
from ..faults.fault_sim import FaultSimResult
from ..faults.fault import FaultList
from ..faults.propagate import PropagationSchedule
from ..netlist.simulator import iter_set_bits
from .cache import FAULT_STATE_VERSION, _sha256_of

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Valid values of the ``--incremental`` switch.
INCREMENTAL_MODES = ("off", "on", "strict")


def validate_incremental_mode(mode):
    """Return *mode* if valid, else raise :class:`IncrementalError`."""
    if mode not in INCREMENTAL_MODES:
        raise IncrementalError(
            "unknown incremental mode {!r}; expected one of {}".format(
                mode, INCREMENTAL_MODES))
    return mode


def fault_site_key(fault):
    """Stable string identity of one fault site (net, gate, pin, value) —
    the per-fault key inside a group's detection table."""
    gate = "-" if fault.gate is None else str(fault.gate)
    return "{}:{}:{}:{}".format(fault.net, gate, fault.pin, fault.stuck_at)


def _vkey(value):
    return format(value, "x")


def _support_key(nets, vkeys):
    """Identity of one (support nets, value list) table entry.  The value
    list is part of the key so entries are immutable: two groups that
    share nets but saw different values never alias."""
    return _sha256_of([list(nets), list(vkeys)])[:16]


class IncrementalFaultSim:
    """Fault simulation with cross-run detection-state restore.

    Args:
        cache: the :class:`~repro.exec.cache.ArtifactCache` holding the
            fault-state records (required — without a cache there is
            nothing to restore from).
        metrics: optional :class:`~repro.exec.metrics.RunMetrics`;
            receives one :meth:`~RunMetrics.record_incremental` call per
            run plus ``cache.corrupt`` counter bumps.
        mode: ``"on"`` (restore) or ``"strict"`` (restore, then
            re-simulate everything and assert bit-identity).
    """

    def __init__(self, cache, metrics=None, mode="on"):
        if cache is None:
            raise IncrementalError(
                "incremental mode requires an artifact cache")
        validate_incremental_mode(mode)
        if mode == "off":
            raise IncrementalError(
                "IncrementalFaultSim must not be built in mode 'off'")
        self.cache = cache
        self.metrics = metrics
        self.mode = mode
        # netlist id -> (netlist, schedule); the strong netlist reference
        # pins the id so it cannot be reused by a different object.
        self._schedules = {}
        # pattern-content key -> projection context (FIFO-bounded).
        self._proj_contexts = {}

    # -- public entry point ----------------------------------------------

    def run(self, scheduler, simulator, patterns, fault_list, key):
        """Incremental equivalent of ``scheduler.run(...)`` (or of
        ``simulator.run(...)`` when *scheduler* is None).

        Returns ``(result, info)``: a :class:`FaultSimResult`
        bit-identical to the from-scratch run, plus the hit/invalidation
        counters (``record_hit``, ``groups_total``, ``groups_restored``,
        ``groups_invalidated``, ``faults_restored``,
        ``faults_resimulated``, ``strict_checks``).
        """
        info = {"record_hit": False, "groups_total": 0,
                "groups_restored": 0, "groups_invalidated": 0,
                "faults_restored": 0, "faults_resimulated": 0,
                "strict_checks": 0}
        n = len(fault_list)
        if patterns.count == 0 or n == 0:
            result = self._full_run(scheduler, simulator, patterns,
                                    fault_list)
            self._note(info)
            return result, info

        observed = sorted(simulator.observed)
        record = self._load(key, observed)
        info["record_hit"] = record is not None
        schedule = self._schedule_for(simulator)

        groups = {}
        for index, fault in enumerate(fault_list):
            groups.setdefault(schedule.seed_net(fault), []).append(index)
        info["groups_total"] = len(groups)

        # Project the pattern set onto each distinct support once per
        # *pattern set* — the context caches projections (and unpacked
        # per-net bit rows) across runs, so a campaign's stage-5 re-walk
        # of the stage-3 patterns projects nothing at all.
        context = self._projection_context(patterns)
        group_proj = {}
        pair_cache = {}
        flags = [True] * n   # True: needs re-simulation
        words = [0] * n
        rec_supports = record["supports"] if record else {}
        rec_groups = record["groups"] if record else {}

        for seed, members in groups.items():
            support = schedule.support_of(seed)
            proj = self._project_in(context, support)
            group_proj[seed] = proj
            restored = record is not None and self._restore_group(
                seed, members, fault_list, proj, rec_supports, rec_groups,
                flags, words, info, pair_cache)
            if record is not None and not restored:
                info["groups_invalidated"] += 1

        # Exclusive prefix-sum over the needs-resim flags: offsets[i] is
        # fault i's slot in the dense re-simulation worklist, offsets[n]
        # its total length (stream compaction — the live-fault arrays
        # stay dense however restoration and dropping thin them).
        offsets = [0] * (n + 1)
        for i in range(n):
            offsets[i + 1] = offsets[i] + (1 if flags[i] else 0)
        resim_count = offsets[n]
        restored_count = n - resim_count
        info["faults_resimulated"] = resim_count
        info["faults_restored"] = restored_count

        if resim_count == n:
            result = self._full_run(scheduler, simulator, patterns,
                                    fault_list, restored=0)
            words = list(result.detection_words)
        else:
            if resim_count:
                dense = [None] * resim_count
                for i in range(n):
                    if flags[i]:
                        dense[offsets[i]] = fault_list[i]
                sub_result = self._full_run(
                    scheduler, simulator, patterns,
                    FaultList(simulator.netlist, dense),
                    restored=restored_count)
                for i in range(n):
                    if flags[i]:
                        words[i] = sub_result.detection_words[offsets[i]]
            firsts = [(w & -w).bit_length() - 1 if w else None
                      for w in words]
            result = FaultSimResult(fault_list, patterns.count, words,
                                    firsts)

        if self.mode == "strict" and restored_count:
            info["strict_checks"] += 1
            self._strict_check(result, scheduler, simulator, patterns,
                               fault_list)

        self._store(key, record, observed, groups, group_proj, fault_list,
                    words, flags, pair_cache)
        self._note(info)
        return result, info

    # -- record load / integrity -----------------------------------------

    def _load(self, key, observed):
        """The validated record for *key*, or None (missing, stale, or
        corrupt — corruption is counted and the entry deleted)."""
        stats = self.cache.stats
        before = stats.get("corrupt", 0)
        payload = self.cache.get(key)
        delta = stats.get("corrupt", 0) - before
        if delta and self.metrics is not None:
            self.metrics.bump("cache.corrupt", delta)
        if payload is None:
            return None
        if (not isinstance(payload, dict)
                or payload.get("format") != FAULT_STATE_VERSION):
            return None  # stale layout: ignore silently
        body = {field: payload.get(field)
                for field in ("format", "observed", "supports", "groups")}
        if (payload.get("checksum") != _sha256_of(body)
                or not isinstance(body["supports"], dict)
                or not isinstance(body["groups"], dict)):
            self.cache.report_corrupt(key)
            if self.metrics is not None:
                self.metrics.bump("cache.corrupt")
            return None
        if payload["observed"] != observed:
            return None  # different observation point: not this record
        return payload

    # -- projection ------------------------------------------------------

    def _projection_context(self, patterns):
        """The (cross-run) projection context for *patterns*.

        Keyed by pattern *content*, so a bit-identical pattern set
        reconstructed elsewhere (e.g. stage 5 re-deriving the stage-3
        patterns from a cached tracing artifact) shares the context.  A
        short FIFO bounds memory across many distinct pattern sets.
        """
        key = (patterns.count, tuple(sorted(patterns.packed.items())))
        context = self._proj_contexts.get(key)
        if context is None:
            context = {"patterns": patterns, "rows": {}, "projections": {}}
            self._proj_contexts[key] = context
            while len(self._proj_contexts) > 4:
                self._proj_contexts.pop(next(iter(self._proj_contexts)))
        return context

    @staticmethod
    def _project_in(context, support):
        """Project the context's pattern set onto *support* (memoized).

        Returns ``(nets, value_masks, values, vkeys, pos_of)``: the
        sorted support nets, a map from each distinct support-restricted
        value (bit ``b`` = value of ``nets[b]``) to the packed mask of
        patterns showing it, the distinct values sorted ascending, their
        record keys, and per pattern index the position of its value in
        the sorted list (the store-side scatter map).
        """
        proj = context["projections"].get(support)
        if proj is not None:
            return proj
        patterns = context["patterns"]
        nets = sorted(support)
        mask = patterns.mask
        count = patterns.count
        if _np is not None:
            # Vectorized bit transpose: unpack each support net's packed
            # word into a row of pattern bits (cached per net — supports
            # overlap heavily), repack column-wise so row k reads out
            # pattern k's support-restricted value (bit b of the value =
            # nets[b], as in the scalar path), then group the distinct
            # rows in C via np.unique.
            num_bytes = (count + 7) // 8
            row_cache = context["rows"]
            rows = _np.empty((len(nets), count), dtype=_np.uint8)
            for bit, net in enumerate(nets):
                row = row_cache.get(net)
                if row is None:
                    word = patterns.packed.get(net, 0) & mask
                    raw = _np.frombuffer(
                        word.to_bytes(num_bytes, "little"),
                        dtype=_np.uint8)
                    row = _np.unpackbits(raw, bitorder="little")[:count]
                    row_cache[net] = row
                rows[bit] = row
            packed = _np.packbits(rows.T, axis=1, bitorder="little")
            row_bytes = packed.tobytes()
            width = packed.shape[1]
            # Group patterns by their (hashable) value bytes; only the
            # distinct values ever become Python ints.
            index_by_bytes = {}
            masks = []
            slot_of = []
            for k in range(count):
                raw = row_bytes[k * width:(k + 1) * width]
                slot = index_by_bytes.get(raw)
                if slot is None:
                    slot = len(masks)
                    index_by_bytes[raw] = slot
                    masks.append(0)
                masks[slot] |= 1 << k
                slot_of.append(slot)
            uvals = [int.from_bytes(raw, "little")
                     for raw in index_by_bytes]
            value_masks = dict(zip(uvals, masks))
            # Canonical ascending-integer order (what the scalar path
            # and the record layout use).
            order = sorted(range(len(uvals)), key=uvals.__getitem__)
            values = [uvals[j] for j in order]
            rank = [0] * len(uvals)
            for pos, j in enumerate(order):
                rank[j] = pos
            pos_of = [rank[j] for j in slot_of]
        else:
            per_pattern = [0] * count
            for bit, net in enumerate(nets):
                word = patterns.packed.get(net, 0) & mask
                if word:
                    flag = 1 << bit
                    for k in iter_set_bits(word):
                        per_pattern[k] |= flag
            value_masks = {}
            for k, value in enumerate(per_pattern):
                value_masks[value] = value_masks.get(value, 0) | (1 << k)
            values = sorted(value_masks)
            position = {value: pos for pos, value in enumerate(values)}
            pos_of = [position[value] for value in per_pattern]
        vkeys = [_vkey(value) for value in values]
        proj = (nets, value_masks, values, vkeys, pos_of)
        context["projections"][support] = proj
        return proj

    # -- restore ---------------------------------------------------------

    def _restore_group(self, seed, members, fault_list, proj, rec_supports,
                       rec_groups, flags, words, info, pair_cache):
        """Restore one cone group's detection words from the record.

        Returns True when the group matched (support nets identical and
        every current projected value known to the record); individual
        faults the record never saw stay flagged for re-simulation.

        *pair_cache* memoizes the (record position, pattern mask) table
        per (support entry, projection) — groups sharing a support share
        the table, which is where warm-run time would otherwise go.
        """
        entry = rec_groups.get(str(seed))
        if entry is None:
            return False
        skey = entry.get("skey")
        cache_key = (skey, id(proj))
        if cache_key in pair_cache:
            table = pair_cache[cache_key]
        else:
            table = None
            sup_entry = rec_supports.get(skey)
            nets, value_masks, values, vkeys, __pos = proj
            if sup_entry is not None and sup_entry.get("nets") == nets:
                index_of = {vk: pos for pos, vk in
                            enumerate(sup_entry.get("values", []))}
                try:
                    # Keyed by the *bit* (1 << record position) so the
                    # per-fault loop below walks only the set bits of the
                    # detection mask — no per-position big-int shifts.
                    low_to_pmask = {
                        1 << index_of[vk]: value_masks[value]
                        for vk, value in zip(vkeys, values)}
                except KeyError:
                    low_to_pmask = None  # a value the record never saw
                if low_to_pmask is not None:
                    current = 0
                    for low in low_to_pmask:
                        current |= low
                    table = (low_to_pmask, current)
            pair_cache[cache_key] = table
        if table is None:
            return False
        low_to_pmask, current = table
        sites = entry.get("sites", {})
        for i in members:
            detmask = sites.get(fault_site_key(fault_list[i]))
            if detmask is None:
                continue  # new fault in a known group: re-simulate it
            remaining = int(detmask, 16) & current
            word = 0
            while remaining:
                low = remaining & -remaining
                word |= low_to_pmask[low]
                remaining ^= low
            words[i] = word
            flags[i] = False
        info["groups_restored"] += 1
        return True

    # -- store -----------------------------------------------------------

    def _store(self, key, record, observed, groups, group_proj, fault_list,
               words, flags, pair_cache):
        """Fold this run's detection state into the record and persist it.

        A group none of whose members were re-simulated and whose current
        values are all known to the record keeps its recorded entry
        verbatim (it is a valid superset — detections are value-keyed).
        A group whose recorded value list matches this run's exactly is
        merged in place (old sites kept, current ones overwritten);
        otherwise the group is snapshotted fresh from this run only.
        Groups not touched by this run are retained verbatim — the same
        record serves the remaining-list and full-list evaluations of a
        PTP.  Support entries are immutable (their key covers nets *and*
        values); unreferenced ones are pruned at the end.  A run that
        changes nothing — the common fully-restored warm re-run — skips
        the write entirely.
        """
        supports = dict(record["supports"]) if record else {}
        out_groups = dict(record["groups"]) if record else {}
        dirty = record is None
        for seed, members in groups.items():
            nets, value_masks, values, vkeys, pos_of = group_proj[seed]
            gkey = str(seed)
            entry = out_groups.get(gkey)
            untouched = not any(flags[i] for i in members)
            if untouched and entry is not None and pair_cache.get(
                    (entry.get("skey"), id(group_proj[seed]))) is not None:
                # The restore pass already proved every current value is
                # known to the recorded entry: it is a valid superset.
                continue
            sup_entry = supports.get(entry["skey"]) if entry else None
            nets_match = (sup_entry is not None
                          and sup_entry.get("nets") == nets)
            rec_values = sup_entry.get("values") if nets_match else None
            if (nets_match and untouched
                    and set(vkeys) <= set(rec_values or ())):
                continue  # restored verbatim from a superset: no change
            if nets_match and rec_values == vkeys:
                sites = dict(entry.get("sites", {}))
                skey = entry["skey"]
            else:
                sites = {}
                skey = _support_key(nets, vkeys)
                supports[skey] = {"nets": nets, "values": vkeys}
            for i in members:
                detmask = 0
                for k in iter_set_bits(words[i]):
                    detmask |= 1 << pos_of[k]
                sites[fault_site_key(fault_list[i])] = format(detmask, "x")
            new_entry = {"skey": skey, "sites": sites}
            if new_entry != entry:
                dirty = True
            out_groups[gkey] = new_entry
        referenced = {entry["skey"] for entry in out_groups.values()}
        pruned = {skey: sup for skey, sup in supports.items()
                  if skey in referenced}
        if len(pruned) != len(supports):
            dirty = True
        if not dirty:
            return
        body = {"format": FAULT_STATE_VERSION, "observed": observed,
                "supports": pruned, "groups": out_groups}
        body["checksum"] = _sha256_of(
            {field: body[field]
             for field in ("format", "observed", "supports", "groups")})
        self.cache.put(key, body)

    # -- plumbing --------------------------------------------------------

    def _schedule_for(self, simulator):
        """The propagation schedule for *simulator*'s netlist.

        The first schedule seen per netlist is adopted and pinned (the
        event engine's own instance when one exists, else a fresh build)
        so the per-seed ``support_of`` memo survives across the several
        simulator instances a pipeline run constructs — stage-5 FC
        evaluation builds throwaway simulators, and recomputing supports
        for every fault group each time dwarfs the restore itself."""
        netlist = simulator.netlist
        entry = self._schedules.get(id(netlist))
        if entry is not None and entry[0] is netlist:
            return entry[1]
        event = getattr(simulator, "_event", None)
        schedule = (event.schedule if event is not None
                    else PropagationSchedule(netlist))
        self._schedules[id(netlist)] = (netlist, schedule)
        return schedule

    @staticmethod
    def _full_run(scheduler, simulator, patterns, fault_list,
                  restored=None):
        if scheduler is not None:
            return scheduler.run(simulator, patterns, fault_list,
                                 restored=restored)
        return simulator.run(patterns, fault_list)

    def _strict_check(self, result, scheduler, simulator, patterns,
                      fault_list):
        """The strict-mode oracle: re-simulate everything from scratch
        and require bit-identity with the restored result."""
        reference = self._full_run(scheduler, simulator, patterns,
                                   fault_list)
        mismatches = sum(
            1 for ours, theirs in zip(result.detection_words,
                                      reference.detection_words)
            if ours != theirs)
        if mismatches or (result.first_detection
                          != reference.first_detection):
            raise IncrementalError(
                "strict incremental check failed: {} of {} detection "
                "word(s) differ from the from-scratch re-simulation"
                .format(mismatches, len(fault_list)))

    def _note(self, info):
        if self.metrics is not None:
            self.metrics.record_incremental(info)
