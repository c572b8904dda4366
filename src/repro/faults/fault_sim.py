"""Bit-parallel single-stuck-at fault simulation with per-pattern records.

This is the reproduction of the paper's "optimized GL fault simulation"
(stage 3): the fault list belongs to ONE target module, observability is the
module's outputs (module-level fault observability, [25] in the paper), and
the simulator records, for every fault, the first pattern (= clock cycle)
that detects it.  The per-pattern detection counts form the *Fault Sim
Report* consumed by the instruction-labeling stage.

All patterns are simulated at once per fault: net values are packed integers
(bit ``k`` = value under pattern ``k``), so a fault's full detection word
costs one traversal of its fanout cone.

Two propagation engines compute that traversal (``engine=`` argument):

* ``"event"`` (default, the production engine) — the event-driven
  frontier of :mod:`repro.faults.propagate`: faults advance level by
  level through a precomputed schedule and stop the moment the fault
  effect dies out; faults are grouped by cone head so per-head setup is
  shared.
* ``"cone"`` — the reference oracle: the classic static cone walk visits
  every gate in the fault's transitive fanout, whether or not the effect
  is still alive.  The differential tests and the strict static-prune
  cross-check compare against it.

Both engines are bit-identical (same detection words, first detections,
and signature verdicts); the event engine only trims execution
redundancy.  The ``stats`` counters (gates evaluated/visited/skipped,
inactive/pruned faults) make that redundancy observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultSimError
from ..netlist.gates import evaluate
from ..netlist.simulator import LogicSimulator, iter_set_bits  # noqa: F401
from .fault import OUTPUT_PIN, FaultList
from .propagate import EventDrivenEngine

#: Valid values of ``FaultSimulator(engine=...)``.
ENGINES = ("event", "cone")


@dataclass
class FaultSimResult:
    """Outcome of one fault simulation run.

    Attributes:
        fault_list: the simulated :class:`~repro.faults.fault.FaultList`.
        pattern_count: number of simulated patterns.
        detection_words: per-fault packed detection word (bit ``k`` set when
            pattern ``k`` propagates the fault to an observed output).
        first_detection: per-fault index of the first detecting pattern, or
            None when undetected.
    """

    fault_list: FaultList
    pattern_count: int
    detection_words: list
    first_detection: list

    @property
    def detected_faults(self):
        """List of detected :class:`~repro.faults.fault.StuckAtFault`."""
        return [f for f, first in zip(self.fault_list, self.first_detection)
                if first is not None]

    @property
    def undetected_faults(self):
        return [f for f, first in zip(self.fault_list, self.first_detection)
                if first is None]

    @property
    def num_detected(self):
        return sum(1 for first in self.first_detection if first is not None)

    def coverage(self, total=None):
        """Fault coverage in percent (against *total* or the list size)."""
        denom = total if total is not None else len(self.fault_list)
        if denom == 0:
            return 0.0
        return 100.0 * self.num_detected / denom

    def detections_per_pattern(self, dropping=True):
        """Number of faults detected at each pattern index.

        With *dropping* (the paper's configuration), each fault is counted
        only at its first detecting pattern; otherwise at every detecting
        pattern.
        """
        counts = [0] * self.pattern_count
        if dropping:
            for first in self.first_detection:
                if first is not None:
                    counts[first] += 1
        else:
            for word in self.detection_words:
                for index in iter_set_bits(word):
                    counts[index] += 1
        return counts

    def detecting_patterns(self, dropping=True):
        """Set of pattern indices that detect at least one fault."""
        if dropping:
            return {first for first in self.first_detection
                    if first is not None}
        hits = set()
        for word in self.detection_words:
            hits.update(iter_set_bits(word))
        return hits


class FaultSimulator:
    """Module-level stuck-at fault simulator.

    Args:
        netlist: finalized target-module netlist.
        observed_outputs: optional subset of output nets used as the
            observation point; defaults to all primary outputs
            (module-level observability).
        engine: ``"event"`` (default) or the ``"cone"`` reference — see
            the module docstring.  Results are bit-identical either way.

    Attributes:
        stats: cumulative propagation counters across every run of this
            simulator — ``gates_evaluated`` (gate evaluations during
            propagation), ``gates_visited`` (gates touched at all:
            equals evaluations for the event engine, the full static
            cone for the cone engine), ``gates_skipped``
            (static-cone gates the engine never touched),
            ``faults_inactive`` (activation check failed),
            ``faults_pruned`` (event engine: cone head cannot reach any
            observation point).
    """

    def __init__(self, netlist, observed_outputs=None, engine="event"):
        netlist.finalize()
        self.netlist = netlist
        if observed_outputs is None:
            observed_outputs = list(netlist.outputs)
        unknown = [n for n in observed_outputs if n not in set(
            netlist.outputs)]
        if unknown:
            raise FaultSimError("observed nets {} are not outputs"
                                .format(unknown))
        if engine not in ENGINES:
            raise FaultSimError("unknown engine {!r}; expected one of {}"
                                .format(engine, ENGINES))
        self.observed = list(observed_outputs)
        self.engine = engine
        self._logic = LogicSimulator(netlist)
        self._cone_cache = {}
        # Structure-of-arrays view of gates for the cone-walk hot loop.
        self._gate_type = [g.gate_type for g in netlist.gates]
        self._gate_inputs = [g.inputs for g in netlist.gates]
        self._gate_output = [g.output for g in netlist.gates]
        self._event = EventDrivenEngine(netlist) if engine == "event" else None
        self._observed_targets = frozenset(self.observed)
        self._good_cache = (None, None, None)
        self._targets_cache = (None, None, None)
        self._good_values_cache = (None, None, None)
        self.stats = {"gates_evaluated": 0, "gates_visited": 0,
                      "gates_skipped": 0, "faults_inactive": 0,
                      "faults_pruned": 0}

    def _cone(self, net):
        cone = self._cone_cache.get(net)
        if cone is None:
            cone = self.netlist.cone_from_net(net)
            self._cone_cache[net] = cone
        return cone

    def _good_as_list(self, good):
        """Net-indexed list view of a good-machine value dict (memoized on
        the dict identity plus length — callers reuse one dict across many
        faults, and a same-identity dict that gained entries is stale)."""
        cached_good, cached_len, cached_list = self._good_cache
        if cached_good is not good or cached_len != len(good):
            cached_list = [0] * self.netlist.num_nets
            for net, value in good.items():
                cached_list[net] = value
            self._good_cache = (good, len(good), cached_list)
        return cached_list

    def _targets_for(self, observed_set):
        """Frozenset view of *observed_set* (memoized on identity plus
        length, the closest thing a plain set has to a mutation stamp)."""
        cached_set, cached_len, cached_frozen = self._targets_cache
        if cached_set is not observed_set or cached_len != len(observed_set):
            cached_frozen = frozenset(observed_set)
            self._targets_cache = (observed_set, len(observed_set),
                                   cached_frozen)
        return cached_frozen

    def good_values(self, patterns):
        """Good-machine net values for *patterns*, memoized on the pattern
        set's identity **and mutation version** (the cache holds a strong
        reference, so the identity stays valid; the version counter
        invalidates it when the same set object gains patterns through
        ``add``/``add_words`` after being cached).  Chunk-resumable runs
        lean on this: a pooled worker simulating many fault chunks of one
        pattern set pays the logic simulation once, not once per chunk."""
        version = getattr(patterns, "version", 0)
        cached_patterns, cached_version, cached_good = \
            self._good_values_cache
        if cached_patterns is not patterns or cached_version != version:
            cached_good = self._logic.run(patterns)
            self._good_values_cache = (patterns, version, cached_good)
        return cached_good

    def run(self, patterns, fault_list=None):
        """Simulate *fault_list* (default: full collapsed list) over
        *patterns* and return a :class:`FaultSimResult`."""
        if fault_list is None:
            fault_list = FaultList(self.netlist)
        if patterns.count == 0:
            empty = [0] * len(fault_list)
            return FaultSimResult(fault_list, 0, empty,
                                  [None] * len(fault_list))
        mask = patterns.mask
        good = self.good_values(patterns)
        observed_set = set(self.observed)

        if self.engine == "event":
            detection_words = self._run_event(fault_list, good, mask,
                                              observed_set)
        else:
            detection_words = [
                self._simulate_fault(fault, good, mask, observed_set)
                for fault in fault_list]
        first_detection = [(word & -word).bit_length() - 1 if word else None
                           for word in detection_words]
        return FaultSimResult(fault_list, patterns.count, detection_words,
                              first_detection)

    def _run_event(self, fault_list, good, mask, observed_set):
        """Event-driven detection words for *fault_list*, grouped by cone
        head so per-head setup (activation good word, observability reach,
        static cone size) is computed once per group."""
        engine = self._event
        schedule = engine.schedule
        good_list = self._good_as_list(good)
        reach = schedule.reach_from(self._observed_targets)
        stats = self.stats
        gate_output = schedule.gate_output

        groups = {}
        for index, fault in enumerate(fault_list):
            seed = (fault.net if fault.pin == OUTPUT_PIN
                    else gate_output[fault.gate])
            entry = groups.get(seed)
            if entry is None:
                groups[seed] = [(index, fault)]
            else:
                entry.append((index, fault))

        words = [0] * len(fault_list)
        for seed, members in groups.items():
            if not reach[seed]:
                # No observation point in this head's cone: every member
                # is undetectable, whatever its activation.
                stats["faults_pruned"] += len(members)
                stats["gates_skipped"] += (schedule.cone_size(seed)
                                           * len(members))
                continue
            good_seed = good_list[seed]
            cone = schedule.cone_size(seed)
            for index, fault in members:
                if fault.pin == OUTPUT_PIN:
                    seed_value = mask if fault.stuck_at else 0
                    if seed_value == good_seed:
                        stats["faults_inactive"] += 1
                        continue
                else:
                    seed_value = engine.seed_value(fault, good_list, mask)
                    if seed_value is None:
                        stats["faults_inactive"] += 1
                        continue
                faulty, changed = engine.advance(seed, seed_value,
                                                 good_list, mask)
                evaluated = engine.last_evaluated
                stats["gates_evaluated"] += evaluated
                stats["gates_visited"] += evaluated
                stats["gates_skipped"] += cone - evaluated
                word = 0
                for net in changed:
                    if net in observed_set:
                        word |= faulty[net] ^ good_list[net]
                words[index] = word
        return words

    def run_signature(self, patterns, fault_list, result_word,
                      thread_sequences, misr_width=None):
        """Fault simulation under signature-per-thread (SpT) observability.

        A fault is detected when, for at least one thread, the MISR fold of
        its per-pattern *result_word* differences is non-zero at the end of
        the thread's update sequence (``sig = rotl(sig, 1) ^ result``; by
        XOR linearity the final-signature difference is the rotation-fold
        of the per-step result differences).  Faults whose differences
        cancel in the fold *alias* and go undetected — the mechanism behind
        the paper's SP-core FC deltas.

        Args:
            patterns: the PTP's pattern set, in application order.
            fault_list: faults to simulate.
            result_word: net list (LSB first) of the module's result bus.
            thread_sequences: {thread_key: ordered pattern index list} from
                :meth:`PatternReport.thread_sequences`.
            misr_width: signature width (default: len(result_word)).

        Returns:
            (result, signature_detected): the module-output
            :class:`FaultSimResult` plus a per-fault bool list of SpT
            detectability.
        """
        width = misr_width or len(result_word)
        mask = patterns.mask
        good = self.good_values(patterns)
        observed_set = set(self.observed)

        # The MISR masks every folded result to `width` bits
        # (``misr_update``): result-bus bits at positions >= width never
        # enter the signature, so only the first `width` result nets are
        # folded.  (Folding the full bus let diff bits ``1 << i`` for
        # ``i >= width`` escape ``word_mask`` on the rotation-0 path and
        # produced spurious SpT detections.)
        fold_word = result_word[:width]

        # Per-thread rotation-class masks: pattern at position p of an
        # n-long sequence is rotated by (n - 1 - p) mod width in the fold.
        class_masks = {}
        thread_masks = {}
        for key, sequence in thread_sequences.items():
            classes = [0] * width
            total = 0
            n = len(sequence)
            for position, k in enumerate(sequence):
                rotation = (n - 1 - position) % width
                classes[rotation] |= 1 << k
                total |= 1 << k
            class_masks[key] = classes
            thread_masks[key] = total

        if self.engine == "event":
            targets = self._observed_targets | frozenset(fold_word)
            effects = [self._fault_effects_event(fault, good, mask,
                                                 observed_set, fold_word,
                                                 targets)
                       for fault in fault_list]
        else:
            effects = [self._fault_effects_cone(fault, good, mask,
                                                observed_set, fold_word)
                       for fault in fault_list]

        word_mask = (1 << width) - 1
        detection_words = []
        first_detection = []
        signature_detected = []
        for word, diffs in effects:
            detection_words.append(word)
            first_detection.append((word & -word).bit_length() - 1
                                   if word else None)
            detected = False
            if diffs:
                union = 0
                for __, diff in diffs:
                    union |= diff
                for key, classes in class_masks.items():
                    if union & thread_masks[key] == 0:
                        continue
                    total = 0
                    for rotation in range(width):
                        class_mask = classes[rotation]
                        if class_mask == 0 or union & class_mask == 0:
                            continue
                        value = 0
                        for i, diff in diffs:
                            overlap = diff & class_mask
                            if overlap and _parity(overlap):
                                value |= 1 << i
                        if value:
                            rotated = ((value << rotation) |
                                       (value >> (width - rotation))
                                       ) & word_mask if rotation else value
                            total ^= rotated
                    if total:
                        detected = True
                        break
            signature_detected.append(detected)
        result = FaultSimResult(fault_list, patterns.count, detection_words,
                                first_detection)
        return result, signature_detected

    # -- single-fault propagation ------------------------------------------

    def _fault_effects_cone(self, fault, good, mask, observed_set,
                            fold_word):
        """(detection word, result-bus diffs) via the cone walk."""
        changed = self._propagate_fault(fault, good, mask)
        word = 0
        for net, value in changed.items():
            if net in observed_set:
                word |= value ^ good[net]
        diffs = [(i, changed[net] ^ good[net])
                 for i, net in enumerate(fold_word) if net in changed]
        return word, diffs

    def _fault_effects_event(self, fault, good, mask, observed_set,
                             fold_word, targets):
        """(detection word, result-bus diffs) via the event engine."""
        engine = self._event
        schedule = engine.schedule
        good_list = self._good_as_list(good)
        stats = self.stats
        seed = schedule.seed_net(fault)
        if not schedule.reach_from(targets)[seed]:
            stats["faults_pruned"] += 1
            stats["gates_skipped"] += schedule.cone_size(seed)
            return 0, []
        faulty, changed = engine.propagate(fault, good_list, mask)
        if changed is None:
            stats["faults_inactive"] += 1
            return 0, []
        evaluated = engine.last_evaluated
        stats["gates_evaluated"] += evaluated
        stats["gates_visited"] += evaluated
        stats["gates_skipped"] += schedule.cone_size(seed) - evaluated
        word = 0
        for net in changed:
            if net in observed_set:
                word |= faulty[net] ^ good_list[net]
        diffs = [(i, faulty[net] ^ good_list[net])
                 for i, net in enumerate(fold_word)
                 if faulty[net] != good_list[net]]
        return word, diffs

    def _simulate_fault(self, fault, good, mask, observed_set):
        """Detection word of one fault under *observed_set* (dispatches on
        the configured engine)."""
        if self.engine == "event":
            engine = self._event
            schedule = engine.schedule
            good_list = self._good_as_list(good)
            stats = self.stats
            seed = schedule.seed_net(fault)
            targets = self._targets_for(observed_set)
            if not schedule.reach_from(targets)[seed]:
                stats["faults_pruned"] += 1
                stats["gates_skipped"] += schedule.cone_size(seed)
                return 0
            faulty, changed = engine.propagate(fault, good_list, mask)
            if changed is None:
                stats["faults_inactive"] += 1
                return 0
            evaluated = engine.last_evaluated
            stats["gates_evaluated"] += evaluated
            stats["gates_visited"] += evaluated
            stats["gates_skipped"] += schedule.cone_size(seed) - evaluated
            word = 0
            for net in changed:
                if net in observed_set:
                    word |= faulty[net] ^ good_list[net]
            return word
        changed = self._propagate_fault(fault, good, mask)
        word = 0
        for net, value in changed.items():
            if net in observed_set:
                word |= value ^ good[net]
        return word

    def _propagate_fault(self, fault, good, mask):
        """Cone-walk propagation: visit every gate of *fault*'s static
        fanout cone; returns {net: faulty_value} for every net whose packed
        value differs from the good machine."""
        stuck_word = mask if fault.stuck_at else 0
        changed = {}
        stats = self.stats
        gate_type = self._gate_type
        gate_inputs = self._gate_inputs
        gate_output = self._gate_output

        if fault.pin == OUTPUT_PIN:
            if stuck_word == good[fault.net]:
                stats["faults_inactive"] += 1
                return changed
            changed[fault.net] = stuck_word
            cone = self._cone(fault.net)
        else:
            # Input-pin fault: only this gate sees the stuck value.
            g = fault.gate
            ins = list(gate_inputs[g])
            values = [good[n] for n in ins]
            values[fault.pin] = stuck_word
            out = evaluate(gate_type[g], tuple(values), mask)
            out_net = gate_output[g]
            if out == good[out_net]:
                stats["faults_inactive"] += 1
                return changed
            changed[out_net] = out
            cone = self._cone(out_net)

        evaluated = 0
        for g in cone:
            ins = gate_inputs[g]
            hit = False
            for n in ins:
                if n in changed:
                    hit = True
                    break
            if not hit:
                continue
            evaluated += 1
            values = tuple(changed.get(n, good[n]) for n in ins)
            out = evaluate(gate_type[g], values, mask)
            out_net = gate_output[g]
            if out != good[out_net]:
                changed[out_net] = out
            elif out_net in changed:
                del changed[out_net]
        stats["gates_evaluated"] += evaluated
        stats["gates_visited"] += len(cone)
        return changed


def _parity(value):
    """Parity (XOR reduction) of the set bits of *value*."""
    return value.bit_count() & 1
