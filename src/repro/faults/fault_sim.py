"""Bit-parallel single-stuck-at fault simulation with fault dropping.

This is the reproduction of the paper's "optimized GL fault simulation"
(stage 3): the fault list belongs to ONE target module, observability is the
module's outputs (module-level fault observability, [25] in the paper), and
the simulator records, for every fault, the first pattern (= clock cycle)
that detects it.  The per-pattern counts of those first detections form the
*Fault Sim Report* consumed by the instruction-labeling stage.

All patterns are simulated at once per fault: net values are packed integers
(bit ``k`` = value under pattern ``k``), so a fault's full detection word
costs one traversal of its fanout cone.  :meth:`FaultSimulator.run` keeps
only each word's lowest set bit (the first detection);
:meth:`FaultSimulator.detection_words` is the one call that returns the
words themselves, for the readers that need every detecting pattern.

Each engine has one per-fault propagation step (``engine=`` argument picks
it), in two parts: a reach prune against the observer's nets, and the
effect over one pattern set, which returns the fault's faulty values and
changed nets, or nothing when no pattern excites the fault.  The two parts
keep the ``stats`` counters:

* ``"event"`` (default, the production engine) — the event-driven
  frontier of :mod:`repro.faults.propagate`: a fault advances level by
  level through a precomputed schedule and stops the moment its effect
  dies out; a fault whose cone head cannot reach an observed net is
  pruned before it is propagated.
* ``"cone"`` — the reference oracle: the classic static cone walk visits
  every gate in the fault's transitive fanout, whether or not the effect
  is still alive.  The differential tests and the strict static-prune
  cross-check compare against it.

Two observers read the step.  :meth:`FaultSimulator.run` and
:meth:`FaultSimulator.detection_words` OR the differences on the module
outputs into each fault's detection word.
:meth:`FaultSimulator.run_signature` (signature-per-thread observability)
splits the patterns into one sequence-ordered set per thread, then
propagates each fault thread by thread, folds the differences on the
result bus through that thread's MISR model, and stops at the first
thread whose signature differs; it keeps only the fault's verdict, so no
fault's diffs outlive it.

Both engines are bit-identical (same detection words, first detections,
and signature verdicts); the event engine only trims execution
redundancy.  The ``stats`` counters (gates evaluated/skipped,
inactive/pruned faults) make that redundancy observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultSimError
from ..netlist.gates import evaluate
from ..netlist.simulator import LogicSimulator
from .fault import OUTPUT_PIN, FaultList
from .propagate import EventDrivenEngine

#: Valid values of ``FaultSimulator(engine=...)``.
ENGINES = ("event", "cone")


@dataclass
class FaultSimResult:
    """Outcome of one fault simulation run with fault dropping.

    Attributes:
        fault_list: the simulated :class:`~repro.faults.fault.FaultList`.
        pattern_count: number of simulated patterns.
        first_detection: per-fault index of the first detecting pattern, or
            None when undetected.
    """

    fault_list: FaultList
    pattern_count: int
    first_detection: list

    @classmethod
    def from_words(cls, fault_list, pattern_count, words):
        """The result whose first detections are the lowest set bits of
        *words* (an iterable of per-fault packed detection words, read
        once)."""
        return cls(fault_list, pattern_count,
                   [(word & -word).bit_length() - 1 if word else None
                    for word in words])

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

    def detections_per_pattern(self):
        """Number of faults first detected at each pattern index (the Fault
        Sim Report's counts: each fault counts once, at its first
        detecting pattern)."""
        counts = [0] * self.pattern_count
        for first in self.first_detection:
            if first is not None:
                counts[first] += 1
        return counts


class FaultSimulator:
    """Module-level stuck-at fault simulator.

    The observation point is every primary output of *netlist*
    (module-level observability); :meth:`run_signature` reads the result
    bus it is given instead.

    Args:
        netlist: finalized target-module netlist.
        engine: ``"event"`` (default) or the ``"cone"`` reference — see
            the module docstring.  Results are bit-identical either way.

    Attributes:
        stats: cumulative propagation counters across every run of this
            simulator — ``gates_evaluated`` (gate evaluations during
            propagation), ``gates_skipped`` (static-cone gates the event
            engine never touched; 0 for the cone walk); both count per
            propagation, which :meth:`run_signature` makes once per
            fault and visited thread.  ``faults_inactive`` (no simulated
            pattern excites the fault) and ``faults_pruned`` (event
            engine: cone head cannot reach any observed net) count once
            per fault and run.
    """

    def __init__(self, netlist, engine="event"):
        netlist.finalize()
        self.netlist = netlist
        if engine not in ENGINES:
            raise FaultSimError("unknown engine {!r}; expected one of {}"
                                .format(engine, ENGINES))
        self.engine = engine
        self._logic = LogicSimulator(netlist)
        self._cone_cache = {}
        # Structure-of-arrays view of gates for the cone-walk hot loop.
        self._gate_type = [g.gate_type for g in netlist.gates]
        self._gate_inputs = [g.inputs for g in netlist.gates]
        self._gate_output = [g.output for g in netlist.gates]
        if engine == "event":
            self._event = EventDrivenEngine(netlist)
            self._pruned = self._pruned_event
            self._effect = self._effect_event
        else:
            self._pruned = _never_pruned
            self._effect = self._effect_cone
        self._observed_targets = frozenset(netlist.outputs)
        self._good_values_cache = (None, None)
        self.stats = {"gates_evaluated": 0, "gates_skipped": 0,
                      "faults_inactive": 0, "faults_pruned": 0}

    def _cone(self, net):
        cone = self._cone_cache.get(net)
        if cone is None:
            cone = self.netlist.cone_from_net(net)
            self._cone_cache[net] = cone
        return cone

    def _net_list(self, values):
        """Net-indexed list of a {net: packed value} dict."""
        net_list = [0] * self.netlist.num_nets
        for net, value in values.items():
            net_list[net] = value
        return net_list

    def good_values(self, patterns):
        """Net-indexed list of the good-machine values for *patterns*,
        memoized on the pattern set's identity (a set never changes after
        it is built, and the memo holds a strong reference, so the
        identity stays valid).  Chunked runs lean on this: the
        scheduler computes the values once before it forks its workers,
        which inherit the memo, and a pipeline whose stage 5
        re-evaluates its stage-3 pattern set pays the logic simulation
        once, not twice."""
        cached_patterns, cached_good = self._good_values_cache
        if cached_patterns is not patterns:
            cached_good = self._net_list(self._logic.run(patterns))
            self._good_values_cache = (patterns, cached_good)
        return cached_good

    def run(self, patterns, fault_list=None):
        """Simulate *fault_list* (default: full collapsed list) over
        *patterns* and return a :class:`FaultSimResult`; each fault's
        word is reduced to its first detection as it is computed."""
        if fault_list is None:
            fault_list = FaultList(self.netlist)
        return FaultSimResult.from_words(fault_list, patterns.count,
                                         self._words(patterns, fault_list))

    def detection_words(self, patterns, fault_list=None):
        """Per-fault packed detection words of *fault_list* (default: full
        collapsed list) over *patterns*: bit ``k`` of a fault's word is set
        when pattern ``k`` propagates it to an observed output.  The same
        propagation as :meth:`run`, for the readers that need every
        detecting pattern rather than the first."""
        if fault_list is None:
            fault_list = FaultList(self.netlist)
        return list(self._words(patterns, fault_list))

    def _words(self, patterns, fault_list):
        """Each fault's detection word, one fault at a time."""
        if patterns.count == 0:
            yield from [0] * len(fault_list)
            return
        mask = patterns.mask
        good = self.good_values(patterns)
        observed = self._observed_targets
        pruned, effect_of = self._pruned, self._effect
        stats = self.stats
        for fault in fault_list:
            word = 0
            if not pruned(fault, observed):
                effect = effect_of(fault, good, mask)
                if effect is None:
                    stats["faults_inactive"] += 1
                else:
                    faulty, changed = effect
                    for net in changed:
                        if net in observed:
                            word |= faulty[net] ^ good[net]
            yield word

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

        Each thread's signature depends only on that thread's patterns, and
        single-stuck-at patterns of a combinational module are independent.
        So the pattern set is split once into one sequence-ordered set per
        thread, with its own good-machine values, and each fault is
        propagated and folded thread by thread until the first thread whose
        signature differs.  A fault is reach-pruned once, before its first
        thread; patterns that belong to no thread are never simulated.

        Args:
            patterns: the PTP's pattern set, in application order.
            fault_list: faults to simulate.
            result_word: net list (LSB first) of the module's result bus.
            thread_sequences: {thread_key: ordered pattern index list} from
                :meth:`PatternReport.thread_sequences`.
            misr_width: signature width (default: len(result_word)).

        Returns:
            A per-fault bool list of SpT detectability.

        Raises:
            IndexError: a sequence holds an index outside *patterns*.
        """
        width = misr_width or len(result_word)

        # The MISR masks every folded result to `width` bits
        # (``misr_update``): result-bus bits at positions >= width never
        # enter the signature, so only the first `width` result nets are
        # folded (``_misr_detects`` needs every result bit below width).
        fold_word = result_word[:width]
        fold_bits = {}
        for i, net in enumerate(fold_word):
            fold_bits.setdefault(net, []).append(i)
        targets = frozenset(fold_word)

        # Per thread: its patterns in sequence order, their good values,
        # and the sequence length.
        threads = []
        for sequence in thread_sequences.values():
            if not sequence:
                continue
            thread_patterns = patterns.subset(sequence)
            good = self._net_list(self._logic.run(thread_patterns))
            threads.append((thread_patterns.mask, good, len(sequence)))

        pruned, effect_of = self._pruned, self._effect
        stats = self.stats
        signature_detected = []
        for fault in fault_list:
            detected = False
            if not pruned(fault, targets):
                excited = False
                for mask, good, length in threads:
                    effect = effect_of(fault, good, mask)
                    if effect is None:
                        continue
                    excited = True
                    faulty, changed = effect
                    diffs = {}
                    for net in changed:
                        bits = fold_bits.get(net)
                        if bits is not None:
                            diff = faulty[net] ^ good[net]
                            for i in bits:
                                diffs[i] = diff
                    if diffs and _misr_detects(diffs, length, width):
                        detected = True
                        break
                if not excited:
                    stats["faults_inactive"] += 1
            signature_detected.append(detected)
        return signature_detected

    # -- single-fault propagation ------------------------------------------
    #
    # Two parts per engine.  ``_pruned(fault, targets)`` is True (and
    # counted) when the fault cannot reach any of *targets*.
    # ``_effect(fault, good, mask)`` returns ``(faulty, changed)`` — the
    # faulty values, indexable by every net in ``changed`` — or None when
    # no pattern excites the fault; it keeps the gate counters.

    def _pruned_event(self, fault, targets):
        """Event engine: does *fault*'s cone head reach none of *targets*?"""
        schedule = self._event.schedule
        seed = schedule.seed_net(fault)
        if schedule.reach_from(targets)[seed]:
            return False
        self.stats["faults_pruned"] += 1
        self.stats["gates_skipped"] += schedule.cone_size(seed)
        return True

    def _effect_event(self, fault, good, mask):
        """Event engine: advance the frontier."""
        engine = self._event
        faulty, changed = engine.propagate(fault, good, mask)
        if changed is None:
            return None
        evaluated = engine.last_evaluated
        stats = self.stats
        stats["gates_evaluated"] += evaluated
        # changed[0] is the seed net: the frontier starts there.
        stats["gates_skipped"] += engine.schedule.cone_size(
            changed[0]) - evaluated
        return faulty, changed

    def _effect_cone(self, fault, good, mask):
        """Cone walk: the whole static cone."""
        changed = self._propagate_fault(fault, good, mask)
        return (changed, changed) if changed else None

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
        return changed


def _never_pruned(fault, targets):
    """The cone walk prunes nothing."""
    return False


def _misr_detects(diffs, length, width):
    """Does one fault's result-bus difference survive one thread's MISR
    fold?

    *diffs* maps each result bit to its per-pattern diff word over the
    thread's *length* patterns.  By XOR linearity the signature
    difference XORs result bit ``i`` of position ``p`` into signature bit
    ``(i + length - 1 - p) % width``.  Shifted left by
    ``-length % width``, the positions of one signature offset share
    their residue mod *width*, so XORing a diff word's *width*-bit chunks
    gives, at bit ``j``, the parity of the positions that land
    ``width - 1 - j`` above ``i``.  Rotating that right by ``i`` gives the
    bit-reversed signature contribution of result bit ``i``, and the XOR
    of the contributions is zero exactly when the signature difference
    is.
    """
    shift = -length % width
    word_mask = (1 << width) - 1
    total = 0
    for i, diff in diffs.items():
        chunks = diff << shift
        while chunks >> width:
            half = (-(-chunks.bit_length() // width) // 2) * width
            chunks = (chunks & ((1 << half) - 1)) ^ (chunks >> half)
        if i:
            chunks = ((chunks >> i) | (chunks << (width - i))) & word_mask
        total ^= chunks
    return total != 0
