"""Basic blocks, control-flow graph, and natural-loop detection.

Stage 1 of the compaction method partitions each PTP into Basic Blocks —
"a group of instructions that are always executed in sequence (no in/out
jumps or loops in the BB)"; in the GPU case, "a group of embarrassingly
parallel plain sequences of SIMD or SIMT instructions" (Section III) — and
analyzes the control flow graph to find loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.opcodes import Fmt, Op, info


@dataclass
class BasicBlock:
    """One basic block: instruction indices ``[start, end)``."""

    index: int
    start: int
    end: int
    successors: list = field(default_factory=list)
    predecessors: list = field(default_factory=list)

    def __contains__(self, pc):
        return self.start <= pc < self.end

    @property
    def size(self):
        return self.end - self.start


def find_leaders(instructions):
    """Instruction indices that start a basic block."""
    if not instructions:
        return []
    leaders = {0}
    for pc, instr in enumerate(instructions):
        if instr.op in (Op.BRA, Op.CAL):
            leaders.add(instr.target)
            if pc + 1 < len(instructions):
                leaders.add(pc + 1)
        elif instr.op in (Op.RET, Op.EXIT):
            if pc + 1 < len(instructions):
                leaders.add(pc + 1)
        elif instr.op is Op.SSY:
            # The SSY target is the reconvergence point: a JOIN that both
            # divergent paths reach, hence a control join = block leader.
            leaders.add(instr.target)
    return sorted(leaders)


@dataclass
class ControlFlowGraph:
    """CFG over the basic blocks of one instruction sequence."""

    blocks: list
    block_of_pc: list  # pc -> block index

    def block_at(self, pc):
        return self.blocks[self.block_of_pc[pc]]

    @property
    def num_blocks(self):
        return len(self.blocks)


def build_cfg(instructions):
    """Build the :class:`ControlFlowGraph` of *instructions*."""
    instructions = list(instructions)
    leaders = find_leaders(instructions)
    blocks = []
    for i, start in enumerate(leaders):
        end = leaders[i + 1] if i + 1 < len(leaders) else len(instructions)
        blocks.append(BasicBlock(index=i, start=start, end=end))

    block_of_pc = [0] * len(instructions)
    for block in blocks:
        for pc in range(block.start, block.end):
            block_of_pc[pc] = block.index

    for block in blocks:
        if block.size == 0:
            continue
        last_pc = block.end - 1
        last = instructions[last_pc]
        succs = []
        if last.op is Op.BRA:
            succs.append(block_of_pc[last.target])
            if last.pred is not None and last_pc + 1 < len(instructions):
                succs.append(block_of_pc[last_pc + 1])
        elif last.op is Op.CAL:
            succs.append(block_of_pc[last.target])
            # The call returns to the fall-through block.
            if last_pc + 1 < len(instructions):
                succs.append(block_of_pc[last_pc + 1])
        elif last.op in (Op.EXIT, Op.RET):
            pass
        elif last_pc + 1 < len(instructions):
            succs.append(block_of_pc[last_pc + 1])
        for succ in succs:
            if succ not in block.successors:
                block.successors.append(succ)
                blocks[succ].predecessors.append(block.index)
    return ControlFlowGraph(blocks=blocks, block_of_pc=block_of_pc)


def find_back_edges(cfg):
    """(tail, head) block-index pairs forming loop back edges (DFS)."""
    back_edges = []
    color = ["white"] * cfg.num_blocks  # white / grey / black
    stack = [(0, iter(cfg.blocks[0].successors))] if cfg.blocks else []
    color[0] = "grey" if cfg.blocks else None
    while stack:
        node, it = stack[-1]
        advanced = False
        for succ in it:
            if color[succ] == "grey":
                back_edges.append((node, succ))
            elif color[succ] == "white":
                color[succ] = "grey"
                stack.append((succ, iter(cfg.blocks[succ].successors)))
                advanced = True
                break
        if not advanced:
            color[node] = "black"
            stack.pop()
    return back_edges


def natural_loop(cfg, tail, head):
    """Block indices of the natural loop for back edge *tail* -> *head*.

    Standard worklist algorithm: the body is the head plus every block that
    reaches the tail without passing through the head (the head's own
    predecessors are never explored, which also handles single-block loops
    where ``tail == head``).
    """
    body = {head}
    worklist = [tail]
    while worklist:
        node = worklist.pop()
        if node in body:
            continue
        body.add(node)
        worklist.extend(cfg.blocks[node].predecessors)
    return body


def find_loops(cfg):
    """List of loops, each a dict with 'head', 'tail', and 'body' keys."""
    loops = []
    for tail, head in find_back_edges(cfg):
        loops.append({
            "head": head,
            "tail": tail,
            "body": natural_loop(cfg, tail, head),
        })
    return loops


def defining_instructions(instructions, reg):
    """Instruction indices that may write GPR *reg*."""
    return [pc for pc, instr in enumerate(instructions)
            if reg in instr.regs_written()]


def is_immediate_only_def(instructions, pc, _depth=0):
    """True when the value written at *pc* derives only from immediates.

    Conservative recursive check used by the parametric-loop analysis: a
    definition is immediate-only when the instruction is MOV32I, or all of
    its source registers are themselves defined solely by immediate-only
    definitions (bounded recursion; anything else, including memory loads
    and special registers, is runtime-parametric).
    """
    instr = instructions[pc]
    if instr.op is Op.MOV32I:
        return True
    if _depth > 8:
        return False
    if info(instr.op).fmt in (Fmt.LD, Fmt.CONSTLD, Fmt.RSREG):
        return False
    reads = instr.regs_read()
    if not reads and instr.op is not Op.MOV32I:
        return False
    for reg in reads:
        defs = [d for d in defining_instructions(instructions, reg)
                if d < pc]
        if not defs:
            return False
        if not all(is_immediate_only_def(instructions, d, _depth + 1)
                   for d in defs):
            return False
    return True
