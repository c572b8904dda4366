"""Prior-work compaction baseline for the cost/quality comparison.

The paper's headline advantage is needing ONE fault simulation per PTP
where prior CPU-oriented techniques need one per candidate removal
([13]-[16]).  The iterative remove-and-resimulate baseline makes that
comparison measurable on identical PTPs and modules.
"""

from .iterative import IterativeOutcome, compact_iteratively

__all__ = ["compact_iteratively", "IterativeOutcome"]
