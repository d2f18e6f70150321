"""IO-only cost model and Selinger-style cardinality estimation.

"The optimization algorithm that we present minimizes IO cost. This is a
reasonable criteria in the context of decision-support applications"
(Section 5). Costs count 4096-byte page reads and writes; the physical
operators in :mod:`repro.engine` charge the *same* formulas against
actual intermediate sizes, so estimated and executed IO are directly
comparable (experiment E12 quantifies the gap).
"""

from .params import CostParams
from .cardinality import CardinalityEstimator
from .model import CostModel, PlanProps

__all__ = ["CostParams", "CardinalityEstimator", "CostModel", "PlanProps"]
