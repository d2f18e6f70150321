"""Physical execution: the columnar batch executor, the row-at-a-time
baseline, and the reference evaluator.

Plans produced by the optimizer (or built by hand) execute against the
stored tables, charging page IO with exactly the formulas the cost model
estimates with — spills, rescans, and materializations included — so
estimated IO and executed IO can be put side by side (experiment E12). The
columnar batch executor (:func:`execute_plan`, or :func:`compile_plan`
once and :meth:`Executable.run` per execution) is the one production
path; the seed interpreter (:func:`execute_plan_rows`) is kept as the
differential baseline that must charge identical page IO, and
:mod:`repro.engine.reference` remains the optimizer-free ground truth.
"""

from .batch import DEFAULT_BATCH_SIZE, ColumnBatch
from .context import ExecutionContext, Result
from .executor import Executable, compile_plan, execute_plan
from .metrics import ExecutionMetrics, OperatorMetrics
from .reference import evaluate_block, evaluate_canonical, rows_equal_bag
from .rowexec import execute_plan_rows

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ColumnBatch",
    "Executable",
    "ExecutionContext",
    "ExecutionMetrics",
    "OperatorMetrics",
    "Result",
    "compile_plan",
    "execute_plan",
    "execute_plan_rows",
    "evaluate_block",
    "evaluate_canonical",
    "rows_equal_bag",
]
