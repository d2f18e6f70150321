"""Physical execution: the columnar batch executor and the reference
evaluator.

Plans produced by the optimizer (or built by hand) execute against the
stored tables, charging page IO with exactly the formulas the cost model
estimates with — spills, rescans, and materializations included — so
estimated IO and executed IO can be put side by side (experiment E12). The
columnar batch executor (:func:`execute_plan`, or :func:`compile_plan`
once and :meth:`Executable.run` per execution) is the one execution
path; :mod:`repro.engine.reference` remains the optimizer-free ground
truth for answers, and the cost model under a run's actual counts
(:func:`repro.testing.exactio.exact_io`) the oracle for its page IO.
"""

from .batch import DEFAULT_BATCH_SIZE, ColumnBatch
from .context import ExecutionContext, Result
from .executor import Executable, compile_plan, execute_plan
from .metrics import ExecutionMetrics, OperatorMetrics
from .reference import evaluate_block, evaluate_canonical, rows_equal_bag

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
    "evaluate_block",
    "evaluate_canonical",
    "rows_equal_bag",
]
