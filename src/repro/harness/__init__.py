"""Regenerators for every table and figure in the paper's evaluation.

Names resolve lazily from their submodules (PEP 562, :mod:`repro._lazy`),
so ``repro table 6`` loads the table builders without the figure
builders, and the model-vs-paper scorecard loads only where a caller
scores the model.  The scorecard lives at ``repro.harness.scorecard``
(``Score``, ``scorecard()``); it is not re-exported here, because the
function would shadow its own submodule's name.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FIGURE_BUILDERS",
    "FigureResult",
    "TABLE_BUILDERS",
    "TableResult",
    "build_figure",
    "build_table",
    "export_all",
    "render_csv",
    "render_table",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".export": ("export_all",),
        ".figures": ("FIGURE_BUILDERS", "FigureResult", "build_figure"),
        ".report": ("render_csv", "render_table"),
        ".tables": ("TABLE_BUILDERS", "TableResult", "build_table"),
    },
)
