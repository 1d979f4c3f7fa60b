"""Result formatting: ASCII tables, terminal plots, CSV export.

The benchmark harness uses these to print the same rows/series the
paper's tables and figures report.
"""

from repro._surface import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "RunInterval": "repro.analysis.timeline",
    "Timeline": "repro.analysis.timeline",
    "ascii_series_plot": "repro.analysis.ascii_plot",
    "attach_timeline": "repro.analysis.timeline",
    "format_table": "repro.analysis.tables",
    "write_csv": "repro.analysis.export",
})
