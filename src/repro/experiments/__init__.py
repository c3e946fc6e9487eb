"""Experiment drivers — one per table/figure of the paper's §8.

Every driver exposes ``run(config: ExperimentConfig | None = None, ...)``
returning an :class:`~repro.experiments.reporting.ExperimentResult` whose
rows mirror the corresponding paper artifact; the benchmark suite under
``benchmarks/`` executes and prints them.
"""

from repro.experiments import (
    fig2_runtime,
    fig3_time_vs_effort,
    fig4_probability_histogram,
    fig5_uncertainty_precision,
    fig6_guidance,
    fig7_erroneous_input,
    fig8_skipping,
    fig9_early_termination,
    fig10_static_batch,
    fig11_dynamic_batch,
    stream_update_time,
    table1_mistake_detection,
    table2_stream_order,
    table3_deployment,
)
from repro.experiments.reporting import ExperimentResult, series_at_grid
from repro.experiments.runner import (
    DATASETS,
    DEFAULT_SCALES,
    ExperimentConfig,
    build_database,
    make_process,
    run_to_precision,
)

#: All experiment modules keyed by their paper artifact.
EXPERIMENTS = {
    "fig2": fig2_runtime,
    "fig3": fig3_time_vs_effort,
    "fig4": fig4_probability_histogram,
    "fig5": fig5_uncertainty_precision,
    "fig6": fig6_guidance,
    "fig7": fig7_erroneous_input,
    "fig8": fig8_skipping,
    "fig9": fig9_early_termination,
    "fig10": fig10_static_batch,
    "fig11": fig11_dynamic_batch,
    "stream_time": stream_update_time,
    "table1": table1_mistake_detection,
    "table2": table2_stream_order,
    "table3": table3_deployment,
}

__all__ = [
    "DATASETS",
    "DEFAULT_SCALES",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "build_database",
    "make_process",
    "run_to_precision",
    "series_at_grid",
]
