"""Experiment harness regenerating every table and figure of the paper.

Each experiment module exposes a ``run_*`` function returning a typed
result object with a ``render()`` method that prints the same
rows/series the paper reports:

* :mod:`repro.experiments.figure2` — privacy vs load factor (Fig. 2);
* :mod:`repro.experiments.table1` — Sioux Falls error ratios (Table I);
* :mod:`repro.experiments.figure4` — baseline accuracy sweep (Fig. 4);
* :mod:`repro.experiments.figure5` — VLM accuracy sweep (Fig. 5);
* :mod:`repro.experiments.accuracy_analysis` — Section V closed forms
  vs Monte-Carlo;
* :mod:`repro.experiments.ablations` — design-choice ablations.

``python -m repro.cli <experiment>`` drives them from the shell.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AdaptiveMatrixResult": ".adaptive_sizing",
        "AdaptiveSizingResult": ".adaptive_sizing",
        "run_adaptive_matrix": ".adaptive_sizing",
        "run_adaptive_sizing": ".adaptive_sizing",
        "CalibrationResult": ".calibration",
        "run_calibration": ".calibration",
        "Figure1Result": ".figure1",
        "run_figure1": ".figure1",
        "ScalingResult": ".scaling",
        "run_scaling": ".scaling",
        "MatrixResult": ".sioux_falls_matrix",
        "run_sioux_falls_matrix": ".sioux_falls_matrix",
        "AttackResilienceResult": ".attack_resilience",
        "run_attack_resilience": ".attack_resilience",
        "MultiPeriodResult": ".multiperiod",
        "run_multiperiod": ".multiperiod",
        "TradeoffResult": ".tradeoff",
        "run_tradeoff": ".tradeoff",
        "Figure2Result": ".figure2",
        "run_figure2": ".figure2",
        "Table1Result": ".table1",
        "run_table1": ".table1",
        "SweepResult": ".sweep",
        "run_figure4": ".figure4",
        "run_figure5": ".figure5",
        "AccuracyAnalysisResult": ".accuracy_analysis",
        "run_accuracy_analysis": ".accuracy_analysis",
        "AblationResult": ".ablations",
        "run_ablations": ".ablations",
    },
)
