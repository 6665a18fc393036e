"""Measurement-accuracy analysis (paper Section V).

* :mod:`repro.accuracy.moments` — mean/variance of the zero-bit
  fractions ``V_x``, ``V_y``, ``V_c`` under the paper's binomial
  approximation (Eqs. 12-13, 19-22);
* :mod:`repro.accuracy.taylor` — the Taylor moments of ``ln V``
  (Eqs. 24-31);
* :mod:`repro.accuracy.occupancy` — *exact* second moments (variances
  and all three covariances) from the joint occupancy model, which the
  paper only sketches via Eq. (35);
* :mod:`repro.accuracy.bias` — ``E[n̂_c]`` and the bias of
  ``n̂_c / n_c`` (Eqs. 32-33);
* :mod:`repro.accuracy.variance` — ``Var(n̂_c)`` and the standard
  deviation of ``n̂_c / n_c`` (Eqs. 34-36) via the delta method over
  the exact moments;
* :mod:`repro.accuracy.montecarlo` — empirical bias/stddev by direct
  simulation, the ground truth the closed forms are tested against.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "fisher_information_binomial": ".fisher",
        "cramer_rao_bound_binomial": ".fisher",
        "super_efficiency": ".fisher",
        "mean_v": ".moments",
        "var_v_binomial": ".moments",
        "mean_ln_v": ".taylor",
        "var_ln_v": ".taylor",
        "PairMoments": ".occupancy",
        "exact_pair_moments": ".occupancy",
        "expected_estimate": ".bias",
        "relative_bias": ".bias",
        "estimator_variance": ".variance",
        "estimator_stddev": ".variance",
        "MonteCarloAccuracy": ".montecarlo",
        "simulate_accuracy": ".montecarlo",
    },
)
