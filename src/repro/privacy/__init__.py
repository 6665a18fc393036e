"""Preserved-privacy analysis (paper Section VI).

* :mod:`repro.privacy.formulas` — closed forms for ``P(A)`` and the
  preserved privacy ``p = P(E|A)`` (Eqs. 37-43);
* :mod:`repro.privacy.optimizer` — numerical search for the optimal
  load factor ``f*`` and for privacy-constrained parameter choices;
* :mod:`repro.privacy.attacker` — an empirical tracker that measures
  privacy on simulated bit arrays, validating the closed forms.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "preserved_privacy": ".formulas",
        "preserved_privacy_exact": ".formulas",
        "prob_both_set": ".formulas",
        "prob_both_set_exact": ".formulas",
        "prob_e_x": ".formulas",
        "prob_e_y": ".formulas",
        "optimal_load_factor": ".optimizer",
        "max_load_factor_for_privacy": ".optimizer",
        "privacy_curve": ".optimizer",
        "empirical_privacy": ".attacker",
    },
)
