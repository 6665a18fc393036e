"""Transportation-engineering applications of the measurement scheme.

The paper's introduction motivates point-to-point volumes as "essential
input to a variety of transportation studies such as estimating traffic
link flow distribution for investment plan, calculating road exposure
rates for safety analysis, and characterizing turning movements at
intersections for signal timing determination".  This package
implements those three downstream studies on top of the measured
point/point-to-point volumes, so the library delivers the inputs *and*
the studies:

* :mod:`repro.apps.link_flows` — link flow distribution over a road
  network from measured adjacent-pair volumes;
* :mod:`repro.apps.exposure` — road exposure (vehicle-kilometres
  travelled) per segment and network-wide, for safety analysis;
* :mod:`repro.apps.turning_movements` — through/turning volume shares
  at an intersection from the measured volumes of its approaches.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "LinkFlowStudy": ".link_flows",
        "measure_link_flows": ".link_flows",
        "ExposureStudy": ".exposure",
        "measure_exposure": ".exposure",
        "ScreenlineStudy": ".screenline",
        "measure_screenline": ".screenline",
        "TurningMovementStudy": ".turning_movements",
        "measure_turning_movements": ".turning_movements",
    },
)
