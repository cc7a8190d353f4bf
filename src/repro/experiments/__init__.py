"""Experiment drivers: one module per reproduced figure/table.

Each module exposes a ``run(...)`` function returning a plain result
object and registers an :class:`repro.runner.ExperimentSpec` into the
central registry, so the CLI, the unit tests, the examples and the
sweep runner all execute exactly the same code path.  Importing this package populates the registry; resolve
experiments with :func:`repro.runner.resolve` (by CLI name, module name
or paper id) instead of importing driver modules directly.

| id | paper artifact                                   | module                    |
|----|--------------------------------------------------|---------------------------|
| E1 | Fig. 1 power breakdown                           | ``fig1_power_breakdown``  |
| E2 | Fig. 2 battery-life survey                       | ``fig2_battery_survey``   |
| E3 | Fig. 3 battery life vs data rate                 | ``fig3_battery_projection``|
| E4 | Wi-R vs BLE / RF claims table                    | ``claims``                |
| E5 | Partitioned DNN inference across the body network| ``partitioned_inference`` |
| E6 | Perpetual operation with harvesting              | ``perpetual``             |
| E7 | ISA / compression ablation                       | ``isa_ablation``          |
| E8 | Body-bus scaling (number of leaf nodes)          | ``network_scaling``       |
| E9 | EQS receiver-termination ablation                | ``termination_ablation``  |
| E10| Activation-precision / partition ablation        | ``quantization_ablation`` |
| E11| Charging burden vs number of wearables           | ``charging_burden``       |
| E12| MQS-HBC implant extension (future work)          | ``implant_extension``     |
| E13| Scenario gallery (MAC policies, link mixes)      | ``scenario_gallery``      |
| E14| Population-scale cohort study                    | ``cohort_study``          |
| E15| Closed-loop lifetime (DES vs closed form)        | ``lifetime``              |
| E16| Link margin vs delivery / retransmission energy  | ``reliability``           |
| E17| Energy-optimal source-coding rate per device class| ``coding``               |
| E18| Crowded-room occupancy sweep with per-node control| ``crowd``                |
"""

from . import (
    charging_burden,
    coding,
    cohort_study,
    crowd,
    implant_extension,
    claims,
    fig1_power_breakdown,
    fig2_battery_survey,
    fig3_battery_projection,
    isa_ablation,
    lifetime,
    network_scaling,
    partitioned_inference,
    perpetual,
    quantization_ablation,
    reliability,
    scenario_gallery,
    termination_ablation,
)

__all__ = [
    "fig1_power_breakdown",
    "fig2_battery_survey",
    "fig3_battery_projection",
    "claims",
    "partitioned_inference",
    "perpetual",
    "isa_ablation",
    "network_scaling",
    "termination_ablation",
    "quantization_ablation",
    "charging_burden",
    "implant_extension",
    "scenario_gallery",
    "cohort_study",
    "lifetime",
    "reliability",
    "coding",
    "crowd",
]
