"""Thermodynamics of coherently switched thermalizing channels.

A small numpy library simulating a two-level working substance routed through
two equal-temperature thermalizing channels in a quantum superposition of the
two orderings.  Post-selecting the control qubit heats or cools the substance
even though both reservoirs share one temperature; conditioning a cycle on
the cooling outcome yields a measurement-driven refrigerator whose only cost
is erasing the demon's memory.

The top level holds the documented API: what the README and the demos
import, and the records and exceptions those functions return or raise.
Everything else stays importable from its own module.
"""

from .linalg import (
    TOL,
    DensityMatrix,
    ValidationError,
    kron,
    partial_trace,
    random_density_matrix,
)
from .thermo import (
    PostSelection,
    TwoLevelHamiltonian,
    effective_temperature,
    thermal_state,
)
from .channels import (
    AncillaState,
    apply_channel,
    compose,
    make_quantum_switch,
    make_thermalizing_channel,
    switch_closed_form,
    validate_cptp,
)
from .circuit import (
    build_switch_circuit,
    cswap,
    cswap_to_toffoli,
    thermal_prep_angle,
    verify_against_kraus,
    verify_grid,
)
from .fridge import (
    CycleParams,
    CycleReport,
    DegenerateCycleError,
    IcoPoint,
    MonteCarloStats,
    ico_point,
    ico_sweep,
    monte_carlo,
    run_cycle,
    sweep,
)

__version__ = "0.1.0"
