"""Thermodynamics of coherently switched thermalizing channels.

A small numpy library simulating a two-level working substance routed through
two equal-temperature thermalizing channels in a quantum superposition of the
two orderings.  Post-selecting the control qubit heats or cools the substance
even though both reservoirs share one temperature; conditioning a cycle on
the cooling outcome yields a measurement-driven refrigerator whose only cost
is erasing the demon's memory.
"""

from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    Tolerances,
    ValidationError,
    dagger,
    fidelity,
    hermitian_eig,
    is_hermitian,
    kron,
    partial_trace,
    psd_sqrt,
    random_density_matrix,
    symmetrize,
)
from .thermo import (
    OUTCOMES,
    PostSelection,
    TwoLevelHamiltonian,
    effective_temperature,
    internal_energy,
    post_select,
    shannon_entropy,
    thermal_state,
)
from .channels import (
    AncillaState,
    CptpReport,
    QuantumChannel,
    apply_channel,
    compose,
    identity_channel,
    make_quantum_switch,
    make_thermalizing_channel,
    switch_closed_form,
    validate_cptp,
)
from .circuit import (
    Gate,
    QubitRegister,
    apply_gate,
    build_switch_circuit,
    cswap,
    cswap_to_toffoli,
    crush,
    embed_unitary,
    fresh_register,
    gate_unitary,
    ry,
    swap,
    thermal_prep_angle,
    toffoli,
    verify_against_kraus,
    x_gate,
)
from .fridge import (
    CycleParams,
    CycleReport,
    DegenerateCycleError,
    IcoPoint,
    MonteCarloStats,
    RNG_ALGORITHM,
    ico_point,
    ico_sweep,
    monte_carlo,
    run_cycle,
    sweep,
    work_of_erasure,
)

__version__ = "0.1.0"
