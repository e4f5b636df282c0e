"""Absorption rates for beams of massive particles, from first principles.

The package builds sparse Fock states over a finite plane-wave basis,
applies ladder and field operators literally, and exposes closed-form
first- and second-order absorption rates together with a brute-force
enumeration oracle that validates them.
"""

from .fock_core import (
    FockState,
    ParameterError,
    SlotKey,
    Statistics,
    annihilate,
    create,
    inner_product,
    vacuum,
)
from .field_ops import (
    ModeBasis,
    Wavepacket,
    apply_packet_creation,
    field_annihilate,
    lowest_mode_numbers,
    mean_kinetic_energy,
    mode_wavefunction,
    packet_state,
    two_particle_state,
)
from .medium import (
    MediumChannel,
    MediumModel,
    ResonanceError,
    channel_weight,
    efficiency_factor,
)
from .perturbation import (
    AbsorptionInput,
    IndistinguishableFermionsError,
    RateBatch,
    evaluate_inputs,
    evaluate_rates,
    log_log_slope,
    proportionality_exponent,
    rate_first_order,
    rate_second_order,
)
from .oracle import (
    first_order_amplitude,
    second_order_amplitude,
    single_absorption_vacuum_overlap,
)
from .verify import TrialRecord, record_blocks
from .cli_io import (
    ConfigError,
    ExperimentConfig,
    emit_csv,
    parse_config,
    run_scan,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionInput",
    "ConfigError",
    "ExperimentConfig",
    "FockState",
    "IndistinguishableFermionsError",
    "MediumChannel",
    "MediumModel",
    "ModeBasis",
    "ParameterError",
    "RateBatch",
    "ResonanceError",
    "SlotKey",
    "Statistics",
    "TrialRecord",
    "Wavepacket",
    "annihilate",
    "apply_packet_creation",
    "channel_weight",
    "create",
    "efficiency_factor",
    "emit_csv",
    "evaluate_inputs",
    "evaluate_rates",
    "field_annihilate",
    "first_order_amplitude",
    "inner_product",
    "log_log_slope",
    "lowest_mode_numbers",
    "mean_kinetic_energy",
    "mode_wavefunction",
    "packet_state",
    "parse_config",
    "proportionality_exponent",
    "rate_first_order",
    "rate_second_order",
    "record_blocks",
    "run_scan",
    "second_order_amplitude",
    "single_absorption_vacuum_overlap",
    "two_particle_state",
    "vacuum",
]
