"""Power-system study toolkit for hybrid AC- and DC-bus vessels.

Modules:
    grid        typed single-line-diagram model and validation
    gridfile    plain-text grid file parser / serializer
    fixtures    the two built-in vessel grids
    powerflow   Newton-Raphson AC load flow and DC power balance
    sc_ac       decrement-curve AC short-circuit method
    sc_dc       DC fault-current synthesis (RLC link, battery, converters)
    tdsim       time-domain simulation, battery controllers, CCT search
    protection  breaker coordination, lock signals, fuse I^2t clearing
    report      deterministic CSV/text artifact writers
    cli         the `vessel-study` command line
"""

from .fixtures import builtin_fixture
from .grid import (
    BatterySource,
    BreakerSpec,
    Bus,
    CableBranch,
    CapacitorBranch,
    ConverterSpec,
    FuseSpec,
    GeneratorDynamicParams,
    GeneratorSpec,
    GridError,
    GridModel,
    InputError,
    LoadSpec,
    LongTimeElement,
    NumericalError,
    ShortTimeElement,
    TccCurve,
    ValidationReport,
    validate,
)
from .gridfile import GridParseError, parse_grid, serialize_grid
from .powerflow import (
    DcBalanceSolution,
    OperatingPoint,
    PowerflowSolution,
    SteadyState,
    prefault_operating_point,
    solve_ac_powerflow,
    solve_dc_balance,
)
from .sc_ac import (
    AcScTrace,
    FaultSummary,
    convert_time_constants,
    fault_summary,
    machine_sc_trace,
    motor_group_sc_trace,
    short_circuit_time_constants,
    vfd_contribution,
)
from .sc_dc import (
    DcFaultSummary,
    DcScTrace,
    battery_sc_trace,
    capacitor_sc_trace,
    converter_sc_contribution,
    dc_fault_summary,
)
from .protection import (
    SelectivityReport,
    TripEvent,
    apply_zsi,
    build_breaker_graph,
    fuse_i2t_clearing,
    let_through,
    selectivity_check,
    sequence_of_operations,
    trip_time,
)
from .tdsim import (
    CctFaultSpec,
    CctResult,
    ControllerConfig,
    ControllerState,
    Event,
    EventSchedule,
    SimConfig,
    TimeSeries,
    find_cct,
    peak_shave_setpoint,
    simulate,
)

__version__ = "0.1.0"
