"""Built-in vessel grids.

Two fixtures ship with the package: a cable-laying vessel with a
three-section 690 V AC propulsion busbar, and a superyacht with a split DC
main bus.  Generator nameplate data comes from manufacturer datasheets; the
machine dynamic parameters, cable impedances and battery data of the AC
vessel are synthetic (flagged as such) because no datasheet values are
published for them.
"""

from __future__ import annotations

from .grid import (
    AC,
    DC,
    BatterySource,
    BreakerSpec,
    Bus,
    CableBranch,
    ConverterSpec,
    GeneratorDynamicParams,
    GeneratorSpec,
    GridLookupError,
    GridModel,
    LoadSpec,
    LongTimeElement,
    FuseSpec,
    ShortTimeElement,
    TccCurve,
)

FIXTURE_NAMES = ("ac_vessel", "dc_vessel")

# Synthetic dynamic data; plausible marine genset figures, not datasheet values.
_AC_DYNAMICS = dict(xd=1.8, xd_t=0.28, xd_st=0.18,
                    td0_t=3.5, td0_st=0.04, tdc=0.15,
                    damping=2.0, synthetic=True)
_DC_DYNAMICS = dict(xd=2.0, xd_t=0.25, xd_st=0.16,
                    td0_t=1.8, td0_st=0.03, tdc=0.08,
                    inertia_h=0.8, damping=2.0, synthetic=True)


def builtin_fixture(name: str) -> GridModel:
    if name == "ac_vessel":
        return _ac_vessel()
    if name == "dc_vessel":
        return _dc_vessel()
    raise GridLookupError(f"unknown fixture {name!r} (have {FIXTURE_NAMES})")


def _tcc(rated_a: float, st_mult: float) -> TccCurve:
    return TccCurve(
        long_time=LongTimeElement(pickup=2.5 * rated_a, kind="definite",
                                  delay=10.0),
        short_time=ShortTimeElement(pickup=st_mult * rated_a, delay=0.216),
        zsi_extended_delay=0.1,
    )


def _ac_vessel() -> GridModel:
    buses = (
        Bus("AC_PS", AC, 690.0, 60.0),
        Bus("AC_MID", AC, 690.0, 60.0),
        Bus("AC_SB", AC, 690.0, 60.0),
        Bus("LV_PS", AC, 440.0, 60.0),
        Bus("LV_SB", AC, 440.0, 60.0),
        # battery DC links behind the two bidirectional inverters (synthetic)
        Bus("BATDC_PS", DC, 900.0),
        Bus("BATDC_SB", DC, 900.0),
    )

    def gen(gid, bus, kva, kw, current, rpm, r_mohm, h):
        return GeneratorSpec(
            id=gid, bus=bus, rated_kva=kva, rated_kw=kw, voltage=690.0,
            rated_current=current, frequency=60.0, power_factor=0.80,
            speed_rpm=rpm, winding_resistance_mohm=r_mohm,
            dynamics=GeneratorDynamicParams(inertia_h=h, **_AC_DYNAMICS),
        )

    generators = (
        gen("DG#01", "AC_PS", 2395.0, 1916.0, 2004.0, 720.0, 1.02, 1.2),
        gen("DG#02", "AC_PS", 3213.0, 2570.0, 2688.0, 720.0, 0.70, 1.4),
        gen("DG#03", "AC_SB", 3213.0, 2570.0, 2688.0, 720.0, 0.70, 1.4),
        gen("DG#04", "AC_SB", 2395.0, 1916.0, 2004.0, 720.0, 1.02, 1.2),
        gen("DG#05", "AC_MID", 1713.0, 1370.0, 1433.0, 1800.0, 1.46, 1.0),
    )

    batteries = (
        # short-circuit data synthetic (no datasheet published)
        BatterySource("BAT_PS", "BATDC_PS", 12000.0, 0.2e-3),
        BatterySource("BAT_SB", "BATDC_SB", 12000.0, 0.2e-3),
    )

    converters = (
        # 1500 kW bidirectional battery inverters (1 C charge/discharge)
        ConverterSpec("INV_PS", "BATDC_PS", "inverter", 1255.0, 1500.0,
                      ac_bus="AC_PS"),
        ConverterSpec("INV_SB", "BATDC_SB", "inverter", 1255.0, 1500.0,
                      ac_bus="AC_SB"),
        # thruster drives, pf 0.85
        ConverterSpec("THR_BOW1", "AC_PS", "inverter", 984.0, 1000.0),
        ConverterSpec("THR_BOW2", "AC_MID", "inverter", 984.0, 1000.0),
        ConverterSpec("THR_BOW3", "AC_SB", "inverter", 984.0, 1000.0),
        ConverterSpec("THR_PROP_PS", "AC_PS", "inverter", 2067.0, 2100.0),
        ConverterSpec("THR_PROP_SB", "AC_SB", "inverter", 2067.0, 2100.0),
    )

    loads = (
        # cranes: 746.7 kVA cumulative, 20 % static / 80 % motor at pf 0.75
        LoadSpec("CRANE_PS", "AC_PS", 373.35, 0.75, 0.80, xr_ratio=10.0),
        LoadSpec("CRANE_SB", "AC_SB", 373.35, 0.75, 0.80, xr_ratio=10.0),
        # 440 V generation loads, 65 % static / 35 % motor at pf 0.90
        LoadSpec("LOAD440_PS", "LV_PS", 1200.0, 0.90, 0.35, xr_ratio=8.0),
        LoadSpec("LOAD440_SB", "LV_SB", 1200.0, 0.90, 0.35, xr_ratio=8.0),
    )

    branches = (
        CableBranch("FDR_LV_PS", "AC_PS", "LV_PS", 0.005, 0.030, synthetic=True),
        CableBranch("FDR_LV_SB", "AC_SB", "LV_SB", 0.005, 0.030, synthetic=True),
    )

    def cb(bid, frm, to, rated_a, st_mult):
        return BreakerSpec(id=bid, from_element=frm, to_element=to,
                           tcc=_tcc(rated_a, st_mult))

    breakers = (
        cb("CB_DG01", "DG#01", "AC_PS", 2004.0, 3.0),
        cb("CB_DG02", "DG#02", "AC_PS", 2688.0, 3.0),
        cb("CB_DG03", "DG#03", "AC_SB", 2688.0, 3.0),
        cb("CB_DG04", "DG#04", "AC_SB", 2004.0, 3.0),
        cb("CB_DG05", "DG#05", "AC_MID", 1433.0, 3.0),
        cb("CB_INV_PS", "INV_PS", "AC_PS", 1255.0, 4.0),
        cb("CB_INV_SB", "INV_SB", "AC_SB", 1255.0, 4.0),
        cb("CB_THR_BOW1", "THR_BOW1", "AC_PS", 984.0, 4.0),
        cb("CB_THR_BOW2", "THR_BOW2", "AC_MID", 984.0, 4.0),
        cb("CB_THR_BOW3", "THR_BOW3", "AC_SB", 984.0, 4.0),
        cb("CB_THR_PROP_PS", "THR_PROP_PS", "AC_PS", 2067.0, 4.0),
        cb("CB_THR_PROP_SB", "THR_PROP_SB", "AC_SB", 2067.0, 4.0),
        cb("CB_CRANE_PS", "CRANE_PS", "AC_PS", 312.4, 3.5),
        cb("CB_CRANE_SB", "CRANE_SB", "AC_SB", 312.4, 3.5),
        cb("CB_LOAD440_PS", "LOAD440_PS", "LV_PS", 1574.6, 3.5),
        cb("CB_LOAD440_SB", "LOAD440_SB", "LV_SB", 1574.6, 3.5),
        # propulsion busbar section ties
        BreakerSpec("CB_TIE_PS_MID", "AC_PS", "AC_MID",
                    tcc=TccCurve(LongTimeElement(4000.0, "definite", 10.0),
                                 ShortTimeElement(5000.0, 0.216), 0.1)),
        BreakerSpec("CB_TIE_MID_SB", "AC_MID", "AC_SB",
                    tcc=TccCurve(LongTimeElement(4000.0, "definite", 10.0),
                                 ShortTimeElement(5000.0, 0.216), 0.1)),
    )

    return GridModel(
        name="ac_vessel",
        buses=buses,
        branches=branches,
        generators=generators,
        batteries=batteries,
        converters=converters,
        loads=loads,
        breakers=breakers,
    )


def _dc_vessel() -> GridModel:
    buses = (
        # DC bus nominal voltage is not published; 650 V synthetic
        Bus("DC_PS", DC, 650.0),
        Bus("DC_SB", DC, 650.0),
        Bus("GEN1_AC", AC, 400.0, 50.0),
        Bus("GEN2_AC", AC, 400.0, 50.0),
        Bus("GEN3_AC", AC, 400.0, 50.0),
        Bus("LV_PS", AC, 400.0, 50.0),
        Bus("LV_SB", AC, 400.0, 50.0),
    )

    def gen(gid, bus):
        return GeneratorSpec(
            id=gid, bus=bus, rated_kva=582.0, rated_kw=465.6, voltage=400.0,
            rated_current=840.0, frequency=50.0, power_factor=0.80,
            speed_rpm=1500.0, winding_resistance_mohm=3.4,
            dynamics=GeneratorDynamicParams(**_DC_DYNAMICS),
        )

    generators = (gen("GEN#01", "GEN1_AC"), gen("GEN#02", "GEN2_AC"),
                  gen("GEN#03", "GEN3_AC"))

    batteries = (
        # datasheet: 14.9 kA short-circuit current, L/R 0.16 ms
        BatterySource("BAT_PS", "DC_PS", 14900.0, 0.16e-3),
        BatterySource("BAT_SB", "DC_SB", 14900.0, 0.16e-3),
    )

    converters = (
        ConverterSpec("CH#01", "DC_PS", "charger", 850.0, 552.5,
                      ac_bus="GEN1_AC"),
        ConverterSpec("CH#02", "DC_SB", "charger", 850.0, 552.5,
                      ac_bus="GEN2_AC"),
        ConverterSpec("CH#03", "DC_SB", "charger", 850.0, 552.5,
                      ac_bus="GEN3_AC"),
        # PTI/PTO propulsion thrusters, 550 kW at pf 0.85
        ConverterSpec("INV_PROP_PS", "DC_PS", "inverter", 1150.0, 550.0),
        ConverterSpec("INV_PROP_SB", "DC_SB", "inverter", 1150.0, 550.0),
        # bow/stern thrusters, 200 kW at pf 0.85
        ConverterSpec("INV_BOW1", "DC_PS", "inverter", 460.0, 200.0),
        ConverterSpec("INV_BOW2", "DC_PS", "inverter", 460.0, 200.0),
        ConverterSpec("INV_STERN", "DC_SB", "inverter", 460.0, 200.0),
        # grid inverters feeding the 400 V distribution (600 kVA transformers)
        ConverterSpec("GINV_PS", "DC_PS", "grid_inverter", 2060.0, 600.0,
                      ac_bus="LV_PS"),
        ConverterSpec("GINV_SB", "DC_SB", "grid_inverter", 2060.0, 600.0,
                      ac_bus="LV_SB"),
    )

    loads = (
        LoadSpec("LOAD400_PS", "LV_PS", 400.0, 0.85, 0.35, xr_ratio=8.0),
        LoadSpec("LOAD400_SB", "LV_SB", 400.0, 0.85, 0.35, xr_ratio=8.0),
    )

    breakers = (
        BreakerSpec("CB_GEN1", "GEN#01", "GEN1_AC", tcc=_tcc(840.0, 3.0)),
        BreakerSpec("CB_GEN2", "GEN#02", "GEN2_AC", tcc=_tcc(840.0, 3.0)),
        BreakerSpec("CB_GEN3", "GEN#03", "GEN3_AC", tcc=_tcc(840.0, 3.0)),
        # split-bus operation: port and starboard DC sections run separated
        BreakerSpec("CB_DCTIE", "DC_PS", "DC_SB", closed=False),
    )

    fuses = tuple(
        FuseSpec(f"FUSE_{el}", el, 9350.0)
        for el in ("CH#01", "CH#02", "CH#03", "BAT_PS", "BAT_SB",
                   "INV_PROP_PS", "INV_PROP_SB", "GINV_PS", "GINV_SB")
    )

    return GridModel(
        name="dc_vessel",
        buses=buses,
        generators=generators,
        batteries=batteries,
        converters=converters,
        loads=loads,
        breakers=breakers,
        fuses=fuses,
    )
