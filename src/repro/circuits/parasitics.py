"""Analog switch parasitics for test-access networks.

IEEE 1149.4 analog boundary modules (ABMs) reach the DUT through CMOS
transmission gates onto the AT1/AT2 analog test buses (Syri et al.).
Each closed switch contributes a series on-resistance -- a frequency-flat
insertion loss against the port impedances -- and each switched node a
shunt capacitance whose RC pole low-passes the accessed signal.  This
module is the behavioral model of one such switch stage; the load-board
layer (:class:`repro.loadboard.scenario_paths.AbmAccessPath`) chains
them into a full access path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dsp.units import db20

__all__ = ["SwitchParasitics"]


@dataclass(frozen=True)
class SwitchParasitics:
    """One series analog switch: on-resistance plus node capacitance.

    ``r_on_ohm`` is the closed-channel series resistance (tens of ohms
    for CMOS transmission gates); ``c_node_farads`` the total shunt
    capacitance of the switched node (junction + bus-segment trace).
    """

    r_on_ohm: float = 50.0
    c_node_farads: float = 15e-12

    def __post_init__(self):
        if self.r_on_ohm < 0:
            raise ValueError("switch on-resistance must be non-negative")
        if self.c_node_farads <= 0:
            raise ValueError("node capacitance must be positive")

    def insertion_loss_db(self, port_impedance_ohm: float = 50.0) -> float:
        """Series-resistance insertion loss between matched ports, in dB.

        The switch sits between a ``Z``-ohm source and a ``Z``-ohm load,
        so the delivered voltage scales by ``2Z / (2Z + R_on)``:

            loss = 20 log10(1 + R_on / (2 Z))
        """
        if port_impedance_ohm <= 0:
            raise ValueError("port impedance must be positive")
        return db20(1.0 + self.r_on_ohm / (2.0 * port_impedance_ohm))

    def pole_hz(self, port_impedance_ohm: float = 50.0) -> float:
        """Dominant RC pole of the switched node, in Hz.

        The node capacitance is driven through the switch resistance in
        series with the port impedance: ``f = 1 / (2 pi (R_on + Z) C)``.
        """
        if port_impedance_ohm <= 0:
            raise ValueError("port impedance must be positive")
        r_total = self.r_on_ohm + port_impedance_ohm
        return 1.0 / (2.0 * math.pi * r_total * self.c_node_farads)
