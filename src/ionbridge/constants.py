"""Physical constants and default numeric values for the Rb-Ca+ system.

Everything internal is SI (kg, m, s, J, rad/s).  The I/O layers convert
to the human units used in tables (um, kHz, Hz, kHz^2).
"""

import math

__all__ = [
    "ATOMIC_MASS_KG",
    "PLANCK",
    "HBAR",
    "RB87_MASS_U",
    "CA40_MASS_U",
    "C4_GROUND_JM4",
    "C4_30S_ANCHOR_FACTOR",
    "C4_ANCHOR_N",
    "C6_30S_PAIR_MHZ_UM6",
    "C6_30S_PAIR_JM6",
    "RB_GROUND_N",
    "RB_S_QUANTUM_DEFECT",
    "TWO_PI",
]

TWO_PI = 2.0 * math.pi

# CODATA 2022 (Mohr et al., Rev. Mod. Phys. 97, 025002 (2025)): the
# atomic mass constant in kg and the exact Planck constant in J s.
ATOMIC_MASS_KG = 1.66053906892e-27
PLANCK = 6.62607015e-34
HBAR = PLANCK / (2 * math.pi)

# Isotope masses in unified atomic mass units.
RB87_MASS_U = 86.909
CA40_MASS_U = 39.963

# Ion-atom polarization coefficient of ground-state Rb against Ca+,
# and the 30S Rydberg enhancement anchor (the n^7 scaling law is pinned
# to this value at n = 30).
C4_GROUND_JM4 = 5.46e-57
C4_30S_ANCHOR_FACTOR = 3.94e7
C4_ANCHOR_N = 30

# Atom-atom van der Waals coefficient for the 30S-30S pair, stored
# signed for the -C6/r^6 convention: the negative value makes the pair
# interaction repulsive; in MHz um^6 and, converted as the config loader
# converts it, in J m^6.
C6_30S_PAIR_MHZ_UM6 = -26.61
C6_30S_PAIR_JM6 = C6_30S_PAIR_MHZ_UM6 * PLANCK * 1e6 * 1e-36

# Principal quantum number of the Rb ground level 5S; Rydberg levels lie above.
RB_GROUND_N = 5

# Effective-quantum-number defect for Rb S states (quantum_defect scaling).
RB_S_QUANTUM_DEFECT = 3.13
