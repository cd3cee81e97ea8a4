"""JSON configuration loading: schema checks, defaults, canonical digest.

The document mirrors the physical parameter list one-to-one; every
field is optional and defaults to the Rb-Ca+ reference values, so the
default document defines the reference system.  The sha256 digest of
the resolved (defaults applied) canonical JSON is embedded in every
output table so results stay traceable to their inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import constants as cst
from .errors import ConfigError
from .expansion import _terms
from .model import (
    GROUND,
    ElectronicState,
    InteractionCoefficients,
    IonModeIndex,
    Species,
    SystemConfig,
    TrapFrequencies,
    characteristic_scales,
)

__all__ = ["DEFAULT_DOCUMENT", "parse_state", "load_config", "config_from_document",
           "reference_config"]

DEFAULT_DOCUMENT = {
    "ion": {"species": "40Ca+", "mass_u": cst.CA40_MASS_U,
            "omega_rho_kHz": 1000.0, "omega_z_kHz": 200.0},
    "atom": {"species": "87Rb", "mass_u": cst.RB87_MASS_U,
             "omega_rho_kHz": 100.0, "omega_z_kHz": 9.0},
    "z0_um": 8.0,
    "states": ["30S", "30S"],
    "c4_ground_Jm4": cst.C4_GROUND_JM4,
    "c6_pair_MHz_um6": cst.C6_30S_PAIR_MHZ_UM6,
    "ion_mode": [0, 0, 0],
    "scaling": "bare_n",
}


def parse_state(token) -> ElectronicState:
    """Parse a state label: "g", "ground", or "<n>S" (with 5S = ground)."""
    if not isinstance(token, str):
        raise ConfigError(f"state label must be a string, got {token!r}")
    text = token.strip()
    if text.lower() in ("g", "ground"):
        return GROUND
    if text and text[-1] in "sS":
        try:
            n = int(text[:-1])
        except ValueError:
            raise ConfigError(f"malformed state label {token!r}") from None
        if n == cst.RB_GROUND_N:
            return GROUND
        return ElectronicState("rydberg", n)
    raise ConfigError(f"malformed state label {token!r}, expected 'g' or like '30S'")


def _require_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # nan, inf, huge ints
        raise ConfigError(f"field {field!r} must be finite, got {value!r}")
    return float(value)


def _merge_section(given: dict, field: str) -> dict:
    default = DEFAULT_DOCUMENT[field]
    if not isinstance(given, dict):
        raise ConfigError(f"field {field!r} must be an object")
    unknown = set(given) - set(default)
    if unknown:
        raise ConfigError(f"unknown keys in {field!r}: {sorted(unknown)}")
    merged = dict(default)
    merged.update(given)
    for key in ("mass_u", "omega_rho_kHz", "omega_z_kHz"):
        merged[key] = _require_number(merged[key], f"{field}.{key}")
    if not isinstance(merged["species"], str):
        raise ConfigError(f"field {field}.species must be a string")
    return merged


def _resolve(document: dict) -> dict:
    if not isinstance(document, dict):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(document) - set(DEFAULT_DOCUMENT)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    resolved = {key: DEFAULT_DOCUMENT[key] for key in DEFAULT_DOCUMENT}
    resolved.update(document)
    resolved["ion"] = _merge_section(document.get("ion", {}), "ion")
    resolved["atom"] = _merge_section(document.get("atom", {}), "atom")

    for field in ("z0_um", "c4_ground_Jm4", "c6_pair_MHz_um6"):
        resolved[field] = _require_number(resolved[field], field)
    states = resolved["states"]
    if not (isinstance(states, list) and len(states) == 2):
        raise ConfigError("field 'states' must list exactly two state labels")
    mode = resolved["ion_mode"]
    if not (isinstance(mode, list) and len(mode) == 3
            and all(isinstance(v, int) and not isinstance(v, bool) for v in mode)):
        raise ConfigError("field 'ion_mode' must be three integers [n_rho, m, n_z]")
    if any(abs(v) > 2**53 for v in mode):  # beyond 2**53 no longer exact as floats
        raise ConfigError("field 'ion_mode' entries must not exceed 2**53 in magnitude")
    if resolved["scaling"] not in ("bare_n", "quantum_defect"):
        raise ConfigError(f"field 'scaling' must be 'bare_n' or 'quantum_defect', "
                          f"got {resolved['scaling']!r}")
    return resolved


def config_digest(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def config_from_document(document: dict) -> tuple[SystemConfig, dict, str]:
    """Build a SystemConfig from a parsed JSON document.

    Returns (config, resolved document with defaults applied, digest).
    """
    resolved = _resolve(document)
    khz = 1e3 * cst.TWO_PI
    config = SystemConfig(
        ion=Species(resolved["ion"]["species"],
                    resolved["ion"]["mass_u"] * cst.ATOMIC_MASS_KG),
        ion_trap=TrapFrequencies(resolved["ion"]["omega_rho_kHz"] * khz,
                                 resolved["ion"]["omega_z_kHz"] * khz),
        atom=Species(resolved["atom"]["species"],
                     resolved["atom"]["mass_u"] * cst.ATOMIC_MASS_KG),
        atom_trap=TrapFrequencies(resolved["atom"]["omega_rho_kHz"] * khz,
                                  resolved["atom"]["omega_z_kHz"] * khz),
        half_separation_z0=resolved["z0_um"] * 1e-6,
        state_pair=(parse_state(resolved["states"][0]),
                    parse_state(resolved["states"][1])),
        coefficients=InteractionCoefficients(
            c4_ground=resolved["c4_ground_Jm4"],
            c6_rydberg_anchor=resolved["c6_pair_MHz_um6"] * cst.PLANCK * 1e6 * 1e-36,
            scaling=resolved["scaling"],
        ),
        ion_mode=IonModeIndex.cylindrical(*resolved["ion_mode"]),
    )
    _terms(config)  # ConfigError when a derived coefficient
    characteristic_scales(config)  # or scale leaves the float range
    return config, resolved, config_digest(resolved)


def load_config(path) -> tuple[SystemConfig, dict, str]:
    """Load and validate a JSON configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"invalid JSON in {path} at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    return config_from_document(document)


_DEFAULT_CONFIG = config_from_document({})[0]


def reference_config(pair: str = "rr", n: int = 30, z0: float = 8e-6,
                     scaling: str = "bare_n") -> SystemConfig:
    """The default document's system with the state ``pair`` ("rr", "rg"
    or "gg"), the Rydberg level ``n``, the half-separation ``z0`` (m) and
    the C4 ``scaling`` replaced."""
    rydberg = ElectronicState("rydberg", n)
    states = {"rr": (rydberg, rydberg), "rg": (rydberg, GROUND), "gg": (GROUND, GROUND)}
    if pair not in states:
        raise ConfigError(f"unknown state pair {pair!r}, expected rr, rg, or gg")
    return replace(_DEFAULT_CONFIG, half_separation_z0=z0, state_pair=states[pair],
                   coefficients=replace(_DEFAULT_CONFIG.coefficients, scaling=scaling))
