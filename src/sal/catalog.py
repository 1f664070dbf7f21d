"""Registry mapping CLI triple identifiers to spectra and oracle data.

Identifiers: s1, s1nt, s2, s3, s4, t3 (t3:000), t3:s1s2s3, nct2, nct4, podles:q,w,
podless:q,w, file:PATH; an `sq` suffix selects the D^2 spectrum (singular
values squared).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .oracles import (CatalogZeta, catalog_zeta, podles_radius_data,
                      s1_radius_data, s2_radius_data)
from .spectra import (PodlesParams, Spectrum, load_spectrum_jsonl,
                      nctorus_spectrum, podles_spectrum, sphere_spectrum,
                      torus_spectrum)
from .summation import s3_action, t3_action

__all__ = ["ResolvedTriple", "resolve_triple", "default_scale"]


@dataclass
class ResolvedTriple:
    triple_id: str
    spectrum: Spectrum
    zeta: CatalogZeta | None
    params: PodlesParams | None = None
    radius_data: tuple | None = None
    action: Callable | None = None      # closed-form action (f, Lambda) -> float


def default_scale(p: float, n_strips: int = 24) -> list[float]:
    """Strip boundaries r_k = -p - 1/4 + k.

    The quarter offset keeps every line -r_k away from the integer and
    half-integer real parts where catalog poles live.
    """
    r0 = -p - 0.25
    return [r0 + k for k in range(n_strips)]


def in_range(name: str, value, build):
    """build(), an ArithmeticError on the way reported as `name value` out of range."""
    try:
        return build()
    except ArithmeticError as exc:
        raise ValueError(f"{name} {value} is out of range ({exc})") from None


def resolve_triple(triple_id: str, lattice_cut: float = 80.0) -> ResolvedTriple:
    tid = triple_id.strip()
    name, sep, arg = tid.partition(":")
    squared = name.endswith("sq") and name != "sq" and not tid.startswith("file:")
    base = (name[:-2] + sep + arg) if squared else tid

    params = radius_data = action = None
    if base == "s1":
        spec = sphere_spectrum(1, "trivial")
        zeta = catalog_zeta("s1")
        radius_data = s1_radius_data()
    elif base == "s1nt":
        spec = sphere_spectrum(1, "nontrivial")
        zeta = catalog_zeta("s1nt")
    elif base == "s2":
        spec = sphere_spectrum(2)
        zeta = catalog_zeta("s2")
        radius_data = s2_radius_data()
    elif base == "s3":
        spec = sphere_spectrum(3)
        zeta = catalog_zeta("s3")
        action = s3_action
    elif base == "s4":
        spec = sphere_spectrum(4)
        zeta = catalog_zeta("s4")
    elif base == "t3" or base.startswith("t3:"):
        code = base[3:] if base != "t3" else "000"
        if len(code) != 3 or any(ch not in "01" for ch in code):
            raise ValueError(f"bad T^3 spin structure {code!r}")
        spec = in_range("lattice cut", f"{lattice_cut:g}", lambda: torus_spectrum(
            3, tuple(int(ch) for ch in code), radius_cut=lattice_cut / (2.0 * math.pi)))
        zeta, action = None, t3_action
    elif base in ("nct2", "nct4"):
        d = int(base[3:])
        spec = in_range("lattice cut", f"{lattice_cut:g}",
                        lambda: nctorus_spectrum(d, radius_cut=lattice_cut))
        zeta = catalog_zeta(base)
    elif base.startswith("podles:") or base.startswith("podless:"):
        simplified = base.startswith("podless:")
        arg = base.split(":", 1)[1]
        qs, ws = arg.split(",")
        params = PodlesParams(float(qs), complex(ws))
        spec = podles_spectrum(params, simplified=simplified)
        zeta = catalog_zeta("podless" if simplified else "podles", params)
        if simplified:
            radius_data = podles_radius_data(params)
    elif base.startswith("file:"):
        spec = load_spectrum_jsonl(base[5:])
        zeta = None
    else:
        raise ValueError(f"unknown triple id {triple_id!r}")

    if squared:     # the closed-form actions are of |D|, not of D^2
        spec = spec.squared()
        zeta = zeta.squared() if zeta is not None else None
        action = None
    return ResolvedTriple(tid, spec, zeta, params, radius_data, action)
