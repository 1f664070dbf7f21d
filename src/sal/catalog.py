"""Registry mapping CLI triple identifiers to spectra and oracle data.

Identifiers: s1, s1nt, s2, s3, s4, t3 (t3:000), t3:s1s2s3, nct2, nct4, podles:q,w,
podless:q,w, file:PATH; an `sq` suffix selects the D^2 spectrum (singular
values squared).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .spectra import (PodlesParams, Spectrum, load_spectrum_jsonl,
                      nctorus_spectrum, podles_spectrum, sphere_spectrum,
                      torus_spectrum)

__all__ = ["ResolvedTriple", "resolve_triple", "default_scale"]


@dataclass
class ResolvedTriple:
    """A spectrum, built at resolve time, and the closed-form data of its
    other route, built when first read (None where there are none): `zeta`,
    `radius_data` and `action`, (f, Lambda) -> float on the |D| of S^3, T^3."""
    triple_id: str
    spectrum: Spectrum
    family: str                 # the catalog id of |D|: s1, ..., nct4, podles, podless, file
    squared: bool = False       # the spectrum is that of D^2
    params: PodlesParams | None = None

    @cached_property
    def zeta(self):
        if self.family in ("t3", "file"):
            return None
        from .oracles import catalog_zeta
        zeta = catalog_zeta(self.family, self.params)
        return zeta.squared() if self.squared else zeta

    @cached_property
    def radius_data(self) -> tuple | None:
        # podless data are set by resolve_triple
        if self.family not in ("s1", "s2"):
            return None
        from . import oracles
        return oracles.s1_radius_data() if self.family == "s1" else oracles.s2_radius_data()

    @cached_property
    def action(self):
        if self.squared or self.family not in ("s3", "t3"):
            return None     # the closed-form actions are of |D|, not of D^2
        from . import summation
        return summation.s3_action if self.family == "s3" else summation.t3_action


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

    family, params = base, None
    if base == "s1":
        spec = sphere_spectrum(1, "trivial")
    elif base == "s1nt":
        spec = sphere_spectrum(1, "nontrivial")
    elif base in ("s2", "s3", "s4"):
        spec = sphere_spectrum(int(base[1]))
    elif base == "t3" or base.startswith("t3:"):
        code = base[3:] if base != "t3" else "000"
        if len(code) != 3 or any(ch not in "01" for ch in code):
            raise ValueError(f"bad T^3 spin structure {code!r}")
        spec = in_range("lattice cut", f"{lattice_cut:g}", lambda: torus_spectrum(
            3, tuple(int(ch) for ch in code), radius_cut=lattice_cut / (2.0 * math.pi)))
        family = "t3"
    elif base in ("nct2", "nct4"):
        d = int(base[3:])
        spec = in_range("lattice cut", f"{lattice_cut:g}",
                        lambda: nctorus_spectrum(d, radius_cut=lattice_cut))
    elif base.startswith("podles:") or base.startswith("podless:"):
        family, arg = base.split(":", 1)
        qs, ws = arg.split(",")
        params = PodlesParams(float(qs), complex(ws))
        spec = podles_spectrum(params, simplified=family == "podless")
    elif base.startswith("file:"):
        spec = load_spectrum_jsonl(base[5:])
        family = "file"
    else:
        raise ValueError(f"unknown triple id {triple_id!r}")

    rt = ResolvedTriple(tid, spec.squared() if squared else spec, family, squared, params)
    if family == "podless":
        # a few dozen logs: parameters whose data overflow are refused here
        from .oracles import podles_radius_data
        rt.radius_data = podles_radius_data(params)
    return rt
