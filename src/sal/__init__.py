"""sal: spectral functions of spectral triples.

Heat traces, spectral zeta functions and spectral actions of a catalog of
spectral triples (spheres, tori, noncommutative tori, Podles spheres and
finite matrix triples) by certified direct summation, together with the
residue machinery that rebuilds their small-t / large-Lambda expansions
from zeta-function pole data.

The namespace is lazy (PEP 562): `import sal` loads no submodule.  Each
name of `__all__`, and each submodule (`sal.series`), is imported on its
first access, so a caller, the CLI included, loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": "AsymptoticExpansion ExpansionTerm PoleDatum action_expansion "
                   "convergence_radius evaluate_expansion heat_expansion_from_poles ncint "
                   "ncint_from_heat_coeffs ncint_numeric optimal_truncation",
    "catalog": "resolve_triple",
    "cutoffs": "CutoffFunction IndicatorCutoff SchwartzCutoff exp_cutoff gaussian_cutoff "
               "null_taylor_cutoff parse_cutoff powerlaw_cutoff product window_cutoff",
    "finite": "FiniteTriple GaugePotential fluctuate gauge_transform h_polynomial index_of "
              "mckean_singer perturbation_polynomials topological_action validate",
    "oracles": "catalog_zeta epstein_residue podles_heat_exact s1_heat_exact",
    "series": "DivergentSeriesError TruncationReport averaged_counting counting "
              "heat_trace mellin_check partial_trace spectral_action_direct zeta_direct",
    "special": "bernoulli_number epstein_Zd gamma gamma_laurent hurwitz_zeta jacobi_theta3 "
               "q_number riemann_zeta",
    "spectra": "PodlesParams Spectrum SpectrumEntry SpectrumMeta load_spectrum_jsonl "
               "nctorus_spectrum podles_diag_A podles_spectrum sphere_spectrum torus_spectrum",
    "summation": "euler_maclaurin poisson_compare s3_action s4_action s4_coefficients "
                 "s4_constant_term t3_action",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
