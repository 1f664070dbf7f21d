"""sal: spectral functions of spectral triples.

Heat traces, spectral zeta functions and spectral actions of a catalog of
spectral triples (spheres, tori, noncommutative tori, Podles spheres and
finite matrix triples) by certified direct summation, together with the
residue machinery that rebuilds their small-t / large-Lambda expansions
from zeta-function pole data.
"""

from .asymptotics import (AsymptoticExpansion, ExpansionTerm, PoleDatum,
                          action_expansion, convergence_radius,
                          evaluate_expansion, heat_expansion_from_poles,
                          ncint, ncint_from_heat_coeffs, ncint_numeric,
                          optimal_truncation)
from .catalog import resolve_triple
from .cutoffs import (CutoffFunction, IndicatorCutoff, SchwartzCutoff,
                      exp_cutoff, gaussian_cutoff, null_taylor_cutoff,
                      parse_cutoff, powerlaw_cutoff, product, window_cutoff)
from .finite import (FiniteTriple, GaugePotential, fluctuate, gauge_transform,
                     h_polynomial, index_of, mckean_singer,
                     perturbation_polynomials, topological_action, validate)
from .oracles import catalog_zeta, epstein_residue, podles_heat_exact, s1_heat_exact
from .series import (DivergentSeriesError, TruncationReport, averaged_counting,
                     counting, dixmier_estimate, heat_trace, mellin_check,
                     partial_trace, spectral_action_direct, zeta_direct)
from .special import (bernoulli_number, epstein_Zd, gamma, gamma_laurent,
                      hurwitz_zeta, jacobi_theta3, q_number, riemann_zeta)
from .spectra import (PodlesParams, Spectrum, SpectrumEntry, SpectrumMeta,
                      load_spectrum_jsonl, nctorus_spectrum, podles_diag_A,
                      podles_spectrum, sphere_spectrum, torus_spectrum)
from .summation import (euler_maclaurin, poisson_compare, s3_action,
                        s4_action, s4_coefficients, s4_constant_term,
                        t3_action)

__version__ = "0.1.0"
