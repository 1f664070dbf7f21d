"""Matrix-scale spectral triples.

Axiom and KO-sign validation, inner fluctuations D + A + eps J A J^{-1},
gauge covariance, topological action / McKean--Singer index, and the exact
combinatorics of the fluctuation expansion: the simplex polynomials
h_n(s; l) and the perturbation polynomials P_n.

The antiunitary J is stored as a unitary matrix followed by entrywise
conjugation, J(v) = J_u conj(v), so every axiom becomes a matrix identity:

    J D = eps D J     <->  J_u conj(D) = eps D J_u
    J^2 = eps'        <->  J_u conj(J_u) = eps' 1
    J gamma = eps'' gamma J  <->  J_u conj(gamma) = eps'' gamma J_u.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .special import _circle_coeff

__all__ = [
    "KO_SIGN_TABLE",
    "FiniteTriple",
    "GaugePotential",
    "HPolynomial",
    "validate",
    "fluctuate",
    "gauge_transform",
    "topological_action",
    "mckean_singer",
    "index_of",
    "h_polynomial",
    "perturbation_polynomials",
    "commuting_check",
    "zeta0_fluctuation_check",
    "tadpole_residue",
    "commutative_bimodule_triple",
    "flat_commutative_triple",
    "real_function_potential",
    "ko_reference_triple",
    "triple_to_json",
    "triple_from_json",
]

# (eps, eps', eps'') per KO-dimension d mod 8; eps'' only for even d.
KO_SIGN_TABLE: dict[int, tuple[int, int, int | None]] = {
    0: (1, 1, 1),
    1: (-1, 1, None),
    2: (1, -1, -1),
    3: (1, -1, None),
    4: (1, -1, 1),
    5: (-1, -1, None),
    6: (1, 1, -1),
    7: (1, 1, None),
}

_KERNEL_TOL = 1e-10


@dataclass
class FiniteTriple:
    D: np.ndarray
    gamma: np.ndarray | None = None
    J_unitary: np.ndarray | None = None
    gens: list = field(default_factory=list)
    eps: int = 1
    eps_prime: int = 1
    eps_dprime: int | None = None
    ko_dim: int | None = None
    label: str = ""

    @property
    def dim(self) -> int:
        return self.D.shape[0]

    def apply_J(self, M: np.ndarray) -> np.ndarray:
        """J M J^{-1} = J_u conj(M) J_u^dagger."""
        if self.J_unitary is None:
            raise ValueError("triple has no real structure")
        Ju = self.J_unitary
        return Ju @ np.conj(M) @ Ju.conj().T

    def kernel_projector(self) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.D)
        tol = _KERNEL_TOL * max(1.0, float(np.max(np.abs(vals))))
        cols = vecs[:, np.abs(vals) < tol]
        return cols @ cols.conj().T


def _fro(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, "fro"))


def validate(triple: FiniteTriple) -> dict:
    """Per-axiom violation norms (Frobenius); 'passed' uses 1e-10 * scale."""
    D = triple.D
    n = D.shape[0]
    eye = np.eye(n)
    scale = max(1.0, _fro(D))
    report: dict[str, float | bool] = {}
    report["selfadjoint"] = _fro(D - D.conj().T)
    if triple.gamma is not None:
        g = triple.gamma
        report["grading_sq"] = _fro(g @ g - eye)
        report["grading_anticommute"] = _fro(g @ D + D @ g)
        report["grading_commute_algebra"] = max(
            (_fro(g @ a - a @ g) for a in triple.gens), default=0.0)
    if triple.J_unitary is not None:
        Ju = triple.J_unitary
        report["J_unitary"] = _fro(Ju @ Ju.conj().T - eye)
        report["reality_JD"] = _fro(Ju @ np.conj(D) - triple.eps * D @ Ju)
        report["reality_J_sq"] = _fro(Ju @ np.conj(Ju) - triple.eps_prime * eye)
        if triple.gamma is not None:
            if triple.eps_dprime is None:
                report["reality_Jgamma"] = math.inf
            else:
                report["reality_Jgamma"] = _fro(
                    Ju @ np.conj(triple.gamma) - triple.eps_dprime * triple.gamma @ Ju)
        # order zero: [a, J b* J^{-1}] = 0
        oz = 0.0
        fo = 0.0
        for a in triple.gens:
            for b in triple.gens:
                bo = triple.apply_J(b.conj().T)
                oz = max(oz, _fro(a @ bo - bo @ a))
                com = D @ a - a @ D
                fo = max(fo, _fro(com @ bo - bo @ com))
        report["order_zero"] = oz
        report["first_order"] = fo
    if triple.ko_dim is not None:
        want = KO_SIGN_TABLE[triple.ko_dim % 8]
        ok = (triple.eps == want[0] and triple.eps_prime == want[1])
        if want[2] is not None:
            ok = ok and triple.eps_dprime == want[2]
        report["ko_signs_match_table"] = ok
    tol = 1e-10 * scale
    report["axioms_ok"] = {k: (v <= tol) for k, v in report.items()
                           if isinstance(v, float)}
    report["passed"] = all(
        ok for k, ok in report["axioms_ok"].items() if k != "first_order") \
        and all(bool(v) for k, v in report.items()
                if isinstance(v, bool) and k != "passed")
    return report


@dataclass
class GaugePotential:
    """A = sum_i coeff_i a_i [D, b_i], stored with its witnesses."""
    matrix: np.ndarray
    witnesses: list = field(default_factory=list)  # (coeff, a, b)

    @staticmethod
    def from_witnesses(D: np.ndarray, witnesses: list) -> "GaugePotential":
        A = np.zeros_like(D)
        for coeff, a, b in witnesses:
            A = A + coeff * (a @ (D @ b - b @ D))
        return GaugePotential(A, witnesses)

    def hermitian_violation(self) -> float:
        return _fro(self.matrix - self.matrix.conj().T)


def fluctuate(triple: FiniteTriple, A: np.ndarray | GaugePotential) -> FiniteTriple:
    """D_A = D + A + eps J A J^{-1} (or D + A without a real structure)."""
    Am = A.matrix if isinstance(A, GaugePotential) else A
    if _fro(Am - Am.conj().T) > 1e-10 * max(1.0, _fro(Am)):
        raise ValueError("fluctuate: A must be Hermitian")
    if triple.J_unitary is not None:
        Atilde = Am + triple.eps * triple.apply_J(Am)
    else:
        Atilde = Am
    return FiniteTriple(D=triple.D + Atilde, gamma=triple.gamma,
                        J_unitary=triple.J_unitary, gens=triple.gens,
                        eps=triple.eps, eps_prime=triple.eps_prime,
                        eps_dprime=triple.eps_dprime, ko_dim=triple.ko_dim,
                        label=triple.label + " fluctuated")


def gauge_transform(triple: FiniteTriple, A: np.ndarray | GaugePotential,
                    u: np.ndarray) -> tuple[np.ndarray, float]:
    """A^u = u A u* + u [D, u*]; returns (A^u, covariance residual).

    The residual |U D_A U* - D_{A^u}|_F with U = u J u J^{-1} vanishes when
    the first-order condition holds.
    """
    Am = A.matrix if isinstance(A, GaugePotential) else A
    n = triple.dim
    if _fro(u @ u.conj().T - np.eye(n)) > 1e-10:
        raise ValueError("gauge_transform: u must be unitary")
    D = triple.D
    Au = u @ Am @ u.conj().T + u @ (D @ u.conj().T - u.conj().T @ D)
    DA = fluctuate(triple, Am).D
    DAu = fluctuate(triple, Au).D
    if triple.J_unitary is not None:
        U = u @ triple.apply_J(u)
    else:
        U = u
    resid = _fro(U @ DA @ U.conj().T - DAu)
    return Au, resid


# ---------------------------------------------------------------------------
# Topological action and index
# ---------------------------------------------------------------------------

def index_of(triple: FiniteTriple) -> int:
    """index(D) = Tr(gamma P_0)."""
    if triple.gamma is None:
        raise ValueError("index_of: triple has no grading")
    P0 = triple.kernel_projector()
    return int(round(float(np.trace(triple.gamma @ P0).real)))


def topological_action(triple: FiniteTriple, f, lam: float) -> tuple[float, float]:
    """S_top = Tr gamma f(|D|/Lambda), computed spectrally, and f(0) index(D)."""
    if triple.gamma is None:
        raise ValueError("topological_action: triple has no grading")
    fe = f.evaluate if hasattr(f, "evaluate") else f
    vals, vecs = np.linalg.eigh(triple.D)
    fvals = np.array([float(fe(abs(v) / lam)) for v in vals])
    F = vecs @ np.diag(fvals) @ vecs.conj().T
    s_top = float(np.trace(triple.gamma @ F).real)
    f0 = float(fe(0.0))
    return s_top, f0 * index_of(triple)


def mckean_singer(triple: FiniteTriple, t: float) -> float:
    """Tr gamma e^{-t D^2}; equals index(D) for every t > 0."""
    if triple.gamma is None:
        raise ValueError("mckean_singer: triple has no grading")
    vals, vecs = np.linalg.eigh(triple.D)
    E = vecs @ np.diag(np.exp(-t * vals ** 2)) @ vecs.conj().T
    return float(np.trace(triple.gamma @ E).real)


# ---------------------------------------------------------------------------
# h_n(s; l): exact simplex integrals of binomial products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HPolynomial:
    """h_n(s; l) = sum_j coeffs[j] s^{n+j}, exact rationals, j = 0..|l|."""
    n: int
    ell: tuple
    coeffs: tuple  # Fractions, ascending in j

    def degree(self) -> int:
        return self.n + len(self.coeffs) - 1


def _stirling_first_signed(n: int) -> list[Fraction]:
    """Coefficients of x(x-1)...(x-n+1) = sum_j s(n,j) x^j."""
    poly = [Fraction(1)]
    for i in range(n):
        # multiply by (x - i)
        new = [Fraction(0)] * (len(poly) + 1)
        for j, c in enumerate(poly):
            new[j + 1] += c
            new[j] -= c * i
        poly = new
    return poly


def h_polynomial(n: int, ell: tuple) -> HPolynomial:
    """Exact h_n(s; l) = (-s/2)^n int_{0<=t_1<=...<=t_n<=1} prod binom(-s t_i/2, l_i) dt.

    Each binom(-s t_i/2, l_i) expands via signed Stirling numbers into powers
    of (-s/2) t_i; the ordered-simplex integral of t_1^{e_1}...t_n^{e_n} is
    prod_i (e_1 + ... + e_i + i)^{-1}.
    """
    if n < 1:
        raise ValueError("h_polynomial: need n >= 1")
    ell = tuple(int(x) for x in ell)
    if len(ell) != n or any(x < 0 for x in ell):
        raise ValueError("h_polynomial: ell must be n nonnegative integers")
    total = [Fraction(0)] * (sum(ell) + 1)  # coefficient of s^{n+j}
    stir = [(_stirling_first_signed(li), math.factorial(li)) for li in ell]

    def rec(i: int, exps: list[int], coeff: Fraction):
        if i == n:
            # integrate monomial over ordered simplex
            denom = Fraction(1)
            acc = 0
            for k, e in enumerate(exps):
                acc += e
                denom *= acc + k + 1
            j = sum(exps)
            total[j] += coeff / denom
            return
        poly, fact = stir[i]
        for j, c in enumerate(poly):
            if c == 0:
                continue
            # binom(x, l) = (1/l!) sum_j s(l,j) x^j with x = (-s/2) t_i
            rec(i + 1, exps + [j], coeff * c / fact)

    rec(0, [], Fraction(1))
    # overall (-s/2)^n and the (-1/2)^j from each x^j = (-s/2)^j t^j
    coeffs = []
    for j, c in enumerate(total):
        coeffs.append(c * Fraction(-1, 2) ** (n + j))
    return HPolynomial(n, ell, tuple(coeffs))


# ---------------------------------------------------------------------------
# Perturbation polynomials P_n
# ---------------------------------------------------------------------------

def _binom_minus_alpha(n: int) -> list[Fraction]:
    """binom(-a, n) = (-a)(-a-1)...(-a-n+1)/n! as a polynomial in a (ascending)."""
    return [(-1) ** j * c / math.factorial(n) for j, c in enumerate(_stirling_first_signed(n))]


def perturbation_polynomials(n: int) -> dict[tuple, list[Fraction]]:
    """P_n as formal words in the letters 'AD1' = A D^{-1}, 'A2D2' = A^2 D^{-2}.

    Coefficients are polynomials in alpha (ascending Fraction lists):

        P_0 = 1,
        P_1 = -alpha (AD^{-1}),
        P_2 = (alpha/4)(alpha+2) (AD^{-1})^2 + (alpha^2/4) A^2 D^{-2},
        P_3 = binom(-alpha, 3) (AD^{-1})^3        [engine-derived: at this
              order any word-splitting is equivalent modulo OP^{-4}].
    """
    if n == 0:
        return {(): [Fraction(1)]}
    if n == 1:
        return {("AD1",): [Fraction(0), Fraction(-1)]}
    if n == 2:
        return {
            ("AD1", "AD1"): [Fraction(0), Fraction(1, 2), Fraction(1, 4)],
            ("A2D2",): [Fraction(0), Fraction(0), Fraction(1, 4)],
        }
    if n == 3:
        return {("AD1", "AD1", "AD1"): _binom_minus_alpha(3)}
    raise ValueError("perturbation_polynomials: n > 3 unsupported")


def _word_degree(word: tuple) -> int:
    return sum(1 if w == "AD1" else 2 for w in word)


def commuting_check(n: int) -> bool:
    """Specializing AD^{-1} -> x, A^2 D^{-2} -> x^2 must give binom(-a, n) x^n."""
    target = _binom_minus_alpha(n)
    acc = [Fraction(0)] * (n + 2)
    for word, poly in perturbation_polynomials(n).items():
        if _word_degree(word) != n:
            return False
        for j, c in enumerate(poly):
            acc[j] += c
    acc = acc[: max(len(target), 1)]
    for j in range(max(len(acc), len(target))):
        a = acc[j] if j < len(acc) else Fraction(0)
        b = target[j] if j < len(target) else Fraction(0)
        if a != b:
            return False
    return True


def perturbation_sum_matrix(D: np.ndarray, A: np.ndarray, alpha: float,
                            n_max: int = 2) -> np.ndarray:
    """sum_{n<=n_max} P_n(alpha) |D|^{-alpha} for matrices (D > 0 assumed)."""
    Dinv = np.linalg.inv(D)
    letters = {"AD1": A @ Dinv, "A2D2": A @ A @ Dinv @ Dinv}
    vals, vecs = np.linalg.eigh(D)
    Dpow = vecs @ np.diag(np.abs(vals) ** (-alpha)) @ vecs.conj().T
    total = np.zeros_like(D)
    for n in range(n_max + 1):
        for word, poly in perturbation_polynomials(n).items():
            c = sum(float(cc) * alpha ** j for j, cc in enumerate(poly))
            W = np.eye(D.shape[0], dtype=complex)
            for w in word:
                W = W @ letters[w]
            total = total + c * W
    return total @ Dpow


# ---------------------------------------------------------------------------
# zeta(0) under fluctuation, and tadpoles
# ---------------------------------------------------------------------------

def _zeta_matrix(D: np.ndarray, s: complex) -> complex:
    """zeta_D(s) = sum |lambda_i|^{-s} with the |D| = |curly D| + P_0 convention."""
    vals = np.linalg.eigvalsh(D)
    tol = _KERNEL_TOL * max(1.0, float(np.max(np.abs(vals))))
    out = 0.0 + 0.0j
    for v in vals:
        a = abs(v)
        if a < tol:
            a = 1.0  # kernel eigenvalues shifted to 1 by the convention
        out += a ** (-complex(s))
    return out


def zeta0_fluctuation_check(triple: FiniteTriple, A: np.ndarray | GaugePotential) -> float:
    """|zeta_{D_A}(0) - zeta_D(0)|: zero exactly (both count the dimension)."""
    DA = fluctuate(triple, A).D
    z0 = _zeta_matrix(triple.D, 0.0)
    zA = _zeta_matrix(DA, 0.0)
    return abs(zA - z0)


def tadpole_residue(triple: FiniteTriple, A: np.ndarray | GaugePotential) -> complex:
    """ncint A D^{-1} = Res_{s=0} Tr(A D^{-1} |D|^{-s}): 0 for finite triples.

    Computed honestly as a Cauchy circle integral of the (entire) zeta.
    """
    Am = A.matrix if isinstance(A, GaugePotential) else A
    vals, vecs = np.linalg.eigh(triple.D)
    tol = _KERNEL_TOL * max(1.0, float(np.max(np.abs(vals))))
    safe = np.where(np.abs(vals) < tol, 1.0, vals)
    K = vecs.conj().T @ Am @ vecs

    def zeta_fn(s: complex) -> complex:
        return complex(sum(K[i, i] / safe[i] * abs(safe[i]) ** (-s)
                           for i in range(len(vals))))

    return _circle_coeff(zeta_fn, 0.0, -1, 0.25, 64)


# ---------------------------------------------------------------------------
# Constructions: commutative families and KO references
# ---------------------------------------------------------------------------

def commutative_bimodule_triple(k: int, rng: np.random.Generator) -> tuple[FiniteTriple, np.ndarray]:
    """Commutative triple with the first-order condition: diagonal algebra
    left-multiplying on H = M_k(C), D = ad(M), J = the *-operation.

    Returns (triple, M).  KO signs: (eps, eps') = (-1, 1), KO-dimension 1.
    """
    M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    M = (M + M.conj().T) / 2.0
    eye = np.eye(k)
    D = np.kron(M, eye) - np.kron(eye, M.T)
    # J(x) = x*: vec(x*) = P conj(vec x) with P the transposition permutation
    P = np.zeros((k * k, k * k))
    for i in range(k):
        for j in range(k):
            P[j * k + i, i * k + j] = 1.0
    gens = []
    for _ in range(2):
        dvals = rng.normal(size=k)
        gens.append(np.kron(np.diag(dvals.astype(complex)), eye))
    return FiniteTriple(D=D.astype(complex), gamma=None, J_unitary=P.astype(complex),
                        gens=gens, eps=-1, eps_prime=1, eps_dprime=None, ko_dim=1,
                        label=f"bimodule({k})"), M


def flat_commutative_triple(n: int, rng: np.random.Generator) -> FiniteTriple:
    """KO-dimension 2 triple on C^n x C^2 mimicking a flat spin geometry:
    D = i S_1 (x) sigma_1 + i S_2 (x) sigma_2 (S_mu real antisymmetric),
    J = (1 (x) i sigma_2) conj, gamma = 1 (x) sigma_3, diagonal algebra."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(n, dtype=complex)

    def rand_antisym() -> np.ndarray:
        S = rng.normal(size=(n, n))
        return ((S - S.T) / 2.0).astype(complex)

    S1, S2 = rand_antisym(), rand_antisym()
    D = np.kron(1j * S1, s1) + np.kron(1j * S2, s2)
    Ju = np.kron(eye, 1j * s2)
    gamma = np.kron(eye, s3)
    gens = [np.kron(np.diag(rng.normal(size=n).astype(complex)), np.eye(2))
            for _ in range(2)]
    t = FiniteTriple(D=D, gamma=gamma, J_unitary=Ju, gens=gens,
                     eps=1, eps_prime=-1, eps_dprime=-1, ko_dim=2,
                     label=f"flat({n})")
    t._S = (S1, S2)  # type: ignore[attr-defined]
    return t


def real_function_potential(triple: FiniteTriple, a_diag: np.ndarray,
                            b_diag: np.ndarray) -> GaugePotential:
    """Manifold-like Hermitian one-form A = -(i a [D, b] + h.c.) on a
    flat_commutative_triple; satisfies J A J^{-1} = -A, so D_A = D."""
    n2 = triple.dim
    a = np.kron(np.diag(a_diag.astype(complex)), np.eye(2))
    b = np.kron(np.diag(b_diag.astype(complex)), np.eye(2))
    D = triple.D
    X = 1j * (a @ (D @ b - b @ D))
    A = -(X + X.conj().T)
    return GaugePotential(A, witnesses=[(-1j, a, b), ("h.c.", None, None)])


_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "O": np.array([[0, -1], [1, 0]], dtype=complex),  # i sigma_y, real
}


def _kron2(a: str, b: str) -> np.ndarray:
    return np.kron(_SIGMA[a], _SIGMA[b])


def ko_reference_triple(d: int, rng: np.random.Generator | None = None) -> FiniteTriple:
    """A 4-dimensional reference triple realizing the KO sign table at d mod 8.

    Searches a catalog of J-unitaries and gradings on C^2 (x) C^2 for the
    required (eps, eps', eps''), then projects a random Hermitian D onto the
    constraint set; retries until D is nonzero.
    """
    rng = rng or np.random.default_rng(12345 + d)
    eps, eps_p, eps_pp = KO_SIGN_TABLE[d % 8]
    even = eps_pp is not None
    names = ["I", "x", "y", "z", "O"]
    candidates = [(a, b) for a in names for b in names]
    gammas = [_kron2("z", "I"), _kron2("I", "z"), _kron2("z", "z")] if even else [None]
    eye = np.eye(4, dtype=complex)
    for ga, gb in candidates:
        Ju = _kron2(ga, gb)
        if _fro(Ju @ Ju.conj().T - eye) > 1e-12:
            continue
        if _fro(Ju @ np.conj(Ju) - eps_p * eye) > 1e-12:
            continue
        for gamma in gammas:
            if even:
                if _fro(Ju @ np.conj(gamma) - eps_pp * gamma @ Ju) > 1e-12:
                    continue
            for _ in range(8):
                D0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                D0 = (D0 + D0.conj().T) / 2.0
                if even:
                    D0 = (D0 - gamma @ D0 @ gamma) / 2.0
                # project onto J D = eps D J: average with eps * J D J^{-1}
                JD = Ju @ np.conj(D0) @ Ju.conj().T
                D0 = (D0 + eps * JD) / 2.0
                if even:
                    D0 = (D0 - gamma @ D0 @ gamma) / 2.0
                    JD = Ju @ np.conj(D0) @ Ju.conj().T
                    D0 = (D0 + eps * JD) / 2.0
                if _fro(D0) < 1e-8:
                    continue
                tr = FiniteTriple(D=D0, gamma=gamma, J_unitary=Ju,
                                  gens=[eye.copy()], eps=eps, eps_prime=eps_p,
                                  eps_dprime=eps_pp, ko_dim=d,
                                  label=f"KO-{d} reference")
                rep = validate(tr)
                checks = [v for k, v in rep.items()
                          if isinstance(v, float) and k != "first_order"]
                if max(checks) < 1e-10:
                    return tr
    raise RuntimeError(f"no KO reference triple found for d = {d}")


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _mat_to_obj(M: np.ndarray) -> dict:
    raw = np.ascontiguousarray(M.astype(np.complex128))
    return {"shape": list(raw.shape),
            "b64": base64.b64encode(raw.tobytes()).decode("ascii")}


def _mat_from_obj(obj) -> np.ndarray:
    if isinstance(obj, dict) and "b64" in obj:
        buf = base64.b64decode(obj["b64"])
        arr = np.frombuffer(buf, dtype=np.complex128).copy()
        return arr.reshape(obj["shape"])
    # nested [re, im] arrays
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def triple_to_json(triple: FiniteTriple) -> str:
    out = {"dim": triple.dim, "D": _mat_to_obj(triple.D),
           "gens": [_mat_to_obj(g) for g in triple.gens],
           "eps": triple.eps, "eps_prime": triple.eps_prime}
    if triple.gamma is not None:
        out["gamma"] = _mat_to_obj(triple.gamma)
    if triple.J_unitary is not None:
        out["J_unitary"] = _mat_to_obj(triple.J_unitary)
    if triple.eps_dprime is not None:
        out["eps_dprime"] = triple.eps_dprime
    if triple.ko_dim is not None:
        out["ko_dim"] = triple.ko_dim
    return json.dumps(out)


def triple_from_json(text: str) -> FiniteTriple:
    obj = json.loads(text)
    ko = obj.get("ko_dim")
    eps, eps_p, eps_pp = (KO_SIGN_TABLE[ko % 8] if ko is not None else (1, 1, None))
    return FiniteTriple(
        D=_mat_from_obj(obj["D"]),
        gamma=_mat_from_obj(obj["gamma"]) if "gamma" in obj else None,
        J_unitary=_mat_from_obj(obj["J_unitary"]) if "J_unitary" in obj else None,
        gens=[_mat_from_obj(g) for g in obj.get("gens", [])],
        eps=obj.get("eps", eps), eps_prime=obj.get("eps_prime", eps_p),
        eps_dprime=obj.get("eps_dprime", eps_pp), ko_dim=ko,
        label="file")
