"""Eigenvalue/multiplicity sequences for the catalog of spectral triples.

A `Spectrum` is a lazily generated, strictly increasing sequence of
(singular value, multiplicity) pairs, delivered in numpy blocks whose sizes
depend only on the index, together with metadata: the summability dimension
p, the kernel dimension, and a tail model used by the summation engine to
certify truncations (on the round spheres, their exact data: singular
values n + c and a multiplicity polynomial, `SphereTail`).

Catalog:
  * round spheres S^d (trivial/nontrivial spin for d = 1),
  * flat tori T^d with any of the 2^d spin structures,
  * noncommutative tori T^d_Theta (spectrum is Theta-independent),
  * standard Podles spheres (full D_q and simplified D_q^S),
plus a JSON-lines loader for externally supplied spectra.

Both tori are cut at a radius and grouped by the exact lattice-norm counts
of `summation.lattice_sq_counts` (a spin-shifted axis is one parity class).
numpy loads with the first block, not with a factory or its metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat
from typing import Callable, Iterator

from .special import q_number

__all__ = [
    "SpectrumEntry",
    "SpectrumMeta",
    "PodlesParams",
    "Spectrum",
    "PolynomialTail",
    "SphereTail",
    "ExponentialTail",
    "LogSquareTail",
    "sphere_spectrum",
    "torus_spectrum",
    "nctorus_spectrum",
    "podles_spectrum",
    "podles_diag_A",
    "load_spectrum_jsonl",
    "save_spectrum_jsonl",
]


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    mult: int


@dataclass(frozen=True)
class PolynomialTail:
    """Counting-function bound N(L) <= coeff * (offset + L)^power."""
    coeff: float
    power: float
    offset: float


@dataclass(frozen=True)
class SphereTail(PolynomialTail):
    """Exact data of a round sphere on top of its counting bound: the n-th
    singular value is u_n = n + shift (squared if `squared`), with
    multiplicity M_n = sum_j mults[j] u_n^j."""
    shift: float
    mults: tuple[float, ...]
    squared: bool = False


@dataclass(frozen=True)
class ExponentialTail:
    """Geometric growth: mu_{m+1} >= ratio * mu_m for every m, and
    M_{m+1}/M_m <= (n+2)/(n+1) for every m >= n."""
    ratio: float


@dataclass(frozen=True)
class LogSquareTail:
    """mu_n = ln^2(n + shift), M_n = 1: heat tails via u = ln x substitution."""
    shift: float


@dataclass(frozen=True)
class SpectrumMeta:
    dimension_p: float
    kernel_dim: int
    label: str
    tail: object | None  # PolynomialTail (SphereTail) | ExponentialTail | LogSquareTail


Block = tuple   # (values, multiplicities): numpy arrays, float64 and integer

_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 14


def block_ranges(stop: int | None = None) -> Iterator[tuple[int, int]]:
    """Index ranges [lo, hi) of the blocks: 64 entries, doubling up to 2^14.

    The schedule depends on the index alone.  Short sums stay in the first
    block; the cap keeps a block's working arrays near a megabyte.
    """
    lo, size = 0, _FIRST_BLOCK
    while stop is None or lo < stop:
        hi = lo + size if stop is None else min(lo + size, stop)
        yield lo, hi
        lo, size = hi, min(2 * size, _MAX_BLOCK)


def _finite_prefix(values) -> int:
    """Length of an increasing block's finite part: the values end at inf."""
    return int((values == math.inf).argmax()) if values[-1] == math.inf else values.size


def _sliced(values, mults) -> Callable[[], Iterator[Block]]:
    """Block factory over a finite spectrum held in arrays."""
    def gen() -> Iterator[Block]:
        for lo, hi in block_ranges(values.size):
            yield values[lo:hi], mults[lo:hi]
    return gen


class Spectrum:
    """Lazy strictly-increasing (value, mult) sequence with metadata.

    The sequence comes as blocks: `blocks()` returns a fresh iterator of
    (values, mults) array pairs cut by `block_ranges`; `entries()` is a view
    of the same sequence one `SpectrumEntry` at a time.

    `heat0_closed`, when set by a factory, is an exact closed form of the
    kernel-free heat trace sum_n' M_n e^{-t mu_n} (e.g. the binomial
    generating function of sphere multiplicities); it lets quadratures reach
    arbitrarily small t.
    """

    def __init__(self, meta: SpectrumMeta, blocks: Callable[[], Iterator[Block]],
                 heat0_closed: Callable[[float], float] | None = None):
        self.meta = meta
        self._blocks = blocks
        self.heat0_closed = heat0_closed

    def blocks(self) -> Iterator[Block]:
        return self._blocks()

    def entries(self) -> Iterator[SpectrumEntry]:
        for values, mults in self._blocks():
            yield from map(SpectrumEntry, values.tolist(), map(int, mults.tolist()))

    def take(self, n: int) -> list[SpectrumEntry]:
        return list(islice(self.entries(), n))

    def squared(self) -> "Spectrum":
        """Spectrum of D^2: singular values squared, dimension halved."""
        meta = self.meta
        tail = meta.tail
        if isinstance(tail, PolynomialTail):
            # N_sq(L) = N(sqrt(L)) <= coeff (offset + sqrt(L))^power
            counting = (tail.coeff, tail.power / 2.0, (tail.offset + 1.0) ** 2)
            if isinstance(tail, SphereTail) and not tail.squared:
                tail = SphereTail(*counting, tail.shift, tail.mults, squared=True)
            else:
                tail = PolynomialTail(*counting)
        elif isinstance(tail, ExponentialTail):
            # mu^2 grows by ratio^2; the product overflows to inf where ** raises
            tail = ExponentialTail(tail.ratio * tail.ratio)
        new_meta = SpectrumMeta(meta.dimension_p / 2.0, meta.kernel_dim,
                                meta.label + "^2", tail)
        base_blocks = self._blocks

        def gen() -> Iterator[Block]:
            import numpy as np
            # the squares end where they overflow, as the values end at inf
            for values, mults in base_blocks():
                with np.errstate(over="ignore"):
                    sq = values * values
                end = _finite_prefix(sq)
                if end:
                    yield sq[:end], mults[:end]
                if end < sq.size:
                    return

        return Spectrum(new_meta, gen)


@dataclass(frozen=True)
class PodlesParams:
    q: float
    w: complex
    u: float = field(init=False)
    kappa: complex = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError("PodlesParams: need 0 < q < 1")
        if self.w == 0:
            raise ValueError("PodlesParams: need w != 0")
        object.__setattr__(self, "u", abs(self.w) * self.q / (1.0 - self.q ** 2))
        object.__setattr__(self, "kappa", 2j * math.pi / math.log(self.q))


# ---------------------------------------------------------------------------
# Spheres
# ---------------------------------------------------------------------------

def sphere_spectrum(d: int, spin: str = "nontrivial") -> Spectrum:
    """Dirac spectrum of the round S^d.

    For d >= 2 (or nontrivial spin on S^1): mu_n = n + d/2 with multiplicity
    2^{floor(d/2)+1} C(n+d-1, d-1).  Trivial spin on S^1: mu_n = n (n >= 1)
    with multiplicity 2 and a one-dimensional kernel.
    """
    if d < 1:
        raise ValueError("sphere_spectrum: need d >= 1")
    if spin not in ("trivial", "nontrivial"):
        raise ValueError(f"sphere_spectrum: unknown spin {spin!r}")
    if spin == "trivial" and d != 1:
        raise ValueError("sphere_spectrum: trivial spin only on S^1")
    if d == 1 and spin == "trivial":
        meta = SpectrumMeta(
            1.0, 1, "S^1 (trivial spin)",
            tail=SphereTail(coeff=2.0, power=1.0, offset=1.0, shift=1.0, mults=(2.0,)))

        def gen() -> Iterator[Block]:
            import numpy as np
            for lo, hi in block_ranges():
                yield np.arange(lo + 1.0, hi + 1.0), np.full(hi - lo, 2, dtype=np.int64)

        def heat0(t: float) -> float:
            # 2 sum_{n>=1} e^{-tn} = 2 e^{-t}/(1 - e^{-t})
            return 2.0 / math.expm1(t)

        return Spectrum(meta, gen, heat0_closed=heat0)

    m = 2 ** (d // 2 + 1)
    # N(L): total count up to n = L - d/2 is m * C(n+d, d) <= (m/d!) (L + d)^d
    coeff = m * (1.0 + d) ** d / math.factorial(d)
    # M = m C(n+d-1, d-1) = m/(d-1)! prod_{i<d} (u - d/2 + i) in u = n + d/2, exactly
    poly = [Fraction(m, math.factorial(d - 1))]
    for i in range(1, d):
        root = Fraction(d, 2) - i
        poly = [a - root * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    meta = SpectrumMeta(float(d), 0, f"S^{d}",
                        tail=SphereTail(coeff=coeff, power=float(d), offset=float(d),
                                        shift=d / 2.0, mults=tuple(map(float, poly))))

    def mults(np, n):
        # C(n+i, i) = C(n+i-1, i-1) (n+i) / i is exact in int64 while the
        # products stay below 2^63; past that, from Python integers
        if d * m * math.comb(int(n[-1]) + d - 1, d - 1) >= 2 ** 63:
            return np.array([m * math.comb(k + d - 1, d - 1) for k in n.tolist()], dtype=float)
        c = np.ones_like(n)
        for i in range(1, d):
            c = c * (n + i) // i
        return m * c

    def gen() -> Iterator[Block]:
        import numpy as np
        for lo, hi in block_ranges():
            n = np.arange(lo, hi)
            yield n + d / 2.0, mults(np, n)

    def heat0(t: float) -> float:
        # m sum_n C(n+d-1, d-1) e^{-t(n + d/2)} = m e^{-td/2} (1-e^{-t})^{-d}
        return m * math.exp(-t * d / 2.0) * (-math.expm1(-t)) ** (-d)

    return Spectrum(meta, gen, heat0_closed=heat0)


# ---------------------------------------------------------------------------
# Tori
# ---------------------------------------------------------------------------

def _lattice_tail(d: int, two_pi: bool) -> PolynomialTail:
    # N(L) <= 2^{floor(d/2)} * #(ball of radius L/(2pi) + diam) * margin
    scale = 2.0 * math.pi if two_pi else 1.0
    vol_d = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    mult = 2 ** (d // 2)
    return PolynomialTail(coeff=mult * vol_d / scale ** d, power=float(d),
                          offset=scale * (math.sqrt(d) + 1.0))


def _lattice_spectrum(meta: SpectrumMeta, parities: tuple, scale: float,
                      bound: float) -> Spectrum:
    """Values scale |n|, 0 < |n| <= bound, over the n in Z^d with the axis
    parities of `lattice_sq_counts`; 2^{floor(d/2)} per lattice point."""
    import numpy as np

    from .summation import lattice_sq_counts
    counts = lattice_sq_counts(parities, int(math.ceil(bound * bound)) + 1)
    m = np.flatnonzero(counts[1:]) + 1
    values = scale * np.sqrt(m)
    keep = values <= scale * bound + 1e-12
    return Spectrum(meta, _sliced(values[keep], counts[m[keep]] * 2 ** (len(parities) // 2)))


def torus_spectrum(d: int, spin: tuple[int, ...] | None = None,
                   radius_cut: float = 10.0) -> Spectrum:
    """Dirac spectrum of the flat T^d with spin structure s in {0,1}^d.

    Singular values 2 pi |k + s/2| over k in Z^d with |k + s/2| <= radius_cut;
    each lattice point carries multiplicity 2^{floor(d/2)} (both signs
    combined); the kernel has dimension 2^{floor(d/2)} iff s = 0.
    """
    if radius_cut <= 0:
        raise ValueError("torus_spectrum: need radius_cut > 0")
    s_bits = tuple(int(b) for b in (spin if spin is not None else (0,) * d))
    if len(s_bits) != d or any(b not in (0, 1) for b in s_bits):
        raise ValueError("torus_spectrum: spin must be a d-bit vector")
    meta = SpectrumMeta(float(d), 0 if any(s_bits) else 2 ** (d // 2),
                        f"T^{d} spin {''.join(map(str, s_bits))}",
                        tail=_lattice_tail(d, two_pi=True))
    # 2 pi |k + s/2| = pi |2k + s|, and 2k_j + s_j runs over the integers of parity s_j
    return _lattice_spectrum(meta, s_bits, math.pi, 2.0 * radius_cut)


def nctorus_spectrum(d: int, radius_cut: float = 10.0) -> Spectrum:
    """|D| spectrum of the noncommutative torus: |k| over Z^d, Theta-independent.

    Multiplicity 2^{floor(d/2)} per lattice point; kernel dim 2^{floor(d/2)}.
    """
    if radius_cut <= 0:
        raise ValueError("nctorus_spectrum: need radius_cut > 0")
    meta = SpectrumMeta(float(d), 2 ** (d // 2), f"T^{d}_Theta",
                        tail=_lattice_tail(d, two_pi=False))
    return _lattice_spectrum(meta, (None,) * d, 1.0, radius_cut)


# ---------------------------------------------------------------------------
# Podles spheres
# ---------------------------------------------------------------------------

def podles_spectrum(params: PodlesParams, simplified: bool = False) -> Spectrum:
    """Singular values of the Podles Dirac operators, multiplicity 4(n+1).

    Full D_q:        mu_n = |w| [n+1]   with [x] the q-number,
    simplified D_q^S: mu_n = u q^{-(n+1)} = |w| q^{-n} / (1-q^2),
    so that mu_n(D_q) = mu_n^S - u^2 / mu_n^S.  Both are 0-dimensional.
    """
    q, u, aw = params.q, params.u, abs(params.w)
    L = -math.log(q)

    def mu(n: int) -> float:
        try:
            if simplified:
                return u * q ** (-(n + 1))
            return aw * q_number(n + 1, q)
        except OverflowError:
            return math.inf

    label = f"Podles q={q} ({'D_q^S' if simplified else 'D_q'})"
    # mu_{n+1}/mu_n is 1/q for D_q^S, and [n+2]/[n+1] falls towards 1/q for D_q
    meta = SpectrumMeta(0.0, 0, label, tail=ExponentialTail(1.0 / q))

    def block(np, lo: int, hi: int):
        # mu on a block, mapping libm's pow or sinh as the scalar formula does
        x = np.arange(lo + 1.0, hi + 1.0)
        try:
            if simplified:
                return u * np.fromiter(map(math.pow, repeat(q), (-x).tolist()), float, x.size)
            if x[-1] * L < 700.0:       # q_number's sinh branch
                return aw * (np.fromiter(map(math.sinh, (x * L).tolist()), float, x.size)
                             / math.sinh(L))
        except OverflowError:
            pass
        return np.fromiter(map(mu, range(lo, hi)), float, hi - lo)

    def gen() -> Iterator[Block]:
        import numpy as np
        for lo, hi in block_ranges():
            values = block(np, lo, hi)
            end = _finite_prefix(values)
            if end:
                yield values[:end], 4 * np.arange(lo + 1, lo + end + 1)
            if end < hi - lo:
                return

    return Spectrum(meta, gen)


def _alpha0(params: PodlesParams, l: float, sign: int) -> float:
    q = params.q
    qn = lambda x: q_number(x, q)
    if sign > 0:
        num = (q - 1.0 / q) * qn(l - 0.5) * qn(l + 1.5) + q
    else:
        num = (q - 1.0 / q) * qn(l - 0.5) * qn(l + 1.5) - 1.0 / q
    return num / (math.sqrt(q) * qn(2 * l) * qn(2 * l + 2))


def podles_diag_A(params: PodlesParams, l: float, sign: int = +1,
                  return_terms: bool = False):
    """Sum over m of the diagonal coefficients A^0_{l,m,+/-} of pi_{+/-}(A).

    l must be a positive half-integer; the diagonal coefficients follow the
    equivariant-representation formulas

        A^0_{l,m} = q^{-1/2}/(1+q^2) ([l-m+1][l+m] - q^2 [l-m][l+m+1]) a^0_l
                    + 1/(1+q^2),

    with a^0_l depending on the representation sign.
    """
    if abs(2 * l - round(2 * l)) > 1e-12 or round(2 * l) % 2 == 0 or l <= 0:
        raise ValueError("podles_diag_A: l must be in N + 1/2")
    q = params.q
    a0 = _alpha0(params, l, sign)
    qn = lambda x: q_number(x, q)
    pref = q ** (-0.5) / (1.0 + q * q)
    const = 1.0 / (1.0 + q * q)
    total = 0.0
    terms = []
    m = -l
    while m <= l + 1e-9:
        val = pref * (qn(l - m + 1) * qn(l + m) - q * q * qn(l - m) * qn(l + m + 1)) * a0 \
            + const
        total += val
        if return_terms:
            terms.append(val)
        m += 1.0
    if return_terms:
        return total, terms
    return total


# ---------------------------------------------------------------------------
# External JSON-lines interface
# ---------------------------------------------------------------------------

def load_spectrum_jsonl(path: str) -> Spectrum:
    """Load a spectrum from JSON lines.

    First line is a header object {"p": float, "kernel": int, "label": str};
    each following line is {"value": float, "mult": int}.  Values must be
    finite and strictly increasing, multiplicities positive JSON integers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    if not lines:
        raise ValueError("load_spectrum_jsonl: empty file")
    header = json.loads(lines[0])
    for key in ("p", "kernel", "label"):
        if key not in header:
            raise ValueError(f"load_spectrum_jsonl: header missing {key!r}")
    values: list[float] = []
    mults: list[int] = []
    for i, ln in enumerate(lines[1:], start=2):
        row = json.loads(ln)
        v, mlt = float(row["value"]), row["mult"]
        if not math.isfinite(v):
            raise ValueError(f"load_spectrum_jsonl: line {i}: value must be finite")
        if type(mlt) is not int:
            raise ValueError(f"load_spectrum_jsonl: line {i}: mult must be an integer")
        if v <= 0:
            raise ValueError(f"load_spectrum_jsonl: line {i}: value must be > 0")
        if values and v <= values[-1]:
            raise ValueError(f"load_spectrum_jsonl: line {i}: values must be strictly increasing")
        if mlt < 1:
            raise ValueError(f"load_spectrum_jsonl: line {i}: mult must be >= 1")
        values.append(v)
        mults.append(mlt)
    import numpy as np
    meta = SpectrumMeta(float(header["p"]), int(header["kernel"]),
                        str(header["label"]), tail=None)
    return Spectrum(meta, _sliced(np.array(values, dtype=float), np.array(mults, dtype=np.int64)))


def save_spectrum_jsonl(path: str, spectrum: Spectrum, n: int) -> None:
    meta = spectrum.meta
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"p": meta.dimension_p, "kernel": meta.kernel_dim,
                             "label": meta.label}) + "\n")
        for e in spectrum.take(n):
            fh.write(json.dumps({"value": e.value, "mult": e.mult}) + "\n")
