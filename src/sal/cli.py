"""Command-line front end.

Subcommands: heat, zeta, action, expand, compare, finite, radius.
Output is CSV (with a mandatory header row) or JSON (array of row objects),
floats always printed with 17 significant digits in scientific notation so
identical invocations are byte-identical.  Data goes to stdout, logs to
stderr.  Exit codes: 0 ok, 2 argument error, 3 non-converged computation.
Each subcommand imports only the layers it calls (`expand` and `radius`
load no numpy).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .catalog import default_scale, in_range, resolve_triple

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.16e}"
    return str(x)


def _emit(rows: list[dict], fmt: str) -> None:
    if not rows:
        return
    if fmt == "json":
        out = [{k: (_fmt(v) if isinstance(v, float) else v) for k, v in r.items()}
               for r in rows]
        sys.stdout.write(json.dumps(out, indent=1) + "\n")
    else:
        cols = list(rows[0].keys())
        sys.stdout.write(",".join(cols) + "\n")
        for r in rows:
            sys.stdout.write(",".join(_fmt(r.get(c, "")) for c in cols) + "\n")


def _grid(text: str) -> list[float]:
    a, b, n = text.split(":")
    a, b, n = float(a), float(b), int(n)
    if n < 1:
        raise ValueError("grid needs n >= 1")
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def strip_count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"need a strip count >= 0, got {int(text)}")
    return int(text)


def _triple(args):
    return in_range("triple", args.triple,
                    lambda: resolve_triple(args.triple, lattice_cut=args.lattice_cut))


def _cutoff(args):
    from .cutoffs import parse_cutoff
    return in_range("cutoff", args.cutoff, lambda: parse_cutoff(args.cutoff))


def _sweep(key: str, grid: str, engine, fmt: str) -> int:
    """One row per grid point x of the report engine(x); exit 3 unless all converged."""
    rows = []
    for x in _grid(grid):
        rep = in_range(key, repr(x), lambda: engine(x))
        rows.append({key: x, "value": float(rep.value),
                     "terms": rep.terms_used, "tail_bound": rep.tail_bound,
                     "converged": rep.converged})
    _emit(rows, fmt)
    return 0 if all(r["converged"] for r in rows) else 3


def _cmd_heat(args) -> int:
    from . import series
    spec = _triple(args).spectrum
    return _sweep("t", args.t_grid, lambda t: series.heat_trace(spec, t, tol=args.tol),
                  args.format)


def _cmd_zeta(args) -> int:
    from . import series
    rt = _triple(args)
    re_s, im_s = (float(v) for v in args.s.split(","))
    rep = series.zeta_direct(rt.spectrum, complex(re_s, im_s), tol=args.tol)
    rows = [{"re_s": re_s, "im_s": im_s,
             "re_value": rep.value.real, "im_value": rep.value.imag,
             "terms": rep.terms_used, "tail_bound": rep.tail_bound,
             "converged": rep.converged}]
    _emit(rows, args.format)
    return 0 if rep.converged else 3


def _cmd_action(args) -> int:
    from . import series
    spec = _triple(args).spectrum
    f = _cutoff(args)
    return _sweep("lambda", args.lambda_grid,
                  lambda lam: series.spectral_action_direct(spec, f, lam, tol=args.tol),
                  args.format)


def _build_expansion(rt, args):
    from . import asymptotics
    if rt.zeta is None:
        raise ValueError(f"no closed-form pole data for {rt.triple_id}")
    poles = rt.zeta.poles()
    if not poles:
        raise ValueError(f"no pole data available for {rt.triple_id} "
                         "(direct summation only)")
    scale = default_scale(rt.zeta.dimension_p, n_strips=max(args.strips + 2, 4))
    return asymptotics.heat_expansion_from_poles(poles, scale,
                                                 d=rt.zeta.pole_order)


def _cmd_expand(args) -> int:
    from . import asymptotics
    rt = _triple(args)
    exp = _build_expansion(rt, args)
    if args.cutoff:
        exp = asymptotics.action_expansion(exp, _cutoff(args),
                                           d=rt.zeta.pole_order,
                                           spectrum_p=rt.zeta.dimension_p)
    terms = sorted(exp.terms, key=lambda t: (t.strip, -t.z.real, t.z.imag, t.n))
    rows = [{"strip_k": t.strip, "re_z": t.z.real, "im_z": t.z.imag, "n": t.n,
             "re_a": t.coeff.real, "im_a": t.coeff.imag}
            for t in terms if t.strip <= args.strips]
    _emit(rows, args.format)
    return 0


def _cmd_compare(args) -> int:
    from . import asymptotics, series
    rt = _triple(args)
    f = _cutoff(args)
    lams = _grid(args.lambda_grid)
    by_poles = rt.zeta is not None and not f.is_schwartz_only()
    if not by_poles and rt.action is None:
        raise ValueError("no expansion route for this triple/cutoff")
    reports = [in_range("lambda", repr(lam), lambda: series.spectral_action_direct(
        rt.spectrum, f, lam, tol=args.tol)) for lam in lams]
    direct = [float(rep.value) for rep in reports]
    rows = []
    if by_poles:
        exp_h = _build_expansion(rt, args)
        exp_a = asymptotics.action_expansion(exp_h, f, d=rt.zeta.pole_order,
                                             spectrum_p=rt.zeta.dimension_p)
        # the residue expansion reconstructs Tr f(|curly-D + P0|/Lambda);
        # reconcile with the kernel convention ker f(0) + sum' of the
        # direct summation (the f(0) - f(1/Lambda) term)
        ker = rt.spectrum.meta.kernel_dim
        expansion = lambda lam: (asymptotics.evaluate_expansion(exp_a, lam, args.strips)
                                 + ker * (f.f0() - float(f.evaluate(1.0 / lam))))
    else:       # Schwartz route: the leading closed form of the action
        expansion = lambda lam: rt.action(f, lam)
    expansion_vals = [in_range("lambda", repr(lam), lambda: expansion(lam)) for lam in lams]
    for i, lam in enumerate(lams):
        disc = direct[i] - expansion_vals[i]
        row = {"lambda": lam, "direct": direct[i],
               "expansion": expansion_vals[i], "discrepancy": disc}
        if i > 0:
            d0, d1 = abs(direct[i - 1] - expansion_vals[i - 1]), abs(disc)
            if d0 > 0 and d1 > 0:
                row["log_slope"] = (math.log(d0) - math.log(d1)) \
                    / (math.log(lams[i]) - math.log(lams[i - 1]))
            else:
                row["log_slope"] = float("inf")
        else:
            row["log_slope"] = ""
        row["tail_bound"] = reports[i].tail_bound
        row["converged"] = reports[i].converged
        rows.append(row)
    _emit(rows, args.format)
    return 0 if all(rep.converged for rep in reports) else 3


def _cmd_finite(args) -> int:
    from . import finite
    with open(args.file, "r", encoding="utf-8") as fh:
        triple = finite.triple_from_json(fh.read())
    rows = []
    rep = finite.validate(triple)
    if args.check in ("all", "axioms"):
        for k, v in rep.items():
            if isinstance(v, dict):
                continue
            rows.append({"check": k, "value": float(v) if isinstance(v, float) else v})
    if args.check in ("all", "gauge") and triple.gens:
        import numpy as np
        a, b = triple.gens[0], triple.gens[-1]
        A = finite.GaugePotential.from_witnesses(triple.D, [(1.0, a, b)])
        A = finite.GaugePotential((A.matrix + A.matrix.conj().T) / 2.0, A.witnesses)
        # a unitary of the algebra: u = exp(i h), h the Hermitian part of a
        w, V = np.linalg.eigh((a + a.conj().T) / 2.0)
        u = (V * np.exp(1j * w)) @ V.conj().T
        try:
            _, resid = finite.gauge_transform(triple, A, u)
            rows.append({"check": "gauge_covariance_residual", "value": resid})
        except ValueError as exc:
            rows.append({"check": "gauge_covariance_residual", "value": str(exc)})
    if args.check in ("all", "index") and triple.gamma is not None:
        rows.append({"check": "index", "value": finite.index_of(triple)})
        for t in (0.1, 1.0, 10.0):
            rows.append({"check": f"mckean_singer_t={t:g}",
                         "value": finite.mckean_singer(triple, t)})
    _emit(rows, args.format)
    return 0


def _cmd_radius(args) -> int:
    from . import asymptotics
    rt = _triple(args)
    if rt.radius_data is None:
        raise ValueError(f"no radius data for {rt.triple_id}")
    c, e, r = rt.radius_data
    est = asymptotics.convergence_radius(c, e, r)
    rows = [{"T": est.T, "limsup": est.limsup, "kind": est.kind,
             "window_lo": est.window[0], "window_hi": est.window[1]}]
    _emit(rows, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sal",
        description="Spectral functions of spectral triples by direct summation "
                    "and residue expansions.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=float, default=1e-12)
    common.add_argument("--lattice-cut", type=float, default=80.0,
                        help="lattice truncation radius for torus spectra")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=argparse.ArgumentParser)

    def add(name, help_):
        return sub.add_parser(name, help=help_, parents=[common])

    p = add("heat", "heat trace on a t-grid")
    p.add_argument("--triple", required=True)
    p.add_argument("--t-grid", required=True, metavar="a:b:n")
    p.set_defaults(fn=_cmd_heat)

    p = add("zeta", "zeta value by direct summation")
    p.add_argument("--triple", required=True)
    p.add_argument("--s", required=True, metavar="RE,IM")
    p.set_defaults(fn=_cmd_zeta)

    p = add("action", "spectral action on a Lambda-grid")
    p.add_argument("--triple", required=True)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--lambda-grid", required=True, metavar="a:b:n")
    p.set_defaults(fn=_cmd_action)

    p = add("expand", "residue expansion terms")
    p.add_argument("--triple", required=True)
    p.add_argument("--cutoff", default=None)
    p.add_argument("--strips", type=strip_count, default=2)
    p.set_defaults(fn=_cmd_expand)

    p = add("compare", "direct vs expansion with log-slope; exit 3 unless every direct sum "
                       "converged")
    p.add_argument("--triple", required=True)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--lambda-grid", required=True, metavar="a:b:n")
    p.add_argument("--strips", type=strip_count, default=2)
    p.set_defaults(fn=_cmd_compare)

    p = add("finite", "finite-triple checks from a JSON file")
    p.add_argument("--file", required=True)
    p.add_argument("--check", choices=("all", "axioms", "gauge", "index"),
                   default="all")
    p.set_defaults(fn=_cmd_finite)

    p = add("radius", "convergence-radius estimate")
    p.add_argument("--triple", required=True)
    p.set_defaults(fn=_cmd_radius)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
