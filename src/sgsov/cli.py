"""Batch command-line surface.

Commands: ``verify-ybe``, ``averages``, ``sov-basis``, ``spectrum``,
``qfunctions``, ``formfactors`` and ``suite``.  All commands read one
JSON config file (``--config``) overridable by flags, emit one
self-describing record per result row (``--format json`` gives JSON
Lines, ``--format table`` aligned text), and follow the exit-code
contract: 0 pass, 2 configuration error, 3 numerical-tolerance failure,
4 degenerate-parameter rejection.  Output is byte-identical for
identical seed and config; timing goes to stderr only.

Tolerances are overridden per name with ``--tol.<name> <value>`` (or
``--tol.<name>=<value>``).  The environment variable
``SGSOV_NUM_THREADS`` caps BLAS thread counts (applied before the
numerical libraries load).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import laurent
from .acceptance import CRITERIA, run_suite
from .averages import compute_grids
from .config import RunConfig, load_config
from .errors import ConfigError, DegenerateModelError, ToleranceError
from .observables import form_factor_det_scale
from .pipeline import solve
from .sov_basis import diagonalize_b_family, grid_labels
from .spectrum import MIN_COEFF_GAP, baxter_coeffs, oracle_spectrum, q_from_t, tq_residual
from .yang_baxter import (
    b_commutator_residual,
    monodromy_rll_residual,
    transfer_commutator_residual,
    verify_rll,
)

__all__ = ["main"]


def _plain(value: Any):
    """Make values JSON-ready: complex -> [re, im], numpy -> python."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()] if value.dtype.kind == "c" else value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


# how json writes the non-finite floats whose repr is "nan", "inf", "-inf"
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _texts(values: np.ndarray) -> list[str]:
    """JSON text of each entry of a real, integer or boolean array, in C order."""
    flat = values.ravel()
    if flat.dtype.kind == "b":
        return np.where(flat, "true", "false").tolist()
    if flat.dtype.kind in "iu":
        return list(map(int.__repr__, flat.tolist()))
    text = list(map(float.__repr__, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        text[i] = _NONFINITE[text[i]]
    return text


def _nest(shape: tuple, sep: str) -> str:
    """Template of a nested list of the given shape, one ``%s`` per entry."""
    if not shape:
        return "%s"
    return "[" + sep.join([_nest(shape[1:], sep)] * shape[0]) + "]"


@dataclass(frozen=True)
class _Block:
    """A family of records with the same fields, stored by column.

    ``fields`` maps each field name, in the family's field order, to a
    ``numpy`` array whose first axis runs over the records (a column), or
    to one value that every record shares (a constant).  A family with no
    column is one record.  The field named ``optional`` appears only in
    the records where ``mask`` is true.
    """

    record: str
    fields: dict
    optional: str | None = None
    mask: np.ndarray | None = None

    def __len__(self) -> int:
        return next((len(v) for v in self.fields.values() if isinstance(v, np.ndarray)), 1)

    def lines(self, fmt: str) -> list[str]:
        """The records as ``_render`` writes them, one template fill per line."""
        if fmt == "json":
            fields = {**self.fields, "record": self.record}
            names, keys = sorted(fields), {k: json.dumps(k) + ":" for k in fields}
            layout = ("{", ",", "}", (",", ":"))
        else:
            fields = self.fields
            names, keys = list(fields), {k: f"{k}=" for k in fields}
            layout = (f"{self.record:24s} ", "  ", "", (", ", ": "))
        if self.optional is None:
            return _fill(fields, names, keys, layout, slice(None), len(self))
        mask = np.asarray(self.mask, dtype=bool)
        lines = [""] * len(self)
        for rows, kept in ((mask, names), (~mask, [k for k in names if k != self.optional])):
            index = np.flatnonzero(rows)
            for i, line in zip(index.tolist(), _fill(fields, kept, keys, layout, index, len(index))):
                lines[i] = line
        return lines


def _fill(fields: dict, names: list, keys: dict, layout: tuple, rows, count: int) -> list[str]:
    """Lines of the ``count`` selected ``rows`` with the fields ``names``, in that order.

    One ``%`` template is built for the whole family: constants are
    written into it once, and every column entry becomes a ``%s`` slot,
    filled from that column's text.
    """
    start, join, end, seps = layout
    if not count:
        return []
    parts, columns = [], []
    for name in names:
        value = fields[name]
        if not isinstance(value, np.ndarray):
            text = json.dumps(_plain(value), sort_keys=True, separators=seps)
            parts.append((keys[name] + text).replace("%", "%%"))
            continue
        value = value[rows]
        if value.dtype.kind == "c":
            value = np.stack([value.real, value.imag], axis=-1)
        parts.append(keys[name].replace("%", "%%") + _nest(value.shape[1:], seps[0]))
        text = _texts(value.reshape(count, -1).T)
        columns.extend(text[j:j + count] for j in range(0, len(text), count))
    template = start.replace("%", "%%") + join.join(parts) + end
    return [template % row for row in (zip(*columns) if columns else [()] * count)]


def _render(records: list, fmt: str) -> str:
    """One line per record; a dict record (no array values) is a one-row family."""
    lines = []
    for rec in records:
        if not isinstance(rec, _Block):
            fields = dict(rec)
            rec = _Block(fields.pop("record"), fields)
        lines.extend(rec.lines(fmt))
    return "\n".join(lines) + "\n"


def _seed_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _child_seeds(seed: int):
    return np.random.SeedSequence(seed).spawn(2)


# ---------------------------------------------------------------------------
# commands: each returns (records, all_checks_passed)

def cmd_verify_ybe(cfg: RunConfig):
    params = cfg.make_model()
    rll_tol = params.tol("rll")
    comm_tol = params.tol("commutator")
    rng = _seed_rng(cfg.seed, 11)
    records, ok = [], True
    for n in range(1, params.N + 1):
        worst = 0.0
        for _ in range(cfg.lambda_grid.count):
            lam, mu = laurent.sample_annulus(
                rng, 2, cfg.lambda_grid.r_min, cfg.lambda_grid.r_max
            )
            worst = max(worst, verify_rll(params, n, lam, mu))
        passed = worst <= rll_tol
        ok &= passed
        records.append({
            "record": "rll_residual", "site": n, "pairs": cfg.lambda_grid.count,
            "value": worst, "tolerance": rll_tol, "passed": passed,
        })
    lam, mu = laurent.sample_annulus(rng, 2, cfg.lambda_grid.r_min, cfg.lambda_grid.r_max)
    mono_res = monodromy_rll_residual(params, lam, mu)
    records.append({
        "record": "monodromy_rll_residual", "value": mono_res,
        "tolerance": rll_tol, "passed": mono_res <= rll_tol,
    })
    ok &= mono_res <= rll_tol
    for name, fn in (
        ("transfer_commutator", transfer_commutator_residual),
        ("b_commutator", b_commutator_residual),
    ):
        worst = 0.0
        for _ in range(cfg.lambda_grid.count):
            lam, mu = laurent.sample_annulus(
                rng, 2, cfg.lambda_grid.r_min, cfg.lambda_grid.r_max
            )
            worst = max(worst, fn(params, lam, mu))
        passed = worst <= comm_tol
        ok &= passed
        records.append({
            "record": name, "pairs": cfg.lambda_grid.count,
            "value": worst, "tolerance": comm_tol, "passed": passed,
        })
    return records, ok


def cmd_averages(cfg: RunConfig):
    params = cfg.make_model()
    avg = compute_grids(params)
    coeffs = baxter_coeffs(params)
    tol = params.tol("closed_form")
    rng = _seed_rng(cfg.seed, 12)
    records, ok = [], True
    lambdas = laurent.sample_annulus(
        rng, cfg.lambda_grid.count, cfg.lambda_grid.r_min, cfg.lambda_grid.r_max
    )
    f, cal_a, cal_b = avg.f(lambdas), avg.cal_a(lambdas), avg.cal_b(lambdas)
    records.append(_Block("averages", {"Lambda": lambdas, "F": f, "calA": cal_a, "calB": cal_b}))
    # structural identities on the sampled grid
    par = np.max(np.abs(avg.cal_b(-lambdas) + cal_b) / np.abs(cal_b))
    f_pair = f * avg.f(-lambdas)
    ident = np.max(np.abs(cal_a ** 2 - cal_b ** 2 - f_pair) / np.abs(f_pair))
    bridge = np.max(np.abs(
        np.array([np.prod(coeffs.a(params.q ** np.arange(1, params.p + 1) * lam))
                  for lam in lambdas ** (1.0 / params.p)]) - f) / np.abs(f))
    for name, value in (("parity_oddness", par), ("quadratic_identity", ident),
                        ("coefficient_product_bridge", bridge)):
        passed = value <= tol
        ok &= passed
        records.append({"record": name, "value": float(value),
                        "tolerance": tol, "passed": passed})
    for n in range(params.N):
        scale = np.sum(np.abs(avg.b_coeffs) * np.abs(avg.Z[n]) ** np.arange(len(avg.b_coeffs)))
        resid = abs(np.polynomial.polynomial.polyval(avg.Z[n], avg.b_coeffs)) / scale
        records.append({
            "record": "Z", "n": n + 1, "value": complex(avg.Z[n]),
            "zero_residual": float(resid), "tolerance": tol, "passed": resid <= tol,
        })
        ok &= resid <= tol
        for k in range(params.p):
            records.append({"record": "y_grid", "n": n + 1, "k": k,
                            "value": complex(avg.grids[n, k])})
    return records, ok


def cmd_sov_basis(cfg: RunConfig):
    params = cfg.make_model()
    avg = compute_grids(params)
    seeds = _child_seeds(cfg.seed)
    frame = diagonalize_b_family(params, avg, seeds[1])
    sim_tol = params.tol("simdiag")
    measure_tol = params.tol("measure")
    records, ok = [], True

    sim = frame.diagnostics["simdiag_residual"]
    ok &= sim <= sim_tol
    records.append({"record": "simdiag_residual", "value": float(sim),
                    "tolerance": sim_tol, "passed": sim <= sim_tol})
    records.append({"record": "condition_number",
                    "value": float(frame.diagnostics["condition_number"])})
    for name in ("pairing_offdiag", "measure_deviation"):
        value = float(frame.diagnostics[name])
        ok &= value <= measure_tol
        records.append({"record": name, "value": value,
                        "tolerance": measure_tol, "passed": value <= measure_tol})
    records.append(_Block("sov_vector", {
        "index": np.arange(frame.dim), "label": grid_labels(params.N, params.p), "measure": frame.measure,
    }))
    return records, ok


def cmd_spectrum(cfg: RunConfig):
    params = cfg.make_model()
    seeds = _child_seeds(cfg.seed)
    oracle = oracle_spectrum(params, seeds[0])
    fit_tol = params.tol("fit")
    reality_tol = params.tol("reality")
    records, ok = [], True
    records.append({"record": "residual", "value": float(oracle.residual)})
    gap_ok = oracle.min_coeff_gap > MIN_COEFF_GAP
    ok &= gap_ok
    records.append({"record": "min_coeff_gap", "value": float(oracle.min_coeff_gap),
                    "tolerance": MIN_COEFF_GAP, "passed": gap_ok})
    fit = np.array([pr.fit_residual for pr in oracle.pairs])
    imag = np.array([pr.imag_residue for pr in oracle.pairs])
    passed = fit <= fit_tol
    ok &= bool(passed.all())
    records.append(_Block("t_coeffs", {
        "index": np.arange(len(oracle.pairs)),
        "value": np.array([pr.t_coeffs for pr in oracle.pairs]),
        "fit_residual": fit, "tolerance": fit_tol, "passed": passed,
        "imag_residue": imag, "reality_tolerance": reality_tol,
        "reality_warning": imag > reality_tol,
    }))
    return records, ok


def cmd_qfunctions(cfg: RunConfig):
    params = cfg.make_model()
    avg = compute_grids(params)
    coeffs = baxter_coeffs(params)
    seeds = _child_seeds(cfg.seed)
    oracle = oracle_spectrum(params, seeds[0])
    q_tol = params.tol("q_fit")
    tq_tol = params.tol("tq")
    rng = _seed_rng(cfg.seed, 13)
    lams = laurent.sample_annulus(rng, cfg.lambda_grid.count,
                                  cfg.lambda_grid.r_min, cfg.lambda_grid.r_max,
                                  avoid=avg.all_points(negated=True))
    records, ok = [], True
    q_fns = q_from_t(params, avg, coeffs, [pr.t_coeffs for pr in oracle.pairs])
    tq = np.array([np.max(tq_residual(coeffs, pr.t_coeffs, qf, lams))
                   for pr, qf in zip(oracle.pairs, q_fns)])
    fit = np.array([qf.fit_residual for qf in q_fns])
    passed = (fit <= q_tol) & (tq <= tq_tol)
    ok &= bool(passed.all())
    records.append(_Block("Q_coeffs", {
        "index": np.arange(len(oracle.pairs)),
        "value": np.array([qf.coeffs for qf in q_fns]),
        "degree": np.array([qf.degree for qf in q_fns]), "grid_residual": fit,
        "tq_residual": tq, "tolerance": q_tol, "tq_tolerance": tq_tol,
        "passed": passed, "imag_residue": np.array([qf.imag_residue for qf in q_fns]),
    }))
    return records, ok


def cmd_formfactors(cfg: RunConfig):
    params = cfg.make_model()
    sol = solve(params, seed=cfg.seed)
    off_tol = params.tol("ff_offdiag")
    ratio_tol = params.tol("ff_ratio")
    records, ok = [], True

    for tag in ("identity", "u1"):
        dets, directs = sol.form_factor_table(tag), sol.direct_table(tag)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = dets / directs  # off-diagonal identity ratios are not written
        rows, cols = np.indices(dets.shape).reshape(2, -1)
        records.append(_Block("Phi", {
            "operator": tag, "row": rows, "col": cols, "det": dets.ravel(),
            "direct": directs.ravel(), "ratio": ratio.ravel(),
        }, optional=None if tag == "u1" else "ratio", mask=rows == cols))
        if tag == "identity":
            diag_ratio = np.diag(ratio)
            const = complex(diag_ratio.mean())
            worst = 0.0
            for jp, tp in enumerate(sol.pairs):
                scale = form_factor_det_scale(sol.avg, sol.pairs, tp, tag)
                # np.hypot is the scalar abs(); np.abs on complex arrays can differ by an ulp
                off = np.delete(np.hypot(dets[jp].real, dets[jp].imag) / scale, jp)
                worst = max(worst, float(off.max()))
            passed = worst <= off_tol
            ok &= passed
            records.append({"record": "identity_offdiag_max", "value": worst,
                            "tolerance": off_tol, "passed": passed})
            spread = float(np.max(np.abs(diag_ratio / const - 1)))
            passed = spread <= ratio_tol
            ok &= passed
            records.append({"record": "identity_diag_ratio_spread", "value": spread,
                            "constant": const, "tolerance": ratio_tol, "passed": passed})
        else:
            spread = float(np.max(np.abs(ratio / const - 1)))
            passed = spread <= ratio_tol
            ok &= passed
            records.append({"record": "u1_ratio_spread", "value": spread,
                            "constant": const, "tolerance": ratio_tol, "passed": passed})
    return records, ok


def cmd_suite(cfg: RunConfig, ab_initio: bool = False, stretch: bool = False):
    params = cfg.make_model()
    report = run_suite(params, cfg.seed, ab_initio=ab_initio)
    records = []
    for res in report.results:
        records.append({
            "record": "criterion", "id": res.cid, "name": res.name,
            "passed": res.passed, "tolerance": res.tolerance,
            "measured": res.measured, "warnings": list(res.warnings),
        })
        print(f"criterion {res.cid:>9s} {res.name:32s} "
              f"{'PASS' if res.passed else 'FAIL'}  ({res.runtime_s:.2f}s)",
              file=sys.stderr)
    ok = report.passed
    if stretch:
        for sp, sn in ((5, 3), (3, 5)):
            scfg = RunConfig(N=sn, p=sp, p_prime=2, seed=cfg.seed,
                             lambda_grid=cfg.lambda_grid, tolerances=cfg.tolerances)
            sparams = scfg.make_model()
            sreport = run_suite(sparams, cfg.seed, criteria=CRITERIA[:4],
                                enforce_budgets=False)
            for res in sreport.results:
                records.append({
                    "record": "stretch_criterion", "p": sp, "N": sn,
                    "id": res.cid, "name": res.name, "passed": res.passed,
                    "tolerance": res.tolerance, "measured": res.measured,
                })
                ok &= res.passed
    records.append({"record": "suite_summary", "passed": ok,
                    "criteria": len(records)})
    return records, ok


# ---------------------------------------------------------------------------

def _split_tol_flags(argv: list[str]) -> tuple[list[str], dict[str, float]]:
    """Extract --tol.<name> [=]<value> pairs before argparse sees them."""
    rest, tols = [], {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            body = arg[len("--tol."):]
            if "=" in body:
                name, value = body.split("=", 1)
            else:
                name = body
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"missing value for --tol.{name}")
                value = argv[i]
            try:
                tols[name] = float(value)
            except ValueError:
                raise ConfigError(f"--tol.{name} needs a number, got {value!r}") from None
        else:
            rest.append(arg)
        i += 1
    return rest, tols


def _parse_couplings(values):
    if values is None:
        return None
    try:
        return tuple(complex(v) for v in values.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse coupling value: {exc}") from None


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgsov",
        description="Lattice sine-Gordon separation-of-variables toolkit",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="master seed for all randomness")
    parser.add_argument("--n-sites", type=int, dest="N", help="number of sites (odd)")
    parser.add_argument("--p", type=int, help="local dimension (odd >= 3)")
    parser.add_argument("--p-prime", type=int, help="even partner of p")
    parser.add_argument("--kappa", help="comma-separated site couplings (complex literals)")
    parser.add_argument("--xi", help="comma-separated site inhomogeneities")
    parser.add_argument("--out", help="write records to this path instead of stdout")
    parser.add_argument("--format", choices=("table", "json"), help="record format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-ybe", "averages", "sov-basis", "spectrum",
                 "qfunctions", "formfactors"):
        sub.add_parser(name)
    suite = sub.add_parser("suite")
    suite.add_argument("--ab-initio", action="store_true",
                       help="also search the spectrum from grid determinants")
    suite.add_argument("--stretch", action="store_true",
                       help="repeat structural criteria on larger instances")
    return parser


COMMANDS = {
    "verify-ybe": cmd_verify_ybe,
    "averages": cmd_averages,
    "sov-basis": cmd_sov_basis,
    "spectrum": cmd_spectrum,
    "qfunctions": cmd_qfunctions,
    "formfactors": cmd_formfactors,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv, tol_flags = _split_tol_flags(argv)
        args = build_parser().parse_args(argv)
        overrides = {
            "N": args.N, "p": args.p, "p_prime": args.p_prime,
            "kappa": _parse_couplings(args.kappa), "xi": _parse_couplings(args.xi),
            "seed": args.seed, "out_path": args.out, "out_format": args.format,
        }
        if tol_flags:
            overrides["tolerances"] = tol_flags
        cfg = load_config(args.config, overrides)

        t0 = time.perf_counter()
        if args.command == "suite":
            records, ok = cmd_suite(cfg, ab_initio=args.ab_initio, stretch=args.stretch)
        else:
            records, ok = COMMANDS[args.command](cfg)
        text = _render(records, cfg.out_format)
        if cfg.out_path:
            with open(cfg.out_path, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        count = sum(len(r) if isinstance(r, _Block) else 1 for r in records)
        print(f"{args.command}: {count} records in {time.perf_counter() - t0:.2f}s",
              file=sys.stderr)
        return 0 if ok else 3
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except DegenerateModelError as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
