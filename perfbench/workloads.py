"""Benchmark workloads: inputs drawn from the workload seed, the timed
operation, and the checks made on its output.

Every operation is one ``sgsov`` command, called in-process through
``sgsov.cli.main`` with JSON records written to a file.  Each round
draws one instance and runs the command on it twice in a row (closed
loop, one caller).  The first output is checked in full; the second must
be byte-identical to it, as the command line promises for the same seed
and config.  Checks run outside the timed call.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

import reference

import sgsov.cli
from sgsov.model import DEFAULT_TOLERANCES

#: |sum_j t_j^k - Tr T^k| / sum_j |t_j|^k, k = 1..4; about 1e-15 today.
POWER_SUM_BOUND = 1e-10
#: Smallest allowed distance between two t-coefficient vectors, relative
#: to the largest coefficient.
DISTINCT_BOUND = 1e-8


def _records(text: bytes) -> list[dict]:
    return [json.loads(line) for line in text.decode().splitlines()]


def _complex(value) -> complex:
    return complex(*value) if isinstance(value, list) else complex(value)


def check_spectrum(inst: dict, records: list[dict]) -> list[str]:
    """The t-coefficient records against the reference transfer matrix.

    There must be p^N eigenvalue functions with distinct coefficient
    vectors, and their power sums must match the traces of powers of the
    reference T(lam) at the instance's own lam.
    """
    N, p, dim = inst["N"], inst["p"], inst["p"] ** inst["N"]
    rows = [r for r in records if r["record"] == "t_coeffs"]
    if len(rows) != dim:
        return [f"{len(rows)} t_coeffs records for dimension {dim}"]
    problems = []
    coeffs = np.array([[_complex(c) for c in r["value"]] for r in rows])
    gaps = np.linalg.norm(coeffs[:, None, :] - coeffs[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    if not gaps.min() > DISTINCT_BOUND * np.abs(coeffs).max():
        problems.append(f"t-coefficient vectors not distinct (gap {gaps.min():.3e})")
    lam = inst["lam"]
    tmat = reference.transfer_matrix(N, p, inst["p_prime"], inst["kappa"], inst["xi"], lam)
    t_vals = np.array([reference.eigenvalue(c, lam) for c in coeffs])
    defect = reference.power_sum_defect(tmat, t_vals)
    if not defect <= POWER_SUM_BOUND:
        problems.append(f"power-sum defect {defect:.3e} > {POWER_SUM_BOUND:.0e}")
    return problems


def check_form_factors(inst: dict, records: list[dict]) -> list[str]:
    """Determinant-versus-direct agreement recomputed from the ``Phi`` records.

    With the program's ``ff_ratio`` and ``ff_offdiag`` tolerances: one
    normalisation constant must fit det/direct over every diagonal
    identity pair and every u1 pair, and off-diagonal identity
    determinants must vanish against the diagonal ones,
    |det[i,j]| <= tol * sqrt(|det[i,i] det[j,j]|).
    """
    dim = inst["p"] ** inst["N"]
    if len(records) != 2 * dim * dim + 3:
        return [f"{len(records)} records, expected {2 * dim * dim + 3}"]
    det = {tag: np.full((dim, dim), np.nan, dtype=complex) for tag in ("identity", "u1")}
    direct = {tag: np.full((dim, dim), np.nan, dtype=complex) for tag in ("identity", "u1")}
    for rec in records:
        if rec["record"] == "Phi":
            det[rec["operator"]][rec["row"], rec["col"]] = _complex(rec["det"])
            direct[rec["operator"]][rec["row"], rec["col"]] = _complex(rec["direct"])
    if any(np.isnan(a).any() for a in (*det.values(), *direct.values())):
        return ["Phi records do not cover every pair of both operators"]

    problems = []
    ratio_tol = DEFAULT_TOLERANCES["ff_ratio"]
    off_tol = DEFAULT_TOLERANCES["ff_offdiag"]
    diag = np.diag(det["identity"])
    diag_ratio = diag / np.diag(direct["identity"])
    const = diag_ratio.mean()
    spread = float(np.max(np.abs(diag_ratio / const - 1)))
    u1_spread = float(np.max(np.abs(det["u1"] / direct["u1"] / const - 1)))
    if not max(spread, u1_spread) <= ratio_tol:
        problems.append(f"det/direct ratio spread identity {spread:.3e} u1 {u1_spread:.3e} "
                        f"> {ratio_tol:.0e}")
    off = np.abs(det["identity"]) / np.sqrt(np.outer(np.abs(diag), np.abs(diag)))
    np.fill_diagonal(off, 0.0)
    if not off.max() <= off_tol:
        problems.append(f"off-diagonal identity determinant {off.max():.3e} > {off_tol:.0e}")
    return problems


CHECKS = {
    "spectrum": check_spectrum,
    "formfactors": check_form_factors,
}


def _literal(values: np.ndarray) -> str:
    return ",".join(repr(complex(v)) if np.iscomplexobj(values) else repr(float(v))
                    for v in values)


class CliWorkload:
    """One ``sgsov`` command on instances of one size and coupling law.

    ``sgsov --seed S --n-sites N --p P --kappa .. --xi .. --format json
    --out F <command>``: couplings are drawn by the benchmark, real ones
    uniformly from [0.5, 2], complex ones with modulus uniform in
    [0.5, 2] and phase uniform in [-0.6, 0.6].
    """

    def __init__(self, command: str, N: int, p: int, complex_couplings: bool, out_path: Path):
        self.command, self.N, self.p = command, N, p
        self.complex_couplings = complex_couplings
        self.name = f"{command}-n{N}p{p}" + ("-complex" if complex_couplings else "")
        self.out_path = out_path

    def _couplings(self, rng: np.random.Generator, n: int) -> np.ndarray:
        modulus = rng.uniform(0.5, 2.0, n)
        if not self.complex_couplings:
            return modulus
        return modulus * np.exp(1j * rng.uniform(-0.6, 0.6, n))

    def _instance(self, rng: np.random.Generator, N: int, p: int) -> dict:
        seed = int(rng.integers(1, 2**31))
        kappa, xi = self._couplings(rng, N), self._couplings(rng, N)
        lam = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        argv = ["--seed", str(seed), "--n-sites", str(N), "--p", str(p),
                "--kappa", _literal(kappa), "--xi", _literal(xi),
                "--format", "json", "--out", str(self.out_path), self.command]
        return {"N": N, "p": p, "p_prime": 2, "kappa": kappa, "xi": xi, "lam": lam, "argv": argv}

    def draw(self, rng: np.random.Generator) -> dict:
        return self._instance(rng, self.N, self.p)

    def call(self, inst: dict) -> int:
        """The timed operation; returns the exit code."""
        # the command's progress and timing lines on stderr are not records
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            return sgsov.cli.main(inst["argv"])

    def output(self, inst: dict, rc: int) -> tuple[int, bytes]:
        """Untimed: the exit code and the bytes the command wrote."""
        text = self.out_path.read_bytes()
        self.out_path.unlink()
        return rc, text

    def check(self, inst: dict, out: tuple[int, bytes]) -> list[str]:
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        records = _records(text)
        # the command's own verdicts must agree with its exit code
        failed = [f"{r['record']} not passed" for r in records if r.get("passed") is False]
        return failed + CHECKS[self.command](inst, records)

    def warm_up(self, rng: np.random.Generator) -> None:
        """One call at (N, p) = (1, 3), so lazy imports and first calls are paid."""
        inst = self._instance(rng, 1, 3)
        self.output(inst, self.call(inst))


def make_workloads(work_dir: Path) -> dict[str, CliWorkload]:
    loads = [
        CliWorkload("spectrum", 5, 3, False, work_dir / "spectrum.jsonl"),
        CliWorkload("formfactors", 3, 3, True, work_dir / "formfactors.jsonl"),
    ]
    return {w.name: w for w in loads}
