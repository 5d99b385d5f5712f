"""Run configuration: file ingestion, flag overrides, validation.

Configuration files are JSON with the keys ``N``, ``p``, ``p_prime``,
``kappa``, ``xi``, ``seed``, ``lambda_grid``, ``tolerances`` and
``output``.  Couplings may be numbers or ``[re, im]`` pairs; ``null``
(or absence) means they are drawn uniformly from [0.5, 2] under the run
seed.  Command-line flags override file values field by field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acceptance import default_instance
from .errors import ConfigError
from .model import DEFAULT_TOLERANCES, ModelParams

__all__ = ["LambdaGrid", "RunConfig", "load_config"]


@dataclass(frozen=True)
class LambdaGrid:
    """Annulus sampling specification for spectral parameters."""

    count: int = 10
    r_min: float = 0.5
    r_max: float = 2.0

    def validate(self) -> "LambdaGrid":
        if self.count < 1:
            raise ConfigError("lambda_grid.count must be positive")
        if not 0 < self.r_min < self.r_max:
            raise ConfigError("lambda_grid radii must satisfy 0 < r_min < r_max")
        return self


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model, seed, sampling, output."""

    N: int = 3
    p: int = 3
    p_prime: int = 2
    kappa: tuple | None = None
    xi: tuple | None = None
    seed: int = 7
    lambda_grid: LambdaGrid = field(default_factory=LambdaGrid)
    tolerances: dict = field(default_factory=dict)
    out_path: str | None = None
    out_format: str = "table"

    def make_model(self) -> ModelParams:
        """Build validated model parameters (drawing couplings if absent)."""
        return default_instance(
            self.seed,
            N=self.N,
            p=self.p,
            p_prime=self.p_prime,
            kappa=None if self.kappa is None else np.asarray(self.kappa, dtype=complex),
            xi=None if self.xi is None else np.asarray(self.xi, dtype=complex),
            tolerances=self.tolerances,
        )


def _parse_coupling_list(raw, name: str):
    if raw is None:
        return None
    out = []
    for item in raw:
        if isinstance(item, (int, float, complex)):
            out.append(complex(item))
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            out.append(complex(item[0], item[1]))
        elif isinstance(item, str):
            try:
                out.append(complex(item))
            except ValueError:
                raise ConfigError(f"cannot parse {name} entry {item!r}") from None
        else:
            raise ConfigError(f"{name} entries must be numbers or [re, im] pairs")
    return tuple(out)


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge a JSON config file (if any) with command-line overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")

    known = {"N", "p", "p_prime", "kappa", "xi", "seed", "lambda_grid",
             "tolerances", "output"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    overrides = overrides or {}
    merged = dict(data)
    for key, val in overrides.items():
        if val is None:
            continue
        if key == "tolerances":
            merged["tolerances"] = {**merged.get("tolerances", {}), **val}
        else:
            merged[key] = val

    grid_raw = merged.get("lambda_grid", {})
    if not isinstance(grid_raw, dict):
        raise ConfigError("lambda_grid must be an object")
    grid = LambdaGrid(
        count=int(grid_raw.get("count", 10)),
        r_min=float(grid_raw.get("r_min", 0.5)),
        r_max=float(grid_raw.get("r_max", 2.0)),
    ).validate()

    tols_raw = merged.get("tolerances", {})
    if not isinstance(tols_raw, dict):
        raise ConfigError("tolerances must be an object of name -> value")
    unknown_tols = set(tols_raw) - set(DEFAULT_TOLERANCES)
    if unknown_tols:
        raise ConfigError(f"unknown tolerance names: {sorted(unknown_tols)}")
    tols = {k: float(v) for k, v in tols_raw.items()}

    out_raw = merged.get("output", {})
    if not isinstance(out_raw, dict):
        raise ConfigError("output must be an object")
    out_format = merged.get("out_format", out_raw.get("format", "table"))
    if out_format not in ("table", "json"):
        raise ConfigError(f"output format must be 'table' or 'json', got {out_format!r}")

    try:
        cfg = RunConfig(
            N=int(merged.get("N", 3)),
            p=int(merged.get("p", 3)),
            p_prime=int(merged.get("p_prime", 2)),
            kappa=_parse_coupling_list(merged.get("kappa"), "kappa"),
            xi=_parse_coupling_list(merged.get("xi"), "xi"),
            seed=int(merged.get("seed", 7)),
            lambda_grid=grid,
            tolerances=tols,
            out_path=merged.get("out_path", out_raw.get("path")),
            out_format=out_format,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    return cfg
