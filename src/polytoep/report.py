"""Aggregated multi-route index reports, certificate-first.

The pipeline mirrors the logical order of the theory: a tuple is reduced by
its gcd (a vanishing common factor already settles non-Fredholmness), then a
boundary certificate is attempted along an increasing schedule of inner radii
— index routes only run once some radius certifies.  Every applicable route
(operator-theoretic, algebraic, perturbation oracle, product formula, disc
formula) must emit the same integer for an ``agree`` verdict; the report
carries all intermediate evidence (per-truncation homology dims, located
zeros, per-trial counts, every certificate attempt).  A single symbol in one
variable is the product formula's n = 1 case, so its winding number comes
from the tensor route.

Reports are deterministic: the ``body`` sub-object is byte-identical across
runs with the same configuration; timings (wall seconds per stage, process
CPU seconds per stage under ``"cpu"``, and deterministic work counters
under ``"work"``: the certificate schedule's, the gcd factor's certificate's
under ``"reduction"``, and the routes') live outside it.  The
cache stores whole reports keyed by a content hash of the canonicalized
input, ``body["config"]`` and the package version, written atomically.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from . import __version__
from .certify import (
    DEFAULT_R_SCHEDULE,
    BoundaryCertificate,
    boundary_lower_bound,
    essential_spectrum_cloud,
    essential_spectrum_membership,
    max_grid_resolution,
)
from .koszul import koszul_route
from .oracle import EPSILON, perturbed_count_details
from .poly import (
    SymbolTuple,
    canonical_tuple_json,
    poly_to_json,
    tuple_from_json,
    tuple_to_json,
)
from .tensor import TensorIndexReport, tensor_tuple_index, trig_from_poly
from .zeros import common_zeros, gcd_reduce

log = logging.getLogger(__name__)

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class JobConfig:
    """The parameters of an index job; ``run_index`` reads every field.  The
    rank tolerance, certificate mesh, Koszul levels and oracle settings are
    the library's constants (``koszul.DEFAULT_RANK_TOL``,
    ``certify._DEFAULT_MESH``, ``koszul_route``'s levels, ``oracle.EPSILON``
    and ``oracle.TRIALS``)."""
    input: Union[str, Path, dict, SymbolTuple]
    r_schedule: Tuple[float, ...] = DEFAULT_R_SCHEDULE
    cache_dir: Optional[Union[str, Path]] = None
    seed: int = 0                                  # algebraic route and oracle

    def __post_init__(self):
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.r_schedule or any(not 0 < r < 1 for r in self.r_schedule):
            raise ValueError("certificate schedule radii must lie in (0, 1)")


def load_tuple(source: Union[str, Path, dict, SymbolTuple]) -> SymbolTuple:
    if isinstance(source, SymbolTuple):
        return source
    if isinstance(source, dict):
        return tuple_from_json(source)
    path = Path(source)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    return tuple_from_json(obj)


def _fmt_complex(z: complex) -> dict:
    return {"re": f"{z.real:.17g}", "im": f"{z.imag:.17g}"}


def _cert_json(cert: BoundaryCertificate) -> dict:
    out = {
        "r": cert.r, "c": cert.c, "verdict": cert.verdict,
        "min_sample": cert.min_sample,
        "min_point": [_fmt_complex(z) for z in cert.min_point],
        "cells_evaluated": cert.cells_evaluated,
        "budget_hit": cert.budget_hit, "split_depth": cert.split_depth,
    }
    if cert.witness is not None:
        out["witness"] = [_fmt_complex(z) for z in cert.witness]
        out["witness_value"] = cert.witness_value
    return out


def _cert_work(certs: Sequence[BoundaryCertificate]) -> dict:
    """The certificates' work counters summed, for ``timings["work"]``: the
    attempts, cells evaluated, cell batches evaluated and witness
    searches."""
    return {"attempts": len(certs),
            "cells": sum(c.cells_evaluated for c in certs),
            "rounds": sum(c.rounds for c in certs),
            "witness_searches": sum(c.witness_searches for c in certs)}


def _config_json(cfg: JobConfig) -> dict:
    """The index parameters of a job: echoed as ``body["config"]`` and hashed
    into the cache key."""
    return {"seed": cfg.seed, "r_schedule": list(cfg.r_schedule)}


def cache_key(cfg: JobConfig, st: SymbolTuple) -> str:
    payload = {"input": json.loads(canonical_tuple_json(st)),
               "config": _config_json(cfg), "version": __version__}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(path: Path) -> Optional[dict]:
    try:
        stored = json.loads(path.read_text())
        if not (isinstance(stored, dict) and isinstance(stored.get("body"), dict)
                and isinstance(stored.get("cache", {}), dict)):
            raise ValueError("not a report object")
        return stored
    except (OSError, ValueError) as exc:
        log.warning("ignoring corrupt cache entry %s: %s", path, exc)
        return None


def _cache_store(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---- route runners -------------------------------------------------------------
#
# Every runner takes (working tuple, config, chosen certificate, work) and
# returns the route's evidence; a route emits when that carries an integer
# "index".  ``work`` is the report's dict of deterministic work counters,
# kept outside the body: a runner may file its route's under the route name.
# Runners look the library functions up as module globals at call time, so
# wrappers installed on this module see every call.


def _run_koszul(st: SymbolTuple, cfg: JobConfig,
                cert: BoundaryCertificate, work: dict) -> dict:
    """The Koszul route's evidence, as the report and ``koszul-dims`` print
    it, at the decay bound ρ = (1+r)/2 of the certificate; its work counters
    (``koszul.TupleGrading``) go to ``work["koszul"]``."""
    rho = (1 + cert.r) / 2
    route = koszul_route(st, rho=rho)
    work["koszul"] = route.work
    return {
        "per_n": list(route.per_n),
        "codim": route.codim,
        "dims": list(route.homology.dims),
        "stabilized": route.homology.stabilized,
        "sigma_min_first": route.sigma_min_first,
        "chain_exact": route.chain_exact,
        "index": route.index,
        "rho": rho,
    }


def _run_algebraic(st: SymbolTuple, cfg: JobConfig,
                   cert: BoundaryCertificate, work: dict) -> dict:
    zs = common_zeros(st, cert.r, seed=cfg.seed)
    zeros = [{"point": [_fmt_complex(z.point[0]), _fmt_complex(z.point[1])],
              "multiplicity": z.multiplicity, "location": z.location}
             for z in zs.zeros]
    return {"zeros": zeros, "total_inside": zs.total_inside,
            "quotient_dim": zs.quotient_dim, "index": -zs.total_inside}


def _oracle_need(st: SymbolTuple, eps: float = EPSILON) -> float:
    """4·p·ε², p = len(st): the least certified c at which perturbing each
    symbol by a constant of modulus at most ε moves no zero into or across
    the gap r ≤ max_v|z_v| ≤ 1 of the certificate.

    Proof.  Take z in the gap and constants |δᵢ| ≤ ε.  The certificate gives
    ‖f(z)‖₂ ≥ √c, and ‖δ‖₂ ≤ √p·ε ≤ √c/2, so for every t in [0, 1]
    ‖f(z) + tδ‖₂ ≥ √c − √p·ε ≥ √c/2 > 0 (so Σ|fᵢ + δᵢ|² ≥ c/4 there).  No
    member of the homotopy f + tδ vanishes on the gap, which holds the
    boundary max_v|z_v| = r of the inner polydisc, so the zeros counted
    with multiplicity inside it stay as many for every t: the perturbed
    pair counts the unperturbed one's."""
    return 4 * len(st) * eps * eps


def _oracle_epsilon(st: SymbolTuple, cert_c: float) -> float:
    """Halve ε from ``oracle.EPSILON`` until ``_oracle_need`` is at most the
    certified bound c > 0, so no perturbed zero enters the gap
    r ≤ max_v|z_v| ≤ 1 that the oracle's classification reads."""
    eps = EPSILON
    while _oracle_need(st, eps) > cert_c:
        eps /= 2
    return eps


def _run_oracle(st: SymbolTuple, cfg: JobConfig,
                cert: BoundaryCertificate, work: dict) -> dict:
    detail = perturbed_count_details(st, cert.r, _oracle_epsilon(st, cert.c),
                                     seed=cfg.seed)
    detail["index"] = -detail["count"]
    return detail


def _tensor_variables(st: SymbolTuple) -> Optional[list]:
    """The variable of each symbol when every symbol is univariate in its
    own distinct variable (the tensor-product situation; n = 1 included)."""
    if len(st) != st.nvars:
        return None
    used = []
    for s in st.symbols:
        vs = [v for v in range(st.nvars) if s.degree_in(v) > 0]
        if len(vs) != 1:
            return None
        used.append(vs[0])
    if len(set(used)) != len(used):
        return None
    return used


def _factors_json(rep: TensorIndexReport) -> list:
    """The ``per_factor`` list of a tensor report, for reports and the CLI."""
    return [{"fredholm": f.fredholm, "index": f.index,
             "invertible_flag": f.invertible_flag} for f in rep.per_factor]


def _run_tensor(st: SymbolTuple, cfg: JobConfig,
                cert: BoundaryCertificate, work: dict) -> dict:
    variables = _tensor_variables(st)
    factors = [trig_from_poly(s, var=v) for s, v in zip(st.symbols, variables)]
    rep = tensor_tuple_index(factors, variables)
    return {
        "per_factor": _factors_json(rep),
        "tuple_fredholm": rep.tuple_fredholm,
        "note": rep.note,
        "index": rep.tuple_index,
    }


def _run_disc(st: SymbolTuple, cfg: JobConfig,
              cert: BoundaryCertificate, work: dict) -> dict:
    # In one variable the boundary region is the annulus r ≤ |z| ≤ 1, which
    # the certificate has just certified: the tuple is Fredholm of index 0.
    return {"index": 0, "certificate_r": cert.r}


def _pair(st: SymbolTuple) -> bool:
    """A pair in two variables: the algebraic route, the oracle and the gcd
    reduction apply."""
    return len(st) == 2 and st.nvars == 2


# (name, applies(working tuple), runner), in the order the routes run
ROUTES = (
    ("koszul", lambda st: True, _run_koszul),
    ("algebraic", _pair, _run_algebraic),
    ("oracle", _pair, _run_oracle),
    ("tensor", lambda st: _tensor_variables(st) is not None, _run_tensor),
    ("disc", lambda st: st.nvars == 1 and len(st) > 1, _run_disc),
)


# ---- the index pipeline --------------------------------------------------------


def certify_schedule(st: SymbolTuple, cfg: JobConfig
                     ) -> Tuple[Optional[BoundaryCertificate], List[BoundaryCertificate]]:
    """The boundary certificates of ``st`` at the radii of ``cfg.r_schedule``
    up to the first that certifies, and that one (None when none does).  The
    routes run only after one: it proves the tuple Fredholm, and its r bounds
    every common zero in the polydisc.  Each is refined only as far as the
    routes read its c: for a pair in two variables to ``_oracle_need``, the
    4·p·ε² at ε = ``oracle.EPSILON`` that keeps the oracle's perturbed zeros
    out of the gap, and to bare positivity otherwise."""
    target = _oracle_need(st) if _pair(st) else 0.0
    certs = []
    for r in cfg.r_schedule:
        certs.append(boundary_lower_bound(st, r, target=target))
        if certs[-1].verdict == "certified":
            return certs[-1], certs
    return None, certs


def run_index(cfg: JobConfig) -> dict:
    """Certificate-first multi-route index report (see module docstring)."""
    st = load_tuple(cfg.input)
    key = cache_key(cfg, st)
    cache_path = None
    if cfg.cache_dir is not None:
        cache_path = Path(cfg.cache_dir) / f"{key}.json"
        if cache_path.exists():
            stored = _cache_load(cache_path)
            if stored is not None:
                stored.setdefault("cache", {})["hit"] = True
                return stored

    timer = _Timer()
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": "index",
        "input": tuple_to_json(st),
        "config": _config_json(cfg),
        "reduction": None,
        "certificates": [],
        "certificate": None,
        "routes": {},
    }

    # gcd reduction for pairs in two variables
    working = st
    with timer.stage("reduction"):
        if _pair(st):
            red = gcd_reduce(st)
            if red.common_factor is not None:
                body["reduction"] = {
                    "common_factor": poly_to_json(red.common_factor),
                    "factor_zero_free": red.factor_zero_free,
                    "reduced": tuple_to_json(red.reduced),
                    "certificate": _cert_json(red.certificate),
                }
                timer.work["reduction"] = _cert_work([red.certificate])
                if red.factor_zero_free:
                    working = red.reduced

    # certificate schedule on the working tuple
    with timer.stage("certificate"):
        chosen, certs = certify_schedule(working, cfg)
        body["certificates"] = [_cert_json(c) for c in certs]
        timer.work["certificate"] = _cert_work(certs)

    if chosen is None:
        if all(c.verdict == "failed" for c in certs):
            worst = min((c for c in body["certificates"] if "witness" in c),
                        key=lambda c: c["witness_value"])
            body["verdict"] = {"kind": "not_fredholm",
                               "witness": worst["witness"],
                               "witness_value": worst["witness_value"]}
        else:
            body["verdict"] = {
                "kind": "not_certifiable",
                "details": "no scheduled radius certified and the failures "
                           "are not witnessed everywhere"}
        return _finish(body, timer, key, cache_path)

    body["certificate"] = body["certificates"][-1]
    routes = body["routes"]
    emitted = {}
    for name, applies, run in ROUTES:
        if not applies(working):
            continue
        with timer.stage(name):
            try:
                routes[name] = run(working, cfg, chosen, timer.work)
                if isinstance(routes[name].get("index"), int):
                    emitted[name] = routes[name]["index"]
            except Exception as exc:                  # noqa: BLE001 - recorded
                routes[name] = {"error": str(exc)}

    values = set(emitted.values())
    if len(values) > 1:
        body["verdict"] = {
            "kind": "disagree",
            "details": {name: val for name, val in sorted(emitted.items())}}
    elif len(emitted) < len(routes):
        # each silent route's error, else its note (tensor), else its value
        why = "; ".join(f"{n}: {r.get('error') or r.get('note') or r.get('index')}"
                        for n, r in sorted(routes.items()) if n not in emitted)
        body["verdict"] = {
            "kind": "not_certifiable",
            "details": f"certificate holds but routes did not all emit an "
                       f"integer: {why}"}
    else:
        index = values.pop()
        assert chosen.verdict == "certified"       # agree requires certification
        body["verdict"] = {"kind": "agree", "index": index,
                           "routes": sorted(emitted)}
    return _finish(body, timer, key, cache_path)


class _Timer:
    """Wall and process CPU seconds per stage of one report, from its start,
    and the certificates' and routes' work counters."""

    def __init__(self):
        self.wall, self.cpu, self.work = {}, {}, {}
        self._start = (time.perf_counter(), time.process_time())

    @contextmanager
    def stage(self, name: str):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall[name] = time.perf_counter() - wall
            self.cpu[name] = time.process_time() - cpu

    def timings(self) -> dict:
        """Wall seconds per stage and in total, the same CPU seconds under
        ``"cpu"``, and the work counters under ``"work"``."""
        self.wall["total"] = time.perf_counter() - self._start[0]
        self.cpu["total"] = time.process_time() - self._start[1]
        return {**self.wall, "cpu": self.cpu, "work": self.work}


def _finish(body: dict, timer: _Timer, key: str, cache_path: Optional[Path]) -> dict:
    report = {"body": body, "timings": timer.timings(),
              "cache": {"key": key, "hit": False}}
    if cache_path is not None:
        _cache_store(cache_path, report)
    return report


# ---- spectrum ------------------------------------------------------------------


def run_spectrum(cfg: JobConfig, lam: Optional[Sequence[complex]] = None, *,
                 r: Optional[float] = None,
                 resolution: Optional[int] = None) -> Union[dict, str]:
    """Membership of ``lam`` (one number per symbol) in the essential spectrum
    of ``cfg.input`` as a report (``body`` and ``timings``), decided at the
    radii of ``cfg.r_schedule``; without ``lam``, a deterministic CSV cloud
    of symbol values outside radius ``r`` (default 0.9) at ``resolution``
    (default 24, capped by ``max_grid_resolution``), which a query rejects.
    It reads no other field of ``cfg`` and caches nothing."""
    st = load_tuple(cfg.input)
    if lam is not None:
        given = [k for k, v in (("r", r), ("resolution", resolution)) if v is not None]
        if given:
            raise ValueError(f"a membership query reads no {', '.join(given)} "
                             "(they set the cloud)")
        if len(lam) != len(st):
            raise ValueError(f"lambda needs {len(st)} components")
        t0 = time.perf_counter()
        q = essential_spectrum_membership(st, lam, cfg.r_schedule)
        body = {
            "schema_version": SCHEMA_VERSION,
            "command": "spectrum",
            "input": tuple_to_json(st),
            "lambda": [_fmt_complex(z.to_complex()) for z in q.lam],
            "r": q.r,
            "verdict": q.verdict,
            "distance_estimate": f"{q.distance_estimate:.17g}",
            "config": {"r_schedule": list(cfg.r_schedule)},
        }
        return {"body": body, "timings": {"total": time.perf_counter() - t0}}
    if resolution is None:
        resolution = min(24, max_grid_resolution(st.nvars))
    vals = essential_spectrum_cloud(st, 0.9 if r is None else r, resolution)
    k = vals.shape[1]
    header = ",".join(f"re{i+1},im{i+1}" for i in range(k))
    lines = [header]
    for row in vals:
        lines.append(",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    return "\n".join(lines) + "\n"
