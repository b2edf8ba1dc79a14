"""Command-line front end.

Subcommands: index (multi-route agreement report), spectrum (membership
query or CSV point cloud), certify (one boundary certificate), koszul-dims
(the Koszul route, after a boundary certificate along the default
schedule), tensor (product formula for factor lists).  ``COMMANDS`` lists
the flags and config-file keys each one reads: a flag wins over the file,
what neither gives keeps the library's default, and any other flag or key
is a usage error, as are ``spectrum``'s cloud-only ``r`` and ``resolution``
with a λ and its ``r_schedule`` without.  Exit codes: 0 success/agree,
1 usage or parse error, 2 not Fredholm, 3 not certifiable or inconclusive,
4 route disagreement.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .certify import boundary_lower_bound
from .exact import exact
from .koszul import MatrixBudgetError, build_koszul, default_levels, dump_matrices
from .report import (JobConfig, _cert_json, _factors_json, _run_koszul,
                     certify_schedule, load_tuple, run_index, run_spectrum)
from .tensor import tensor_tuple_index, trig_from_json

_EXIT = {"agree": 0, "not_fredholm": 2, "not_certifiable": 3, "disagree": 4}


class _Parser(argparse.ArgumentParser):
    def error(self, message):                     # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_lambda(value):
    """λ from the flag's re,im words or from the file's [re, im] pairs, each
    part read exactly by ``exact`` (so "p/q" works)."""
    if all(isinstance(x, str) for x in value):
        value = [word.split(",") for word in " ".join(value).split()]
    try:
        return tuple(exact((re, im)) for re, im in value)
    except (TypeError, ValueError):
        raise ValueError(
            f"expected re,im pairs (e.g. --lambda 0,0 1,0), got {value!r}")


class Param(NamedTuple):
    flag: Optional[str]                 # None: set in the config file only
    key: Optional[str]                  # config-file key; None: a flag only
    convert: Optional[Callable]         # given value -> the value a job reads
    opts: dict                          # argparse options of the flag


def _p(flag, key=None, convert=None, **opts) -> Param:
    return Param(flag, key, convert, {"dest": key, **opts} if key else opts)


_INPUT = _p("--input", required=True, help="input JSON file")
_CONFIG = _p("--config", help="JSON config file (flags override it)")
_DUMP = _p("--dump-matrices", action="store_true",
           help="write boundary matrices next to the input")
_R_SCHEDULE = _p(None, "r_schedule", tuple)

# The parameters each subcommand reads; every other flag or key is an error.
COMMANDS = {
    "index": (_INPUT, _CONFIG, _DUMP, _R_SCHEDULE,
              _p("--seed", "seed", type=int, help="seed of the algebraic route and oracle"),
              _p("--cache", "cache_dir", metavar="DIR", help="report cache directory "
                 "(default: .polytoep_cache beside the input)")),
    "spectrum": (_INPUT, _CONFIG, _R_SCHEDULE,
                 _p("--lambda", "lambda", _parse_lambda, nargs="+", action="extend",
                    metavar="re,im", help="membership query point, one re,im per "
                    "symbol (omit for a cloud); repeatable, and a component with "
                    "a negative real part is written --lambda=-1,0"),
                 _p("--resolution", "resolution", type=int,
                    help="per-axis resolution of the cloud (default 24, 11 in "
                    "three variables)"),
                 _p("--r", "r", type=float, help="inner radius of the cloud"),
                 _p("--emit", choices=("json", "csv"),
                    help="output format (default csv for a cloud, json for a query)")),
    "certify": (_INPUT, _CONFIG, _R_SCHEDULE,
                _p("--r", type=float, help="inner radius in [0, 1); 0 is the closed "
                   "polydisc (default: the first scheduled one)")),
    "koszul-dims": (_INPUT, _DUMP),
    "tensor": (_INPUT,),
}
_JOB_FIELDS = {f.name for f in fields(JobConfig)}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polytoep",
                description="Fredholmness and index of Toeplitz tuples with "
                            "polynomial symbols on polydisc Hardy spaces")
    subs = p.add_subparsers(dest="command", required=True)
    for name, params in COMMANDS.items():
        sub = subs.add_parser(name, allow_abbrev=False)   # flags only in full
        for param in params:
            if param.flag is not None:
                sub.add_argument(param.flag, **param.opts)
    return p


def _settings(args):
    """The values the subcommand reads, by parameter (a flag wins over the
    --config file), and the JobConfig made of those that are its fields.
    The cache of ``index`` defaults to a directory beside the input."""
    params, file_cfg, config = COMMANDS[args.command], {}, getattr(args, "config", None)
    if config:
        try:
            file_cfg = json.loads(Path(config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config}: parse error at line "
                             f"{exc.lineno}, column {exc.colno}: {exc.msg}")
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{config}: the top level must be a JSON object")
    keys = [p.key for p in params if p.key]
    if set(file_cfg) - set(keys):
        raise ValueError(f"{config}: {args.command} reads no config key "
                         f"{', '.join(sorted(set(file_cfg) - set(keys)))} "
                         f"(it reads {', '.join(keys) or 'none'})")
    values = {k: v for k, v in vars(args).items() if v is not None}
    try:                    # a TypeError here comes from a config-file value
        for p in params:
            value = values.get(p.key, file_cfg.get(p.key))
            if value is not None:
                values[p.key] = p.convert(value) if p.convert else value
        job = {k: v for k, v in values.items() if k in _JOB_FIELDS}
        if args.command == "index":
            job.setdefault("cache_dir", str(Path(args.input).resolve().parent
                                            / ".polytoep_cache"))
        return values, JobConfig(**job)
    except TypeError as exc:
        raise ValueError(f"{config}: bad config value: {exc}") from exc


def _emit(obj) -> None:
    if isinstance(obj, str):
        sys.stdout.write(obj)
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _maybe_dump(args, st) -> None:
    """With --dump-matrices, write the boundary matrices of the last level
    the Koszul route sweeps by default for the tuple's variable count."""
    if not args.dump_matrices:
        return
    try:
        text = dump_matrices(build_koszul(st, default_levels(st.nvars)[-1]))
    except MatrixBudgetError as exc:
        raise ValueError(f"--dump-matrices: {exc}") from exc
    out = Path(args.input).with_suffix(".matrices.txt")
    out.write_text(text)
    print(f"wrote {out}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if command != "tensor":
            values, cfg = _settings(args)
        if command == "index":
            report = run_index(cfg)
            _emit(report)
            _maybe_dump(args, load_tuple(cfg.input))
            return _EXIT[report["body"]["verdict"]["kind"]]

        if command == "spectrum":
            if "lambda" not in values and "r_schedule" in values:
                raise ValueError("the cloud reads no r_schedule (a λ query does)")
            out = run_spectrum(cfg, values.get("lambda"), r=values.get("r"),
                               resolution=values.get("resolution"))
            if isinstance(out, dict):
                if args.emit == "csv":
                    b = out["body"]
                    lam = " ".join(f"{p['re']},{p['im']}" for p in b["lambda"])
                    sys.stdout.write("lambda,verdict,distance_estimate\n"
                                     f"\"{lam}\",{b['verdict']},"
                                     f"{b['distance_estimate']}\n")
                else:
                    _emit(out)
                v = out["body"]["verdict"]
                return 0 if v in ("inside", "outside") else 3
            if args.emit == "json":
                rows = [line.split(",") for line in out.splitlines()[1:]]
                _emit({"points": [[float(x) for x in row] for row in rows]})
            else:
                _emit(out)
            return 0

        if command == "certify":
            cert = boundary_lower_bound(load_tuple(cfg.input),
                                        values.get("r", cfg.r_schedule[0]))
            _emit({"certificate": _cert_json(cert)})
            return {"certified": 0, "failed": 2}.get(cert.verdict, 3)

        if command == "koszul-dims":
            st = load_tuple(cfg.input)
            cert, certs = certify_schedule(st, cfg)
            out = ({"certificates": [_cert_json(c) for c in certs]} if cert is None
                   else _run_koszul(st, cfg, cert, {}))
            _emit(out)
            _maybe_dump(args, st)
            return 0 if out.get("stabilized") else 3

        if command == "tensor":
            obj = json.loads(Path(args.input).read_text())
            if not isinstance(obj, dict) or not isinstance(obj.get("factors"), list):
                raise ValueError(f"{args.input}: expected an object with a "
                                 "\"factors\" list")
            factors = [trig_from_json(f) for f in obj["factors"]]
            variables = obj.get("variables")
            rep = tensor_tuple_index(factors, variables)
            _emit({"per_factor": _factors_json(rep),
                   "tuple_fredholm": rep.tuple_fredholm,
                   "tuple_index": rep.tuple_index,
                   "note": rep.note})
            return 0 if rep.tuple_fredholm else 2

    except json.JSONDecodeError as exc:
        print(f"error: parse failure at line {exc.lineno}, column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {command}")


if __name__ == "__main__":
    sys.exit(main())
