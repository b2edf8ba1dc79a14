"""Command-line front end.

Subcommands: index (multi-route agreement report), spectrum (membership
query or CSV point cloud), certify (one boundary certificate), koszul-dims
(per-truncation homology dimensions), tensor (product formula for factor
lists).  Exit codes: 0 success/agree, 1 usage or parse error, 2 not
Fredholm, 3 not certifiable or inconclusive, 4 route disagreement.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certify import as_condition_check, boundary_lower_bound
from .koszul import build_koszul, dump_matrices, koszul_route
from .oracle import OracleConfig
from .report import (JobConfig, _cert_json, _koszul_json, _resolved_n_range,
                     load_tuple, run_index, run_spectrum)
from .tensor import tensor_tuple_index, trig_from_json

_EXIT = {"agree": 0, "not_fredholm": 2, "not_certifiable": 3, "disagree": 4}
DUMP_LEVEL = 4      # Koszul level --dump-matrices writes when no n_range is set


class _Parser(argparse.ArgumentParser):
    def error(self, message):                     # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_n_range(text: str):
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A..B (e.g. 2..8), got {text!r}")


def _parse_lambda(parts):
    try:
        out = []
        for part in " ".join(parts).split():
            re, im = part.split(",")
            out.append(complex(float(re), float(im)))
        return tuple(out)
    except ValueError:
        raise ValueError(
            f"expected re,im pairs (e.g. --lambda 0,0 1,0), got {parts!r}")


def _add_common(sub):
    sub.add_argument("--input", required=True, help="input JSON file")
    sub.add_argument("--config", help="JSON config file (flags override it)")
    sub.add_argument("--n-range", type=_parse_n_range, metavar="A..B",
                     help="levels the Koszul sweep may try (inclusive); it stops at "
                          "the first three that agree")
    sub.add_argument("--rank-tol", type=float, help="numerical rank tolerance")
    sub.add_argument("--r", type=float,
                     help="inner radius (certify defaults to the first scheduled one)")
    sub.add_argument("--mesh", type=float, help="target covering mesh")
    sub.add_argument("--seed", type=int, help="seed echoed into all randomness")
    sub.add_argument("--cache", metavar="DIR", help="report cache directory")
    sub.add_argument("--dump-matrices", action="store_true",
                     help="write boundary matrices next to the input")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polytoep",
                description="Fredholmness and index of Toeplitz tuples with "
                            "polynomial symbols on polydisc Hardy spaces")
    subs = p.add_subparsers(dest="command", required=True)
    for name in ("index", "spectrum", "certify", "koszul-dims", "tensor"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "spectrum":
            sub.add_argument("--lambda", dest="lam", nargs="+",
                             metavar="re,im",
                             help="membership query point (omit for a cloud)")
            sub.add_argument("--resolution", type=int,
                             help="per-axis sampling resolution")
            sub.add_argument("--emit", choices=("json", "csv"), default=None,
                             help="cloud format (default csv, membership json)")
    return p


def _job_config(args, command: str) -> JobConfig:
    """A flag wins over the --config file; what neither gives keeps the
    default of JobConfig.  The CLI adds two rules of its own: the oracle seed
    follows --seed, and the cache sits beside the input file."""
    file_cfg = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: parse error at line "
                             f"{exc.lineno}, column {exc.colno}: {exc.msg}")
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: the top level must be a JSON object")
    kwargs = {}

    def pick(key, flag=None, convert=lambda v: v):
        value = flag if flag is not None else file_cfg.get(key)
        if value is not None:
            kwargs[key] = convert(value)

    try:                    # a TypeError here comes from a config-file value
        pick("n_range", args.n_range, tuple)
        pick("rank_tolerance", args.rank_tol)
        pick("r_schedule", convert=tuple)
        pick("target_mesh", args.mesh)
        pick("seed", args.seed)
        ocfg = file_cfg.get("oracle", {})
        if "seed" in kwargs:
            ocfg = {"seed": kwargs["seed"], **ocfg}
        kwargs["oracle"] = OracleConfig(**ocfg)
        if command == "spectrum":
            if args.lam:
                kwargs["lam"] = _parse_lambda(args.lam)
            elif "lambda" in file_cfg:
                kwargs["lam"] = tuple(complex(x[0], x[1]) for x in file_cfg["lambda"])
            pick("resolution", args.resolution)
            pick("r", args.r)
        default_cache = str(Path(args.input).resolve().parent / ".polytoep_cache")
        kwargs["cache_dir"] = args.cache if args.cache is not None else \
            file_cfg.get("cache_dir", default_cache)
        return JobConfig(input=args.input, command=command, **kwargs)
    except (TypeError, IndexError) as exc:
        raise ValueError(f"{args.config}: bad config value: {exc}") from exc


def _emit(obj) -> None:
    if isinstance(obj, str):
        sys.stdout.write(obj)
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _maybe_dump(args, cfg: JobConfig, st) -> None:
    if not args.dump_matrices:
        return
    n = cfg.n_range[1] if cfg.n_range else DUMP_LEVEL
    text = dump_matrices(build_koszul(st, n))
    out = Path(args.input).with_suffix(".matrices.txt")
    out.write_text(text)
    print(f"wrote {out}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if command == "index":
            cfg = _job_config(args, command)
            report = run_index(cfg)
            _emit(report)
            _maybe_dump(args, cfg, load_tuple(cfg.input))
            return _EXIT[report["body"]["verdict"]["kind"]]

        if command == "spectrum":
            cfg = _job_config(args, command)
            out = run_spectrum(cfg)
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
            cfg = _job_config(args, command)
            st = load_tuple(cfg.input)
            r = args.r if args.r is not None else cfg.r_schedule[0]
            if st.nvars == 1:
                cert = as_condition_check(st, r, cfg.target_mesh)
            else:
                cert = boundary_lower_bound(st, r, cfg.target_mesh)
            _emit({"certificate": _cert_json(cert)})
            return {"certified": 0, "failed": 2}.get(cert.verdict, 3)

        if command == "koszul-dims":
            cfg = _job_config(args, command)
            st = load_tuple(cfg.input)
            route = koszul_route(st, _resolved_n_range(cfg), cfg.rank_tolerance)
            _emit(_koszul_json(route))
            _maybe_dump(args, cfg, st)
            return 0 if route.homology.stabilized else 3

        if command == "tensor":
            obj = json.loads(Path(args.input).read_text())
            if not isinstance(obj, dict) or not isinstance(obj.get("factors"), list):
                raise ValueError(f"{args.input}: expected an object with a "
                                 "\"factors\" list")
            factors = [trig_from_json(f) for f in obj["factors"]]
            variables = obj.get("variables")
            rep = tensor_tuple_index(factors, variables)
            _emit({"per_factor": [{"fredholm": f.fredholm, "index": f.index,
                                   "invertible_flag": f.invertible_flag}
                                  for f in rep.per_factor],
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
