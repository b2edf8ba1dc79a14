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
from .report import JobConfig, _cert_json, load_tuple, run_index, run_spectrum
from .tensor import tensor_tuple_index, trig_from_json

_EXIT = {"agree": 0, "not_fredholm": 2, "not_certifiable": 3, "disagree": 4}


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
    sub.add_argument("--r", type=float, help="inner radius")
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
    file_cfg = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: parse error at line "
                             f"{exc.lineno}, column {exc.colno}: {exc.msg}")

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    seed = pick(args.seed, "seed", 0)
    ocfg = dict(file_cfg.get("oracle", {}))
    ocfg.setdefault("seed", seed)
    schedule = file_cfg.get("r_schedule")
    if schedule is None:
        schedule = (0.5, 0.75, 0.9)
    kwargs = {}
    if command == "spectrum":
        lam_args = getattr(args, "lam", None)
        kwargs["lam"] = _parse_lambda(lam_args) if lam_args else (
            tuple(complex(x[0], x[1]) for x in file_cfg["lambda"])
            if "lambda" in file_cfg else None)
        kwargs["resolution"] = pick(getattr(args, "resolution", None),
                                    "resolution", 24)
        kwargs["r"] = pick(args.r, "r", 0.9)
    # cache defaults to a directory beside the input file
    default_cache = str(Path(args.input).resolve().parent / ".polytoep_cache")
    return JobConfig(
        input=args.input,
        command=command,
        n_range=pick(args.n_range, "n_range", None) and
        tuple(pick(args.n_range, "n_range", None)),
        rank_tolerance=pick(args.rank_tol, "rank_tolerance", 1e-8),
        oracle=OracleConfig(**ocfg),
        r_schedule=tuple(schedule),
        target_mesh=pick(args.mesh, "target_mesh", None),
        cache_dir=pick(args.cache, "cache_dir", default_cache),
        seed=seed,
        **kwargs,
    )


def _emit(obj) -> None:
    if isinstance(obj, str):
        sys.stdout.write(obj)
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _maybe_dump(args, st) -> None:
    if not getattr(args, "dump_matrices", False):
        return
    n = args.n_range[1] if args.n_range else 4
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
            _maybe_dump(args, load_tuple(cfg.input))
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
            r = args.r if args.r is not None else 0.5
            if st.nvars == 1:
                cert = as_condition_check(st, r, cfg.target_mesh)
            else:
                cert = boundary_lower_bound(st, r, cfg.target_mesh)
            _emit({"certificate": _cert_json(cert)})
            return {"certified": 0, "failed": 2}.get(cert.verdict, 3)

        if command == "koszul-dims":
            cfg = _job_config(args, command)
            st = load_tuple(cfg.input)
            route = koszul_route(st, cfg.n_range and
                                 range(cfg.n_range[0], cfg.n_range[1] + 1),
                                 cfg.rank_tolerance)
            _emit({"per_n": list(route.per_n), "codim": route.codim,
                   "dims": list(route.homology.dims),
                   "stabilized": route.homology.stabilized,
                   "index": route.index,
                   "chain_exact": route.chain_exact})
            _maybe_dump(args, st)
            return 0 if route.homology.stabilized else 3

        if command == "tensor":
            obj = json.loads(Path(args.input).read_text())
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
