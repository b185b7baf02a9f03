"""Batch verification runner.

Samples domain points, executes named suites and emits a deterministic
JSON or CSV report.  Exit codes: 0 all suites pass, 1 at least one suite
failed or errored, 2 usage error (a --out path that cannot be written is
one, refused before any suite runs).

Seed resolution: --seed flag, else the LCKLAB_SEED environment variable,
else 0.  Two runs with the same configuration produce byte-identical
reports; wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .report import RunConfig, to_csv, to_json
from .suites import MODELS, SUITES, UsageError, run_config

__all__ = ["main", "list_suites"]


def list_suites(stream=None) -> None:
    """Print the suite catalogue: name, anchor, default tolerance."""
    stream = stream or sys.stdout
    defaults = RunConfig(model="")   # no tolerance reads the model
    width = max(len(s.name) for s in SUITES)
    awidth = max(len(s.anchor) for s in SUITES)
    for s in SUITES:
        tol = s.tolerance(defaults)
        direction = "max <=" if s.direction == "le" else "min >="
        models = ",".join(sorted(s.models))
        print(f"{s.name:<{width}}  {s.anchor:<{awidth}}  {direction} "
              f"{format(tol, '.17g'):<22}  [{models}]", file=stream)


def _build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig(model="")
    p = argparse.ArgumentParser(
        prog="lcklab",
        description="Pointwise verification suites for indefinite locally "
                    "conformal Kahler model geometries.")
    p.add_argument("--model", choices=list(MODELS),
                   help="model geometry the suites sample from")
    p.add_argument("--n", type=int, default=defaults.n,
                   help="complex dimension (default %(default)s)")
    p.add_argument("--s", type=int, default=defaults.s,
                   help="index parameter (default %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help="deck scaling factor in (0, 1) (default %(default)s)")
    p.add_argument("--points", type=int, default=defaults.points,
                   help="sample points per suite (default %(default)s)")
    p.add_argument("--tol-analytic", type=float, default=defaults.tol_analytic,
                   help="tolerance for analytic identities (default %(default)s)")
    p.add_argument("--tol-fd", type=float, default=defaults.tol_fd,
                   help="tolerance for finite-difference paths (default %(default)s)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (fallback: LCKLAB_SEED, then 0)")
    p.add_argument("--suites", default="all",
                   help="comma-separated suite names or 'all' (default)")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--format", dest="fmt", choices=["json", "csv"],
                   default="json", help="report format (default json)")
    p.add_argument("--list-suites", action="store_true",
                   help="print the suite catalogue and exit")
    return p


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get("LCKLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"LCKLAB_SEED must be an integer, got {env!r}") from exc
    return 0


def _require_writable(path: str) -> None:
    """Refuse a report path that cannot be written, before any suite runs:
    a directory, or a file in a missing or unwritable directory."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK) \
            or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise UsageError(f"cannot write the report to {path!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_suites:
        list_suites()
        return 0
    if args.model is None:
        parser.error("--model is required unless --list-suites is given")
    try:
        seed = _resolve_seed(args.seed)
        if args.out:
            _require_writable(args.out)
        names = tuple(x.strip() for x in args.suites.split(",") if x.strip())
        cfg = RunConfig(model=args.model, n=args.n, s=args.s, lam=args.lam,
                        points=args.points, tol_analytic=args.tol_analytic,
                        tol_fd=args.tol_fd, seed=seed, suites=names)
        start = time.perf_counter()
        report = run_config(cfg)
        elapsed = time.perf_counter() - start
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
        return 2
    payload = to_json(report) if args.fmt == "json" else to_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"lcklab: {len(report.results)} suites in {elapsed:.2f}s "
          f"({'pass' if report.passed else 'FAIL'})", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
