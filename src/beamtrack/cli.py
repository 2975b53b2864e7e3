"""Command-line entry point.

Subcommands: ``track`` (run a configured Monte-Carlo experiment), ``crlb``
(evaluate or sweep the bounds), ``offsets`` (search for optimal exploration
offsets or sweep a fixed set's robustness), ``verify`` (run the built-in
correctness suites).  Exit codes: 0 success, 1 configuration error, 2
verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="beamtrack",
                     description="2D phased-array beam and channel tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="run a Monte-Carlo tracking experiment")
    track.add_argument("--config", required=True, help="TOML config file")
    track.add_argument("--seed", type=int)
    track.add_argument("--out", help="CSV output path")
    track.add_argument("--trials", type=int)
    track.add_argument("--eccs", type=int)
    track.add_argument("--snr-db", type=float)
    track.add_argument("--scenario",
                       choices=["quasi-static", "dynamic-i", "dynamic-ii"])
    track.add_argument("--tracker")
    track.add_argument("--offsets")

    crlb = sub.add_parser("crlb", help="evaluate or sweep the tracking bounds")
    off = sub.add_parser("offsets", help="search for optimal exploration offsets")
    for bound in (crlb, off):
        bound.add_argument("--objective", required=True,
                           choices=["static-asymptotic", "static-finite",
                                    "di-asymptotic", "di-finite"])
        bound.add_argument("--m", help="elements along x (default 8)")
        bound.add_argument("--n", help="elements along z (default 8)")
        bound.add_argument("--snr-beta-db", type=float, default=0.0)
    crlb.add_argument("--offsets")
    crlb.add_argument("--sweep-sizes",
                      help="comma list of square sizes, e.g. 8,16,32 (takes "
                           "neither --m nor --n)")

    off.add_argument("--seed", type=int, default=0,
                     help="no effect: the search is deterministic")
    off.add_argument("--grid", help="seed grid points per axis (default 21)")
    off.add_argument("--iters",
                     help="at most this many Newton iterations per restart "
                          "(default 400)")
    off.add_argument("--out", help="append the result as a CSV row")
    off.add_argument("--robustness",
                     help="skip the search; sweep the preset offsets over "
                          "these square sizes, e.g. 8,16,32 (takes none of "
                          "--m, --n, --grid, --iters, --out)")

    ver = sub.add_parser("verify", help="run the built-in correctness suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--quick", action="store_true",
                     help="fewer Monte-Carlo draws")
    return parser


def _positive_int(token, key: str, least: int = 1) -> int:
    """An integer of at least ``least`` (an array size, grid or iteration
    count), else a ConfigError naming ``key``."""
    from .harness import ConfigError
    try:
        value = int(token)
    except ValueError:
        value = 0
    if value < least:
        want = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ConfigError(f"{key}: expected {want}, got {token!r}")
    return value


def _size(token, key: str) -> int:
    """Elements per array axis: a positive integer of at most
    ``arrays.MAX_AXIS``, the bound of the config keys ``m`` and ``n``."""
    from .arrays import MAX_AXIS
    from .harness import ConfigError
    value = _positive_int(token, key)
    if value > MAX_AXIS:
        raise ConfigError(f"{key}: at most {MAX_AXIS} elements per axis, "
                          f"got {token!r}")
    return value


def _grid(token) -> int:
    """Seed grid points per offset axis: at least 2 (one point makes the
    three offsets of every grid seed equal) and at most
    ``offsets.MAX_GRID_POINTS``."""
    from .harness import ConfigError
    from .offsets import MAX_GRID_POINTS
    value = _positive_int(token, "--grid", least=2)
    if value > MAX_GRID_POINTS:
        raise ConfigError(f"--grid: at most {MAX_GRID_POINTS} points per "
                          f"axis, got {token!r}")
    return value


def _unused(args, sweep: str, flags) -> None:
    """A ConfigError naming the first of ``flags`` that was given to the
    ``sweep`` flag's sweep, which does not use it."""
    from .harness import ConfigError
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag}: not used with {sweep}")


def _size_flags(args) -> None:
    """Check ``--m`` and ``--n`` of ``crlb`` and ``offsets`` (default 8),
    and that a sweep (``--sweep-sizes``, ``--robustness``), which sizes its
    arrays itself, is given neither."""
    sweep, sizes = (("--sweep-sizes", args.sweep_sizes)
                    if args.command == "crlb"
                    else ("--robustness", args.robustness))
    if sizes:
        _unused(args, sweep, ("m", "n"))
    args.m = _size(8 if args.m is None else args.m, "--m")
    args.n = _size(8 if args.n is None else args.n, "--n")


def _search_flags(args) -> None:
    """Check the search flags of ``offsets``: ``--grid`` and ``--iters``
    (defaults 21 and 400), and that a ``--robustness`` sweep, which has its
    own grid and iteration count and prints a table, is given none of
    ``--grid``, ``--iters`` and ``--out``."""
    if args.robustness:
        _unused(args, "--robustness", ("grid", "iters", "out"))
        return
    args.grid = _grid(21 if args.grid is None else args.grid)
    args.iters = _positive_int(400 if args.iters is None else args.iters,
                               "--iters")


def _sizes(text: str, key: str) -> list:
    """A comma list of array sizes, e.g. ``8,16,32``."""
    return [_size(token, key) for token in text.split(",")]


def _objectives(args) -> dict:
    """The bound of each ``--objective`` name, the finite ones at ``--m`` x
    ``--n``; a name is its model ("static", "di") and its form."""
    from .offsets import DiAsymptotic, DiFinite, StaticAsymptotic, StaticFinite
    return {"static-asymptotic": StaticAsymptotic(),
            "static-finite": StaticFinite(args.m, args.n),
            "di-asymptotic": DiAsymptotic(args.snr_beta_db),
            "di-finite": DiFinite(args.m, args.n, args.snr_beta_db)}


# each model's shipped offsets: the ``crlb`` default, swept by --robustness
_MODEL_PRESETS = {"static": "tableII", "di": "tableIII"}


def _resolve_cli_offsets(token: str):
    from .harness import ConfigError
    from .offsets import OFFSET_PRESETS
    from .signal import OffsetSet
    if token in OFFSET_PRESETS:
        return OFFSET_PRESETS[token]
    try:
        vals = np.array([float(v) for v in token.split(",")]).reshape(3, 2)
    except ValueError:
        raise ConfigError(f"offsets: expected a preset name or six numbers, "
                          f"got {token!r}") from None
    try:
        return OffsetSet(vals)
    except ValueError as exc:
        raise ConfigError(f"offsets: {exc}") from None


def _cmd_track(args) -> int:
    from .harness import (config_from_mapping, emit_csv, format_csv,
                          parse_config_text, run_experiment)
    try:
        with open(args.config) as fh:
            mapping = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 1
    out_path = args.out or mapping.get("out")
    overrides = {"seed": args.seed, "trials": args.trials, "eccs": args.eccs,
                 "snr_db": args.snr_db, "scenario": args.scenario,
                 "tracker": args.tracker}
    if args.offsets is not None:
        overrides["offsets"] = _resolve_cli_offsets(args.offsets)
    for key, val in overrides.items():
        if val is not None:
            mapping[key] = val
    ec = config_from_mapping(mapping)
    records = run_experiment(ec)
    if out_path:
        try:
            emit_csv(records, out_path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(records)} records to {out_path}")
    else:
        sys.stdout.write(format_csv(records))
    return 0


def _cmd_crlb(args) -> int:
    from dataclasses import replace
    model = args.objective.split("-")[0]
    deltas = _resolve_cli_offsets(args.offsets or _MODEL_PRESETS[model]).deltas
    objectives = _objectives(args)
    if args.sweep_sizes:
        sizes = _sizes(args.sweep_sizes, "--sweep-sizes")
        finite = objectives[f"{model}-finite"]
        # Python floats: inf - inf below is a quiet nan, not a warning
        limit = float(objectives[f"{model}-asymptotic"].evaluate(deltas))
        print("size,mn_times_crlb,asymptotic,rel_gap")
        for s in sizes:
            scaled = float(replace(finite, m=s, n=s).evaluate(deltas)) * s * s
            print(f"{s},{scaled:.12g},{limit:.12g},{(scaled - limit) / limit:.3e}")
        return 0
    print(f"{args.objective} CRLB at the given offsets: "
          f"{float(objectives[args.objective].evaluate(deltas)):.12g}")
    return 0


def _cmd_offsets(args) -> int:
    from .offsets import (SearchConfig, canonicalize, optimize_offsets,
                          robustness_sweep, swap_applies)
    objectives = _objectives(args)
    if args.robustness:
        sizes = [(s, s) for s in _sizes(args.robustness, "--robustness")]
        model = args.objective.split("-")[0]
        preset = _resolve_cli_offsets(_MODEL_PRESETS[model])
        rows = robustness_sweep(preset, objectives[f"{model}-finite"], sizes)
        print("m,n,crlb_at_offsets,crlb_min,rel_gap")
        for ((m, n), at, best, gap) in rows:
            print(f"{m},{n},{at:.12g},{best:.12g},{gap:.3e}")
        return 0
    objective = objectives[args.objective]
    sc = SearchConfig(objective, grid_points_per_axis=args.grid,
                      refine_iters=args.iters)
    result = optimize_offsets(sc)
    canon = canonicalize(result.offsets) if swap_applies(objective) \
        else result.offsets
    lines = [f"objective: {args.objective}",
             f"crlb_value: {result.crlb_value:.12g}",
             f"restarts_used: {result.restarts_used}",
             "canonical offsets:",
             *(f"  ({row[0]: .4f}, {row[1]: .4f})" for row in canon.deltas)]
    if args.out:
        d = result.offsets.deltas.ravel()
        row = (f"{args.objective},{result.crlb_value:.12g},"
               f"{result.restarts_used}," + ",".join(f"{v:.12g}" for v in d))
        # written before anything is printed: a failed write prints nothing
        try:
            with open(args.out, "a", newline="\n") as fh:
                fh.write(row + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
        lines.append(f"appended result to {args.out}")
    print("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    from .checks import (check_fisher_oracles, check_identifiability,
                         check_mean_field, check_op_counts)
    from .harness import ConfigError
    if args.seed < 0:
        raise ConfigError(f"--seed: must be nonnegative, got {args.seed}")
    draws = 40_000 if args.quick else 200_000
    results = [
        check_identifiability(args.seed),
        check_mean_field(args.seed),
        check_op_counts(args.seed),
        check_fisher_oracles(args.seed, draws=draws),
    ]
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    return 0 if all_ok else 2


def main(argv=None) -> int:
    from .estimation import SingularFisher
    from .harness import ConfigError
    from .offsets import NoImprovement, db_to_power
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("crlb", "offsets"):
            _size_flags(args)
            try:
                db_to_power(args.snr_beta_db)
            except ValueError as exc:
                raise ConfigError(f"--snr-beta-db: {exc}") from None
        if args.command == "offsets":
            _search_flags(args)
        if args.command == "track":
            return _cmd_track(args)
        if args.command == "crlb":
            return _cmd_crlb(args)
        if args.command == "offsets":
            return _cmd_offsets(args)
        return _cmd_verify(args)
    except (ConfigError, NoImprovement, SingularFisher) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
