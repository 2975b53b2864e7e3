"""Command-line entry point.

Subcommands: ``track`` (run a configured Monte-Carlo experiment), ``crlb``
(evaluate or sweep the bounds), ``offsets`` (search for optimal exploration
offsets or sweep a fixed set's robustness), ``verify`` (run the built-in
correctness suites).  Exit codes: 0 success, 1 configuration error, 2
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="beamtrack",
                     description="2D phased-array beam and channel tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="run a Monte-Carlo tracking experiment")
    track.add_argument("--config", required=True,
                       help="TOML config file, the run's only settings")
    track.add_argument("--out", help="CSV output path (default: stdout)")
    track.set_defaults(run=_cmd_track)

    crlb = sub.add_parser("crlb", help="evaluate or sweep the tracking bounds")
    off = sub.add_parser("offsets", help="search for optimal exploration offsets")
    for bound in (crlb, off):
        bound.add_argument("--objective", required=True,
                           choices=["static-asymptotic", "static-finite",
                                    "di-asymptotic", "di-finite"])
        bound.add_argument("--m", help="elements along x (default 8)")
        bound.add_argument("--n", help="elements along z (default 8)")
        bound.add_argument("--snr-beta-db", type=float,
                           help="gain SNR of the di-* objectives in dB "
                                "(default 0)")
    crlb.add_argument("--offsets")
    crlb.add_argument("--sweep-sizes",
                      help="comma list of square sizes, e.g. 8,16,32 (takes "
                           "neither --m nor --n)")
    crlb.set_defaults(run=_cmd_crlb)

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
    off.set_defaults(run=_cmd_offsets)

    ver = sub.add_parser("verify", help="run the built-in correctness suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--quick", action="store_true",
                     help="fewer Monte-Carlo draws")
    ver.set_defaults(run=_cmd_verify)
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
    """A ConfigError naming the first of ``flags`` that was given with
    ``sweep`` (a sweep flag or an objective), which does not use it."""
    from .harness import ConfigError
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag.replace('_', '-')}: not used with "
                              f"{sweep}")


def _bound_flags(args, sweep: str, text) -> list:
    """Check the flags ``crlb`` and ``offsets`` share and return the
    square sizes ``text`` of the ``sweep`` flag names (none without it):
    ``--m`` and ``--n`` (default 8), which a sweep sizes itself and takes
    neither of, then ``--snr-beta-db`` (default 0), which only the
    ``di-*`` objectives take and which must not exceed the ceiling of the
    finite direction bound at any size the command evaluates that bound
    at."""
    from .arrays import db_to_power
    from .estimation import snr_beta_db_ceiling
    from .harness import ConfigError
    if text:
        _unused(args, sweep, ("m", "n"))
    args.m = _size(8 if args.m is None else args.m, "--m")
    args.n = _size(8 if args.n is None else args.n, "--n")
    sizes = [_size(token, sweep) for token in text.split(",")] if text else []
    model, form = args.objective.split("-")
    if model == "static":
        _unused(args, args.objective, ("snr_beta_db",))
    args.snr_beta_db = 0.0 if args.snr_beta_db is None else args.snr_beta_db
    try:
        db_to_power(args.snr_beta_db)
    except ValueError as exc:
        raise ConfigError(f"--snr-beta-db: {exc}") from None
    if model == "di" and (sizes or form == "finite"):
        m, n = (max(sizes),) * 2 if sizes else (args.m, args.n)
        ceiling = snr_beta_db_ceiling(m * n)
        if args.snr_beta_db > ceiling:
            raise ConfigError(f"--snr-beta-db: {args.snr_beta_db!r} is above "
                              f"the ceiling of {ceiling:.3f} dB at {m}x{n}, "
                              f"over which the direction Fisher overflows "
                              f"a float")
    return sizes


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


def _cmd_track(args) -> int:
    # imported per call: a module-level import would bind the names before
    # bench/tracing.py wraps them on their modules
    from .harness import (emit_csv, format_csv, load_experiment,
                          run_experiment)
    records = run_experiment(load_experiment(args.config))
    if args.out:
        try:
            emit_csv(records, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(records)} records to {args.out}")
    else:
        sys.stdout.write(format_csv(records))
    return 0


def _cmd_crlb(args) -> int:
    from dataclasses import replace
    import numpy as np
    from .harness import parse_offsets
    sizes = _bound_flags(args, "--sweep-sizes", args.sweep_sizes)
    model = args.objective.split("-")[0]
    deltas = parse_offsets(args.offsets or _MODEL_PRESETS[model]).deltas
    objectives = _objectives(args)
    if sizes:
        finite = objectives[f"{model}-finite"]
        # Python floats: inf - inf below is a quiet nan, not a warning
        limit = float(objectives[f"{model}-asymptotic"].evaluate(deltas))
        # every size in one call, one set per size
        at = np.array(sizes)
        values = replace(finite, m=at, n=at).evaluate(
            np.broadcast_to(deltas, (len(sizes), 3, 2)))
        print("size,mn_times_crlb,asymptotic,rel_gap")
        for s, value in zip(sizes, values.tolist()):
            scaled = value * s * s
            print(f"{s},{scaled:.12g},{limit:.12g},{(scaled - limit) / limit:.3e}")
        return 0
    print(f"{args.objective} CRLB at the given offsets: "
          f"{float(objectives[args.objective].evaluate(deltas)):.12g}")
    return 0


def _cmd_offsets(args) -> int:
    # imported per call, as in _cmd_track
    from dataclasses import replace
    from .harness import ConfigError
    from .offsets import (OFFSET_PRESETS, NoImprovement, SearchConfig,
                          canonicalize, check_domain, optimize_offsets,
                          robustness_sweep, swap_applies)
    sizes = _bound_flags(args, "--robustness", args.robustness)
    _search_flags(args)
    objectives = _objectives(args)
    model = args.objective.split("-")[0]
    name = _MODEL_PRESETS[model]
    finite = objectives[f"{model}-finite"]
    objective = objectives[args.objective]
    try:
        if sizes:
            rows = robustness_sweep(OFFSET_PRESETS[name], finite,
                                    [(s, s) for s in sizes])
        else:
            result = optimize_offsets(SearchConfig(
                objective, grid_points_per_axis=args.grid,
                refine_iters=args.iters))
    except NoImprovement:
        # where a gain SNR put the preset's bound at a searched size outside
        # the search's domain, name the flag rather than the failure
        searched = [replace(finite, m=s, n=s) for s in sizes] or [objective]
        for at in searched if model == "di" else ():
            try:
                check_domain(at, OFFSET_PRESETS[name])
            except ValueError as exc:
                raise ConfigError(f"--snr-beta-db: at {args.snr_beta_db!r} "
                                  f"dB and the {name} offsets {exc}") from None
        raise
    if sizes:
        print("m,n,crlb_at_offsets,crlb_min,rel_gap")
        for ((m, n), at, best, gap) in rows:
            print(f"{m},{n},{at:.12g},{best:.12g},{gap:.3e}")
        return 0
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
    from .offsets import NoImprovement
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, NoImprovement, SingularFisher) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
