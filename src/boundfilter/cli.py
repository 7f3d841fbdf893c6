"""Command-line surface.

Subcommands: scan (witness sweep over the two-parameter family, CSV),
detect (one witness verdict, JSON), simulate (measurement protocol, JSON),
verify-paper (the acceptance suite as a pass/fail table) and export
(catalog listing, JSON).

Grammar: witnesses are <kind>:<side>, where a kind names one map value of
witness.MAPS (choi-phi, choi-psi, transpose) and sides are A / B; a witness
acts on the state's dimension on its side.  States and filters are labels
of the catalog table (catalog.LABELS), parsed with their colon-separated
parameters by catalog.from_label; anything with a path separator or a
.json suffix is read as a JSON file.  BF_SEED overrides
the default simulation seed; an explicit --seed beats both, and either must
lie in [0, 2^64).  Exit codes: 0 success, 1 failed verification, 2 usage,
parse or file errors.

main may be called repeatedly in one process: every call shares the one
parser that build_parser makes on the first call, and dispatches to the
cmd_* function bound on this module at that moment.
"""

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import acceptance, catalog, linalg, mcsim
from .errors import (
    BadParamError,
    BoundFilterError,
    DimensionMismatchError,
    ParseError,
)
from .filters import apply_filter, filter_from_json_dict
from .formats import dumps, fmt_num
from .measure import protocol_analytic
from .states import is_ppt, state_from_json_dict, state_to_json_dict
from .witness import apply_witness, detect, parse_witness_spec

DEFAULT_SEED = 2024
DEFAULT_SHOTS = 1000
SEED_LIMIT = 1 << 64  # the lottery reads a seed mod 2^64


def _is_path(text: str) -> bool:
    return os.sep in text or "/" in text or text.endswith(".json")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"file not found: {path}") from None
    except OSError as e:  # a directory, no permission
        raise ParseError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    except json.JSONDecodeError as e:
        raise ParseError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}"
        ) from None
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ParseError(f"{path}: JSON nested too deeply") from None


def parse_state_arg(text: str):
    """Returns (label, DensityOperator) for a JSON path or a catalog label."""
    if _is_path(text):
        return text, state_from_json_dict(_load_json(text))
    return text, catalog.from_label("state", text)


def parse_filter_arg(text: str, dims):
    """Returns a LocalFilter for a JSON path or a catalog label; `dims`
    sizes a filter whose dims follow the state's."""
    if _is_path(text):
        return filter_from_json_dict(_load_json(text))
    return catalog.from_label("filter", text, dims)


def _resolve_seed(explicit):
    seed, source = explicit, "--seed"
    if seed is None:
        env = os.environ.get("BF_SEED")
        if env is None or not env.strip():
            return DEFAULT_SEED
        try:
            seed = int(env)
        except ValueError:
            raise ParseError(
                f"BF_SEED must be an integer, got {env!r}"
            ) from None
        source = "BF_SEED"
    if not 0 <= seed < SEED_LIMIT:
        raise ParseError(f"{source} must lie in [0, 2^64), got {seed}")
    return seed


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _grid_block(x_min, x_max, steps, lo, hi) -> np.ndarray:
    """Points lo..hi-1 of np.linspace(x_min, x_max, steps), computed with
    its arithmetic and its last point set to x_max, so a block of the grid
    never needs the whole grid."""
    div = steps - 1
    delta = x_max - x_min
    step = delta / div
    i = np.arange(lo, hi, dtype=np.float64)
    # linspace divides first when the step underflows to zero
    xs = (i / div * delta if step == 0 else i * step) + x_min
    if hi == steps:
        xs[-1] = x_max
    return xs


def _scan_rows(xs, t, w, filt) -> str:
    """CSV rows for the grid points xs, evaluated as one stack."""
    rho = catalog.rho_xt(xs, t)
    unf = linalg.min_eigenvalue(apply_witness(w, rho))
    ppt = is_ppt(rho)
    # tolist() hands fmt_num Python floats, which convert and format faster
    # than numpy scalars
    cols = [
        [fmt_num(v) for v in xs.tolist()],
        [fmt_num(v) for v in unf.tolist()],
    ]
    if filt is not None:
        filtered, _ = apply_filter(filt, rho)
        wmin = linalg.min_eigenvalue(apply_witness(w, filtered))
        cols.append([fmt_num(v) for v in wmin.tolist()])
    cols.append(["true" if p else "false" for p in ppt.tolist()])
    return "".join(",".join(row) + "\n" for row in zip(*cols))


def cmd_scan(args) -> int:
    catalog.require_t(args.t)
    for name, value in (("x-min", args.x_min), ("x-max", args.x_max)):
        if not math.isfinite(value):
            raise BadParamError(f"{name} must be finite, got {value}")
    if not args.x_max > args.x_min:
        raise BadParamError(
            f"need x-min < x-max, got {args.x_min} and {args.x_max}"
        )
    if args.steps < 2:
        raise BadParamError(f"steps must be >= 2, got {args.steps}")
    if args.x_min < 0 or args.x_max > 1:
        raise BadParamError(
            "scan range outside the family domain (x in [0, 1], t > 0)"
        )
    w = parse_witness_spec(args.witness)
    filt = None
    if args.filter is not None:
        filt = parse_filter_arg(args.filter, (3, 3))
        # every row is a 3x3 rho-xt state: reject another size before the
        # header is written
        if filt.dims != (3, 3):
            raise DimensionMismatchError(
                f"filter dims {filt.dims} do not match state dims (3, 3)"
            )
    out = sys.stdout
    if filt is None:
        out.write("x,min_eig_unfiltered,ppt\n")
    else:
        out.write("x,min_eig_unfiltered,min_eig_filtered,ppt\n")
    for start in range(0, args.steps, catalog.SWEEP_BLOCK):
        stop = min(start + catalog.SWEEP_BLOCK, args.steps)
        xs = _grid_block(args.x_min, args.x_max, args.steps, start, stop)
        try:
            out.write(_scan_rows(xs, args.t, w, filt))
        except BoundFilterError:
            # some point of the block is invalid: redo the block point by
            # point, so the rows before that point are written and its own
            # error propagates
            for i in range(xs.size):
                out.write(_scan_rows(xs[i : i + 1], args.t, w, filt))
    return 0


def cmd_detect(args) -> int:
    label, rho = parse_state_arg(args.state)
    if args.filter is not None:
        filt = parse_filter_arg(args.filter, rho.dims)
        rho, _ = apply_filter(filt, rho)
        label = f"{label}|{args.filter}"
    w = parse_witness_spec(args.witness)
    report = detect(w, rho)
    payload = {
        "label": label,
        "kind": w.map.name,
        "side": w.side.value,
        "min_eigenvalue": report.min_eigenvalue,
        "detected": report.detected,
    }
    print(dumps(payload))
    return 0


def cmd_simulate(args) -> int:
    _, rho = parse_state_arg(args.state)
    filt = parse_filter_arg(args.filter, rho.dims)
    # --analytic reads neither --seed nor --shots but checks both, so both
    # paths fail with the same first error
    seed = _resolve_seed(args.seed)
    if args.analytic:
        mcsim.check_run(filt, rho, args.shots)
        state, prob = protocol_analytic(filt, rho)
        payload = {
            "analytic": True,
            "total_prob": prob,
            "state": state_to_json_dict(state),
        }
    else:
        run = mcsim.run_protocol(filt, rho, args.shots, seed)
        payload = run.to_json_dict()
    print(dumps(payload))
    return 0


def cmd_verify_paper(args) -> int:
    results = acceptance.run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}")
        print(f"    expected: {r.expected}")
        print(f"    observed: {r.observed}")
    npass = sum(r.passed for r in results)
    print(f"{npass}/{len(results)} checks passed")
    return 0 if npass == len(results) else 1


def cmd_export(args) -> int:
    print(dumps({"entries": catalog.catalog_entries()}))
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and returned by
    every later one; callers must not mutate it.  It holds no mutable
    defaults (no append actions, no list defaults), so nothing one parse
    sets can reach the next; keep it that way.  Each subcommand runs the
    cmd_* function of its name, looked up by main at call time."""
    parser = argparse.ArgumentParser(
        prog="boundfilter",
        description=(
            "Local filters, Choi-map witnesses and their measurement-based "
            "implementation for small bipartite states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "scan", help="witness sweep over the two-parameter family (CSV)"
    )
    p.add_argument("--t", type=float, required=True, help="family parameter t")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--witness", required=True, help="witness spec <kind>:<side>"
    )
    p.add_argument(
        "--filter", help="optional filter label or JSON file for a second column"
    )

    p = sub.add_parser("detect", help="one witness verdict (JSON)")
    p.add_argument("state", help="state label or JSON file")
    p.add_argument("witness", help="witness spec <kind>:<side>")
    p.add_argument("--filter", help="apply this filter before detecting")

    p = sub.add_parser(
        "simulate", help="run the measurement protocol (JSON)"
    )
    p.add_argument("state", help="state label or JSON file")
    p.add_argument("filter", help="filter label or JSON file")
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--analytic",
        action="store_true",
        help="closed-form protocol instead of Monte Carlo",
    )

    sub.add_parser(
        "verify-paper", help="run the acceptance checks and print a table"
    )
    sub.add_parser("export", help="dump catalog entries to JSON")
    return parser


def _plain_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as the CLI's own stderr line, without the Python
    source location that the default format adds."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = globals()["cmd_" + args.command.replace("-", "_")]
    with warnings.catch_warnings():
        warnings.showwarning = _plain_warning
        try:
            return cmd(args)
        except BoundFilterError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
