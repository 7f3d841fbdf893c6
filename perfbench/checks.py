"""Output checks, one per request kind, each through its own route.

A check returns None when the output is right and a one-line reason when
it is not.  `corruptions` lists small edits of a correct output that every
check must reject; the benchmark applies one to its first request of each
run, and selftest.py applies them all.
"""

import json

import numpy as np

import oracles

TOL = 1e-10
VERIFY_CHECKS = 8


class Checker:
    def __init__(self, package):
        # the package is consulted only for ProtocolRun.branch_probs, the
        # lottery input that the count check replays
        self.package = package
        self.verify_reference = None

    def check(self, req, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, "_" + req.kind)(req.expect, out)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unparsable output: {type(e).__name__}: {e}"

    # -- scan ---------------------------------------------------------------

    def _scan(self, e, out):
        lines = out.splitlines()
        filtered = e.get("filter_arg") is not None
        header = "x,min_eig_unfiltered," + (
            "min_eig_filtered,ppt" if filtered else "ppt"
        )
        if lines[0] != header:
            return f"header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        xs = e["xs"]
        if len(rows) != xs.size or any(len(r) != len(rows[0]) for r in rows):
            return f"{len(rows)} rows of uneven width, expected {xs.size}"
        cols = list(zip(*rows))
        x_out = np.array(cols[0], dtype=float)
        if np.abs(x_out - xs).max() > 1e-12:
            return "x column differs from the requested grid"
        rho = oracles.rho_xt(xs, e["t"])
        want = [oracles.min_eig(oracles.one_sided_map(
            rho, e["witness"], e["side"], (3, 3)))]
        if filtered:
            f_rho, _ = oracles.filtered(e["l"], e["m"], rho)
            want.append(oracles.min_eig(oracles.one_sided_map(
                f_rho, e["witness"], e["side"], (3, 3))))
        for col, ref in zip(cols[1:], want):
            dev = np.abs(np.array(col, dtype=float) - ref)
            if dev.max() > TOL:
                row = int(dev.argmax())
                return f"row {row}: eigenvalue off by {dev[row]:.3e}"
        ppt = oracles.min_eig(oracles.partial_transpose(rho, (3, 3), "B")) >= -TOL
        got = np.array([v == "true" for v in cols[-1]])
        if set(cols[-1]) - {"true", "false"} or (got != ppt).any():
            return "ppt verdicts differ"
        return None

    # -- detect -------------------------------------------------------------

    def _detect(self, e, out):
        obj = json.loads(out)
        rho = e["rho"]
        if "l" in e:
            rho, _ = oracles.filtered(e["l"], e["m"], rho)
        ref = float(oracles.min_eig(
            oracles.one_sided_map(rho, e["witness"], e["side"], e["dims"])))
        want = {
            "label": e["label"], "kind": e["witness"], "side": e["side"],
            "detected": ref < -TOL,
        }
        for key, val in want.items():
            if obj[key] != val:
                return f"{key} = {obj[key]!r}, expected {val!r}"
        if set(obj) != set(want) | {"min_eigenvalue"}:
            return f"keys {sorted(obj)}"
        if abs(obj["min_eigenvalue"] - ref) > TOL:
            return f"min_eigenvalue off by {abs(obj['min_eigenvalue'] - ref):.3e}"
        return None

    # -- simulate -----------------------------------------------------------

    def _run_branch_probs(self, e):
        """ProtocolRun.branch_probs for this request, from a one-shot run."""
        cli, mcsim = self.package.cli, self.package.mcsim
        _, rho = cli.parse_state_arg(e["state_arg"])
        f = cli.parse_filter_arg(e["filter_arg"], rho.dims)
        return mcsim.run_protocol(f, rho, 1, e["seed"]).branch_probs

    def _simulate(self, e, out):
        obj = json.loads(out)
        want = {"shots": e["shots"], "seed": e["seed"], "generator": "splitmix64"}
        for key, val in want.items():
            if obj[key] != val:
                return f"{key} = {obj[key]!r}, expected {val!r}"
        probs = self._run_branch_probs(e)
        ref_probs = oracles.branch_probs(e["l"], e["m"], e["rho"])
        if np.abs(np.subtract(probs, ref_probs)).max() > 1e-12:
            return f"branch probabilities {probs} differ from {ref_probs}"
        count = oracles.accept_count(e["seed"], probs, e["shots"])
        if obj["accepted"] != count:
            return f"accepted {obj['accepted']}, recount gives {count}"
        if obj["acceptance_rate"] != count / e["shots"]:
            return f"acceptance_rate {obj['acceptance_rate']!r}"
        fro = obj["frobenius_to_reference"]
        if (fro is None) != (count == 0) or (fro is not None and fro > TOL):
            return f"frobenius_to_reference {fro!r}"
        return None

    def _analytic(self, e, out):
        obj = json.loads(out)
        if obj["analytic"] is not True:
            return "analytic flag missing"
        ref = oracles.analytic_total_prob(e["l"], e["m"], e["rho"])
        if abs(obj["total_prob"] - ref) > TOL:
            return f"total_prob off by {abs(obj['total_prob'] - ref):.3e}"
        st = obj["state"]
        if (st["dimA"], st["dimB"]) != e["dims"]:
            return f"dims {(st['dimA'], st['dimB'])}"
        got = np.array([[complex(*z) for z in row] for row in st["matrix"]])
        ref_state, _ = oracles.filtered(e["l"], e["m"], e["rho"])
        if np.abs(got - ref_state).max() > TOL:
            return "output state differs from the filtered state"
        return None

    # -- verify-paper and --help -------------------------------------------

    def _verify(self, e, out):
        lines = out.splitlines()
        if lines[-1] != f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed":
            return f"last line {lines[-1]!r}"
        passed = sum(line.startswith("[PASS] ") for line in lines)
        if passed != VERIFY_CHECKS or any("[FAIL]" in line for line in lines):
            return f"{passed} PASS rows"
        # the report has no timings, so every run prints the same bytes
        if self.verify_reference is None:
            self.verify_reference = out
        elif out != self.verify_reference:
            return "report differs from the first one of this run"
        return None

    def _help(self, e, out):
        if not out.startswith("usage: boundfilter"):
            return "no usage line"
        return None


# ---------------------------------------------------------------------------
# corruptions that the checks must reject
# ---------------------------------------------------------------------------


def _edit_json(out, **changes):
    obj = json.loads(out)
    for key, fn in changes.items():
        obj[key] = fn(obj[key])
    return json.dumps(obj, indent=2) + "\n"


def _edit_scan(out, row, col, fn):
    lines = out.splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _flip_bool(v):
    return {"true": "false", "false": "true"}[v]


def corruptions(req, out):
    """(name, corrupted output) pairs for a correct output of `req`."""
    if req.kind == "scan":
        return [
            ("ppt verdict flipped", _edit_scan(out, 7, -1, _flip_bool)),
            ("eigenvalue off by 1e-9",
             _edit_scan(out, 1, 1, lambda v: repr(float(v) + 1e-9))),
            ("row dropped", "\n".join(out.splitlines()[:-1]) + "\n"),
        ]
    if req.kind == "detect":
        return [
            ("verdict flipped", _edit_json(out, detected=lambda v: not v)),
            ("eigenvalue off by 1e-9",
             _edit_json(out, min_eigenvalue=lambda v: v + 1e-9)),
        ]
    if req.kind == "simulate":
        shots = req.expect["shots"]
        return [
            ("accepted off by one", _edit_json(
                out, accepted=lambda v: v + 1,
                acceptance_rate=lambda v: v + 1 / shots)),
            ("state far from reference",
             _edit_json(out, frobenius_to_reference=lambda v: 1e-6)),
        ]
    if req.kind == "analytic":
        return [("total_prob off by 1e-9",
                 _edit_json(out, total_prob=lambda v: v + 1e-9))]
    if req.kind == "verify":
        return [
            ("one check failed", out.replace("[PASS]", "[FAIL]", 1)),
            ("summary 7/8", out.replace("8/8 checks", "7/8 checks")),
        ]
    return []
