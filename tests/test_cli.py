import errno
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boundfilter import catalog, cli, filters, linalg
from boundfilter.cli import main
from boundfilter.errors import BoundFilterError
from boundfilter.filters import apply_filter, filter_to_json_dict
from boundfilter.formats import fmt_num
from boundfilter.states import state_from_json_dict, state_to_json_dict
from boundfilter.tolerances import TOL_NEG
from boundfilter.witness import MAPS, apply_witness, parse_witness_spec

from .oracles import main_per_call, pt_b_loops


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_basic_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "scan",
        "--t", "0.05",
        "--x-min", "0.6",
        "--x-max", "0.66",
        "--steps", "4",
        "--witness", "choi-phi:A",
    )
    assert code == 0 and err == ""
    lines = out.split("\n")
    assert lines[0] == "x,min_eig_unfiltered,ppt"
    assert lines[-1] == ""  # trailing newline, LF endings
    rows = [l.split(",") for l in lines[1:-1]]
    assert len(rows) == 4
    assert rows[0][0] == "0.6" and rows[-1][0] == "0.66"
    assert all(r[2] == "true" for r in rows)  # family is PPT throughout


def test_scan_filtered_column_changes_sign(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--t", "0.05",
        "--x-min", "0.63",
        "--x-max", "0.64",
        "--steps", "2",
        "--witness", "choi-phi:A",
        "--filter", "choi-example",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,min_eig_unfiltered,min_eig_filtered,ppt"
    x, unf, filt, ppt = lines[1].split(",")
    assert x == "0.63" and ppt == "true"
    assert float(unf) > 0  # witness blind before the filter
    assert float(filt) < 0  # detection after


@pytest.mark.parametrize(
    "args",
    [
        ["--t", "0.05", "--x-min", "0.7", "--x-max", "0.6", "--steps", "3"],
        ["--t", "0.05", "--x-min", "0.0", "--x-max", "1.0", "--steps", "1"],
        ["--t", "-1", "--x-min", "0.0", "--x-max", "1.0", "--steps", "3"],
        ["--t", "0.05", "--x-min", "0.0", "--x-max", "1.5", "--steps", "3"],
        ["--t", "inf", "--x-min", "0.0", "--x-max", "0.5", "--steps", "3"],
        ["--t", "nan", "--x-min", "0.0", "--x-max", "0.5", "--steps", "3"],
        ["--t", "0.05", "--x-min", "nan", "--x-max", "0.5", "--steps", "3"],
        ["--t", "0.05", "--x-min", "0.0", "--x-max", "inf", "--steps", "3"],
    ],
)
def test_scan_rejects_bad_ranges(capsys, args):
    code, out, err = run_cli(
        capsys, "scan", *args, "--witness", "choi-phi:A"
    )
    assert code == 2 and out == ""  # rejected before the CSV header
    assert err.startswith("error:") and err.count("\n") == 1
    if {"inf", "nan"} & set(args):
        assert "must be finite" in err


def test_scan_bad_witness_spec(capsys):
    code, _, err = run_cli(
        capsys,
        "scan",
        "--t", "0.05",
        "--x-min", "0.6",
        "--x-max", "0.66",
        "--steps", "2",
        "--witness", "choi-phi",
    )
    assert code == 2
    assert "<kind>:<side>" in err


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, "0"),
        (-0.0, "0"),
        (1e-4, "0.0001"),
        (-1e-4, "-0.0001"),
        (float(np.nextafter(1e-4, 0.0)), "1.00000000000000e-04"),
        (float(np.nextafter(-1e-4, 0.0)), "-1.00000000000000e-04"),
        (5e-324, "4.94065645841247e-324"),
        (-5e-324, "-4.94065645841247e-324"),
        (sys.float_info.max, "1.79769313486232e+308"),
        (-sys.float_info.max, "-1.79769313486232e+308"),
        (1 / 3, "0.333333333333333"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
    ],
)
def test_fmt_num_prints_fixed_strings(value, text, kind):
    # 15 significant digits, scientific below 1e-4, either zero as 0
    assert fmt_num(kind(value)) == text


def per_point_scan(t, x_min, x_max, steps, spec, filt_label):
    """scan's CSV built one DensityOperator at a time; stops at the first
    invalid point and returns (csv text, that point's error message)."""
    w = parse_witness_spec(spec)
    filt = filt_label and catalog.from_label("filter", filt_label)
    text = "x,min_eig_unfiltered,"
    text += "min_eig_filtered,ppt\n" if filt else "ppt\n"
    for x in np.linspace(x_min, x_max, steps):
        try:
            rho = catalog.rho_xt(float(x), t)
            wmin = linalg.min_eigenvalue(apply_witness(w, rho))
            cols = [fmt_num(x), fmt_num(wmin)]
            if filt:
                filtered, _ = apply_filter(filt, rho)
                wmin = linalg.min_eigenvalue(apply_witness(w, filtered))
                cols.append(fmt_num(wmin))
            pt_min = np.linalg.eigh(pt_b_loops(rho.mat, 3, 3))[0][0]
            cols.append("true" if pt_min >= -TOL_NEG else "false")
        except BoundFilterError as e:
            return text, str(e)
        text += ",".join(cols) + "\n"
    return text, None


@pytest.mark.parametrize("filt", [None, "choi-example", "upb-rotation"])
@pytest.mark.parametrize(
    "spec",
    [f"{k}:{s}" for k in ("choi-phi", "choi-psi", "transpose") for s in "AB"],
)
def test_scan_blocks_match_per_point_reference(capsys, spec, filt):
    # 130 points: two full blocks and a partial third
    argv = [
        "scan", "--t", "0.2", "--x-min", "0.02", "--x-max", "0.98",
        "--steps", "130", "--witness", spec,
    ]
    if filt:
        argv += ["--filter", filt]
    code, out, err = run_cli(capsys, *argv)
    ref, ref_err = per_point_scan(0.2, 0.02, 0.98, 130, spec, filt)
    assert ref_err is None
    assert (code, err) == (0, "")
    assert out == ref


def test_scan_error_keeps_rows_before_first_invalid_point(capsys):
    # at t = 2 positivity needs x^2 <= 1/2: grid point 144 (x = 0.709...)
    # is the first outside, in the middle of the third block
    code, out, err = run_cli(
        capsys,
        "scan",
        "--t", "2.0",
        "--x-min", "0.0",
        "--x-max", "0.98",
        "--steps", "200",
        "--witness", "choi-phi:A",
        "--filter", "choi-example",
    )
    ref, ref_err = per_point_scan(
        2.0, 0.0, 0.98, 200, "choi-phi:A", "choi-example"
    )
    assert code == 2
    assert out == ref
    rows = out.split("\n")[1:-1]
    assert len(rows) == 144
    assert rows[-1].startswith("0.704221105527638,")
    assert err == (
        "error: positivity invariant failed: min eigenvalue = -1.424182e-04\n"
    )
    assert err == f"error: {ref_err}\n"


def test_scan_grid_blocks_equal_linspace():
    # each block's points are computed from its index range, bit for bit
    # as np.linspace gives them, including the last point set to x_max and
    # a step that underflows to zero
    rnd = random.Random(5)
    ranges = [(0.0, 1.0), (0.6, 0.66), (0.0, 5e-324), (0.5, 0.5 + 2e-16)]
    # at 63 steps the last computed point of this range misses x_max
    ranges.append((0.024619711463343408, 0.5245095586030891))
    ranges += [tuple(sorted(rnd.random() for _ in range(2))) for _ in range(8)]
    for x_min, x_max in ranges:
        for steps in (2, 3, 63, 64, 65, 127, 128, 129, 1000, 4097):
            want = np.linspace(x_min, x_max, steps)
            got = np.concatenate([
                cli._grid_block(
                    x_min, x_max, steps, lo,
                    min(lo + catalog.SWEEP_BLOCK, steps),
                )
                for lo in range(0, steps, catalog.SWEEP_BLOCK)
            ])
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (x_min, x_max, steps)


def test_scan_memory_does_not_grow_with_steps(monkeypatch):
    # the rows go to a sink, so the traced peak is the sweep's own; a
    # whole 20000-point grid alone would add 160 kB
    class Sink:
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())

    def peak(steps):
        argv = [
            "scan", "--t", "0.05", "--x-min", "0", "--x-max", "1",
            "--steps", str(steps), "--witness", "choi-phi:A",
        ]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # first call: parser, superoperator and import caches
    assert peak(20000) <= peak(200) + 32 * 1024


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def test_detect_bell_transpose(capsys):
    code, out, _ = run_cli(capsys, "detect", "bell", "transpose:B")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "bell"
    assert payload["kind"] == "transpose"
    assert payload["side"] == "B"
    assert payload["detected"] is True
    assert payload["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-10)


@pytest.mark.parametrize("name", list(MAPS))
def test_detect_prints_the_map_name_as_kind(capsys, name):
    code, out, _ = run_cli(capsys, "detect", "rho-upb", f"{name}:A")
    assert code == 0 and json.loads(out)["kind"] == name


def test_detect_filtered_family_state(capsys):
    code, out, _ = run_cli(
        capsys,
        "detect",
        "rho-xt:0.63:0.05",
        "choi-phi:A",
        "--filter", "choi-example",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "rho-xt:0.63:0.05|choi-example"
    assert payload["detected"] is True
    assert payload["min_eigenvalue"] == pytest.approx(
        -3.1097783531212e-4, abs=1e-9
    )


def test_detect_defaults_for_family_label(capsys):
    code, out, _ = run_cli(capsys, "detect", "rho-xt", "choi-phi:A")
    payload = json.loads(out)
    assert code == 0 and payload["detected"] is False
    assert payload["min_eigenvalue"] == pytest.approx(
        3.746072556899412e-4, abs=1e-9
    )


def test_detect_state_and_filter_from_files(capsys, tmp_path):
    state_path = tmp_path / "state.json"
    filt_path = tmp_path / "filter.json"
    state_path.write_text(
        json.dumps(state_to_json_dict(catalog.rho_xt(0.63, 0.05)))
    )
    filt_path.write_text(
        json.dumps(filter_to_json_dict(catalog.choi_example_filter()))
    )
    code, out, _ = run_cli(
        capsys,
        "detect",
        str(state_path),
        "choi-phi:A",
        "--filter", str(filt_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["detected"] is True
    assert payload["min_eigenvalue"] == pytest.approx(
        -3.1097783531212e-4, abs=1e-9
    )


def test_detect_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "detect", "nope", "choi-phi:A")
    assert code == 2 and "unknown state" in err
    code, _, err = run_cli(capsys, "detect", "bell", "bogus:A")
    assert code == 2 and "witness" in err
    assert run_cli(capsys, "detect", "bell", "choi-phi:A") == (
        2, "", "error: choi-phi requires a 3-dimensional side, "
        "got local_dim=2\n"
    )
    code, _, err = run_cli(
        capsys, "detect", str(tmp_path / "missing.json"), "choi-phi:A"
    )
    assert code == 2 and "not found" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "detect", str(bad), "choi-phi:A")
    assert code == 2 and "line 1" in err


def test_unreadable_file_arguments_exit_2(capsys, tmp_path):
    not_utf8 = tmp_path / "state.json"
    not_utf8.write_bytes(b"\xff\xfe\x00")
    cases = [
        (tmp_path, os.strerror(errno.EISDIR)),
        (not_utf8, "not UTF-8 text (invalid start byte at byte 0)"),
    ]
    for path, reason in cases:
        for argv in (
            ["detect", str(path), "choi-phi:A"],
            ["detect", "rho-xt", "choi-phi:A", "--filter", str(path)],
            ["simulate", "bell", str(path), "--analytic"],
        ):
            assert run_cli(capsys, *argv) == (
                2, "", f"error: {path}: {reason}\n"
            )


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0,
    reason="file permissions do not bind the superuser",
)
def test_unreadable_permission_exits_2(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text("{}")
    path.chmod(0)
    try:
        assert run_cli(capsys, "detect", str(path), "choi-phi:A") == (
            2, "", f"error: {path}: {os.strerror(errno.EACCES)}\n"
        )
    finally:
        path.chmod(0o600)


TRY_STATE = "(try rho-xt:<x>:<t>, rho-upb, bell, max-mixed, or a JSON file)"
TRY_FILTER = (
    "(try choi-example, upb-rotation, gisin:<kappa>, identity, or a JSON file)"
)

# every catalog label x {unknown label with parameters, wrong parameter
# count, unparsable parameter, label of the other kind}: (kind the argument
# is read as, argument, the whole stderr)
LABEL_ERRORS = [
    ("state", "rho-xt-2:0.6:0.1",
     f"unknown state 'rho-xt-2:0.6:0.1' {TRY_STATE}"),
    ("state", "rho-xt:0.6", "rho-xt takes two parameters: rho-xt:<x>:<t>"),
    ("state", "rho-xt:0.6:abc", "rho-xt: cannot parse parameter 'abc'"),
    ("filter", "rho-xt:0.6:0.1",
     f"unknown filter 'rho-xt:0.6:0.1' {TRY_FILTER}"),
    ("state", "rho-upb-2:1", f"unknown state 'rho-upb-2:1' {TRY_STATE}"),
    ("state", "rho-upb:1", "state 'rho-upb' takes no parameters"),
    ("state", "rho-upb:abc", "state 'rho-upb' takes no parameters"),
    ("filter", "rho-upb", f"unknown filter 'rho-upb' {TRY_FILTER}"),
    ("state", "bell-2:1", f"unknown state 'bell-2:1' {TRY_STATE}"),
    ("state", "bell:1:2", "state 'bell' takes no parameters"),
    ("state", "bell:abc", "state 'bell' takes no parameters"),
    ("filter", "bell", f"unknown filter 'bell' {TRY_FILTER}"),
    ("state", "max-mixed-2:1", f"unknown state 'max-mixed-2:1' {TRY_STATE}"),
    ("state", "max-mixed:9", "state 'max-mixed' takes no parameters"),
    ("state", "max-mixed:abc", "state 'max-mixed' takes no parameters"),
    ("filter", "max-mixed", f"unknown filter 'max-mixed' {TRY_FILTER}"),
    ("filter", "choi-example-2:1",
     f"unknown filter 'choi-example-2:1' {TRY_FILTER}"),
    ("filter", "choi-example:1", "filter 'choi-example' takes no parameters"),
    ("filter", "choi-example:abc",
     "filter 'choi-example' takes no parameters"),
    ("state", "choi-example", f"unknown state 'choi-example' {TRY_STATE}"),
    ("filter", "upb-rotation-2:1",
     f"unknown filter 'upb-rotation-2:1' {TRY_FILTER}"),
    ("filter", "upb-rotation:1", "filter 'upb-rotation' takes no parameters"),
    ("filter", "upb-rotation:abc",
     "filter 'upb-rotation' takes no parameters"),
    ("state", "upb-rotation", f"unknown state 'upb-rotation' {TRY_STATE}"),
    ("filter", "gisin-2:0.5", f"unknown filter 'gisin-2:0.5' {TRY_FILTER}"),
    ("filter", "gisin:0.5:0.5", "gisin takes one parameter: gisin:<kappa>"),
    ("filter", "gisin:abc", "gisin: cannot parse parameter 'abc'"),
    ("state", "gisin:0.5", f"unknown state 'gisin:0.5' {TRY_STATE}"),
    ("filter", "identity-2:3", f"unknown filter 'identity-2:3' {TRY_FILTER}"),
    ("filter", "identity:3", "filter 'identity' takes no parameters"),
    ("filter", "identity:abc", "filter 'identity' takes no parameters"),
    ("state", "identity", f"unknown state 'identity' {TRY_STATE}"),
]


@pytest.mark.parametrize("kind,arg,message", LABEL_ERRORS)
def test_label_error_messages(capsys, kind, arg, message):
    if kind == "state":
        argv = ["detect", arg, "choi-phi:A"]
    else:
        argv = ["simulate", "max-mixed", arg, "--analytic"]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_label_errors_cover_every_label():
    heads = [arg.split(":")[0] for _, arg, _ in LABEL_ERRORS]
    for label in catalog.LABELS:
        # wrong count, unparsable, other kind; plus one unknown near-miss
        assert heads.count(label) == 3 and heads.count(f"{label}-2") == 1


@pytest.mark.parametrize("which", ["state", "filter"])
def test_non_finite_json_input_exits_2(capsys, tmp_path, which):
    # the NaN literal, and an integer beyond float range (it would round to
    # infinity, like 1e400)
    for bad in (float("nan"), 10**400):
        state = state_to_json_dict(catalog.rho_xt(0.63, 0.05))
        filt = filter_to_json_dict(catalog.choi_example_filter())
        target = state["matrix"] if which == "state" else filt["L"]
        target[1][1][0] = bad
        state_path = tmp_path / "state.json"
        filt_path = tmp_path / "filter.json"
        state_path.write_text(json.dumps(state))
        filt_path.write_text(json.dumps(filt))
        path = state_path if which == "state" else filt_path
        assert f"[{json.dumps(bad)}, " in path.read_text()
        what = "state matrix" if which == "state" else "filter L"
        argv = ["detect", str(state_path), "choi-phi:A"]
        assert run_cli(capsys, *argv, "--filter", str(filt_path)) == (
            2, "", f"error: {what} row 1 col 1: entry is NaN or infinite\n"
        )


def test_boolean_state_dims_exit_2(capsys, tmp_path):
    # JSON true decodes to a bool, which Python counts as an int
    state = state_to_json_dict(catalog.bell_state())
    state["dimA"] = True
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert "true" in path.read_text()
    for argv in (
        ["detect", str(path), "transpose:A"],
        ["simulate", str(path), "identity", "--analytic"],
    ):
        assert run_cli(capsys, *argv) == (
            2, "", "error: state: dimA and dimB must be integers\n"
        )


@pytest.mark.parametrize("entry", [[True, False], [1.0, False]])
def test_boolean_filter_entries_exit_2(capsys, tmp_path, entry):
    filt = filter_to_json_dict(catalog.gisin_filter(0.6))
    filt["L"][0][1] = entry
    path = tmp_path / "filter.json"
    path.write_text(json.dumps(filt))
    assert run_cli(capsys, "simulate", "bell", str(path), "--analytic") == (
        2, "", "error: filter L row 0 col 1: expected a [re, im] pair\n"
    )


def test_degenerate_json_input_prints_one_plain_error(capsys, tmp_path):
    # a zero trace prints as a plain float, and finite entries near the
    # float limit, which overflow in the state gate, give the error line
    # alone, without numpy's warnings; a matrix whose solve overflows is no
    # state, and a filter that would overflow the sandwich is rejected
    huge = [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]
    off = [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]
    files = {
        "zero.json": {"dimA": 1, "dimB": 1, "matrix": [[[0.0, 0.0]]]},
        "huge.json": {"dimA": 2, "dimB": 1, "matrix": huge},
        "off.json": {"dimA": 2, "dimB": 1, "matrix": off},
        "filter.json": {"L": huge, "M": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    for argv, message in (
        ([str(tmp_path / "zero.json")], "trace invariant failed: trace = 0.0"),
        ([str(tmp_path / "huge.json")], "trace invariant failed: trace = inf"),
        (
            [str(tmp_path / "off.json")],
            "positivity invariant failed: min eigenvalue = nan",
        ),
        (
            ["bell", "--filter", str(tmp_path / "filter.json")],
            HUGE_FILTER_ERROR,
        ),
    ):
        argv = ["detect", argv[0], "transpose:A", *argv[1:]]
        for _ in range(2):
            assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


SCAN_RANGE = ["--x-min", "0", "--x-max", "0.5", "--steps", "3"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, t",
    [
        (["detect", "rho-xt:0.5:1e308", "choi-phi:A"], "1e+308"),
        (["detect", "rho-xt:0.5:1e-308", "choi-phi:A"], "1e-308"),
        (["simulate", "rho-xt:0.5:1e-320", "choi-example", "--analytic"],
         "1e-320"),
        (["simulate", "rho-xt:0.5:1e-320", "choi-example", "--seed", "1"],
         "1e-320"),
        (["scan", "--t", "1e308", *SCAN_RANGE, "--witness", "choi-phi:A"],
         "1e+308"),
        (["scan", "--t", "1e-320", *SCAN_RANGE, "--witness", "choi-phi:A"],
         "1e-320"),
    ],
    ids=["detect-big", "detect-small", "analytic", "simulate", "scan-big",
         "scan-small"],
)
def test_overflowing_t_prints_one_error_naming_t(capsys, argv, t):
    # no numpy warning, and scan writes no header
    assert run_cli(capsys, *argv) == (
        2, "", f"error: t must keep 4 + 3/t + 4t finite, got {t}\n"
    )


@pytest.mark.parametrize("t", ["inf", "nan", "-1", "0"])
def test_scan_states_the_t_rule_as_the_family_label_does(capsys, t):
    # catalog.require_t is scan's one rule for t, checked before the range
    scan = run_cli(
        capsys, "scan", "--t", t, *SCAN_RANGE, "--witness", "choi-phi:A"
    )
    detect = run_cli(capsys, "detect", f"rho-xt:0.5:{t}", "choi-phi:A")
    assert scan == detect
    assert scan[0] == 2 and scan[1] == "" and scan[2].startswith("error: t ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_t_inside_the_rule_gives_a_verdict(capsys):
    for t in ("1e306", "4e307", "2e-308", "1e-306"):
        code, out, err = run_cli(
            capsys, "detect", f"rho-xt:0.5:{t}", "choi-phi:A"
        )
        assert (code, err) == (0, ""), t
        assert json.loads(out)["detected"] is False


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    # json's decoder recurses once per nesting level: a file nested past
    # the recursion limit is a parse error, as a state and as a filter
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    message = f"error: {path}: JSON nested too deeply\n"
    for argv in (
        ["detect", str(path), "choi-phi:A"],
        ["simulate", "bell", str(path), "--analytic"],
    ):
        assert run_cli(capsys, *argv) == (2, "", message)


HUGE_FILTER_ERROR = (
    "filter factors L and M are too large: sigma_max(L) * sigma_max(M) = "
    "1e+308 exceeds 1.3407807929942596e+154"
)


def _scaled_identity_filter(path, scale, dim):
    def diag(v):
        return [[[v * (i == j), 0] for j in range(dim)] for i in range(dim)]

    path.write_text(json.dumps({"L": diag(scale), "M": diag(1)}))
    return str(path)


def test_overflowing_filter_is_rejected_by_every_command(capsys, tmp_path):
    # sigma_max(L) sigma_max(M) = 1e308 exceeds sqrt(float max): every
    # command stops at the filter, before any output
    two = _scaled_identity_filter(tmp_path / "two.json", 1e308, 2)
    three = _scaled_identity_filter(tmp_path / "three.json", 1e308, 3)
    scan = ["scan", "--t", "0.05", "--x-min", "0.5", "--x-max", "0.7"]
    for argv in (
        ["detect", "bell", "transpose:A", "--filter", two],
        ["simulate", "bell", two, "--shots", "1000", "--seed", "1"],
        ["simulate", "bell", two, "--analytic"],
        scan + ["--steps", "3", "--witness", "choi-phi:A", "--filter", three],
    ):
        assert run_cli(capsys, *argv) == (
            2, "", f"error: {HUGE_FILTER_ERROR}\n"
        )


def test_filter_at_1e154_is_accepted(capsys, tmp_path):
    path = _scaled_identity_filter(tmp_path / "filter.json", 1e154, 2)
    code, out, err = run_cli(
        capsys, "detect", "bell", "transpose:A", "--filter", path
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["detected"] is True
    code, out, err = run_cli(capsys, "simulate", "bell", path, "--seed", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["accepted"] == 1000
    code, out, err = run_cli(capsys, "simulate", "bell", path, "--analytic")
    assert (code, err) == (0, "")
    assert json.loads(out)["total_prob"] == pytest.approx(1.0)


def test_a_scaled_filter_prints_the_unscaled_output(capsys, tmp_path):
    # 2^-60 choi-example is choi-example: only the label tells them apart
    f = catalog.choi_example_filter()
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(filter_to_json_dict(
        filters.make_filter(2.0**-60 * f.l, f.m)
    )))
    state = "rho-xt:0.63:0.05"
    for argv in (
        lambda filt: ["detect", state, "choi-phi:A", "--filter", filt],
        lambda filt: ["simulate", state, filt, "--analytic"],
    ):
        code, out, err = run_cli(capsys, *argv(str(path)))
        assert (code, err) == (0, "")
        ref = run_cli(capsys, *argv("choi-example"))[1]
        assert out == ref.replace("|choi-example", f"|{path}")


def test_an_ill_conditioned_filter_file_exits_2(capsys, tmp_path):
    # sigma_min 1e-11 is far above TOL_RANK but 1e-17 of sigma_max
    def diag(v):
        return [[[v[i] * (i == j), 0] for j in range(3)] for i in range(3)]

    path = tmp_path / "cond.json"
    path.write_text(
        json.dumps({"L": diag([1e6, 1, 1e-11]), "M": diag([1, 1, 1])})
    )
    assert run_cli(
        capsys, "detect", "rho-xt:0.63:0.05", "choi-phi:A", "--filter",
        str(path),
    ) == (
        2, "", "error: filter factor L is singular (smallest singular value "
        "1.000e-11)\n"
    )


def test_scan_rejects_a_filter_of_other_dims_before_the_header(capsys):
    assert run_cli(
        capsys,
        "scan",
        "--t", "0.05",
        "--x-min", "0.5",
        "--x-max", "0.7",
        "--steps", "3",
        "--witness", "choi-phi:A",
        "--filter", "gisin",
    ) == (2, "", "error: filter dims (2, 2) do not match state dims (3, 3)\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_payload_and_determinism(capsys):
    argv = [
        "simulate", "rho-xt:0.63:0.05", "choi-example",
        "--shots", "400", "--seed", "5",
    ]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out1)
    assert payload["shots"] == 400
    assert payload["seed"] == 5
    assert payload["generator"] == "splitmix64"
    assert 0 < payload["accepted"] <= 400
    assert payload["acceptance_rate"] == payload["accepted"] / 400
    assert payload["frobenius_to_reference"] < 1e-10
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_simulate_seed_precedence(capsys, monkeypatch):
    base = ["simulate", "rho-xt:0.63:0.05", "choi-example", "--shots", "300"]
    _, explicit, _ = run_cli(capsys, *base, "--seed", "7")
    monkeypatch.setenv("BF_SEED", "7")
    _, from_env, _ = run_cli(capsys, *base)
    assert from_env == explicit
    monkeypatch.setenv("BF_SEED", "8")
    _, flag_wins, _ = run_cli(capsys, *base, "--seed", "7")
    assert flag_wins == explicit
    _, env_8, _ = run_cli(capsys, *base)
    assert env_8 != explicit
    monkeypatch.setenv("BF_SEED", "not-a-number")
    code, _, err = run_cli(capsys, *base)
    assert code == 2 and "BF_SEED" in err


@pytest.mark.parametrize("seed", [-1, 2**64, 10**23])
def test_seed_outside_64_bits_exits_2(capsys, monkeypatch, seed):
    # the lottery reads its seed mod 2^64, so these would alias a seed in
    # range while the JSON echoed another; --analytic reads no seed but
    # rejects the same ones
    for base in (
        ["simulate", "bell", "identity", "--shots", "5"],
        ["simulate", "bell", "identity", "--shots", "5", "--analytic"],
    ):
        monkeypatch.delenv("BF_SEED", raising=False)
        assert run_cli(capsys, *base, "--seed", str(seed)) == (
            2, "", f"error: --seed must lie in [0, 2^64), got {seed}\n"
        )
        monkeypatch.setenv("BF_SEED", str(seed))
        assert run_cli(capsys, *base) == (
            2, "", f"error: BF_SEED must lie in [0, 2^64), got {seed}\n"
        )


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_are_accepted(capsys, monkeypatch, seed):
    base = ["simulate", "rho-xt:0.63:0.05", "choi-example", "--shots", "300"]
    monkeypatch.delenv("BF_SEED", raising=False)
    code, explicit, err = run_cli(capsys, *base, "--seed", str(seed))
    assert (code, err) == (0, "")
    assert json.loads(explicit)["seed"] == seed
    monkeypatch.setenv("BF_SEED", str(seed))
    assert run_cli(capsys, *base) == (0, explicit, "")


def test_simulate_analytic(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "rho-xt:0.63:0.05", "choi-example", "--analytic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["analytic"] is True
    assert payload["total_prob"] == pytest.approx(
        37.9359375 / 64.2, rel=1e-12
    )
    state = state_from_json_dict(payload["state"])
    direct, _ = apply_filter(
        catalog.choi_example_filter(), catalog.rho_xt(0.63, 0.05)
    )
    assert np.abs(state.mat - direct.mat).max() < 1e-12


def test_simulate_identity_filter_dims_follow_state(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "bell", "identity", "--shots", "50", "--seed", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] == 50


def test_identity_gisin_warns_in_one_plain_line(capsys):
    # the warning is the CLI's own stderr line, with no Python source
    # location, on every call; stdout is that of the identity filter
    argv = ["simulate", "bell", "gisin:1", "--shots", "50", "--seed", "1"]
    _, identity_out, _ = run_cli(
        capsys, "simulate", "bell", "identity", "--shots", "50", "--seed", "1"
    )
    for _ in range(2):
        assert run_cli(capsys, *argv) == (
            0,
            identity_out,
            "warning: gisin filter with kappa = 1 is the identity\n",
        )


def test_simulate_bad_shots(capsys):
    # --analytic runs no lottery but rejects the same shot counts
    for shots in (0, -3):
        base = ["simulate", "bell", "identity", "--shots", str(shots)]
        for argv in (base + ["--seed", "1"], base + ["--analytic"]):
            assert run_cli(capsys, *argv) == (
                2, "", f"error: shots must be >= 1, got {shots}\n"
            )
    # a dims mismatch is reported first on both paths
    base = ["simulate", "rho-xt", "gisin", "--shots", "0"]
    for argv in (base + ["--seed", "1"], base + ["--analytic"]):
        assert run_cli(capsys, *argv) == (
            2, "", "error: filter dims (2, 2) do not match state dims (3, 3)\n"
        )


# ---------------------------------------------------------------------------
# verify-paper and export
# ---------------------------------------------------------------------------


def test_verify_paper_all_pass_and_stable(capsys):
    code, out1, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[-1] == "8/8 checks passed"
    assert sum(l.startswith("[PASS]") for l in lines) == 8
    assert not any(l.startswith("[FAIL]") for l in lines)
    code2, out2, _ = run_cli(capsys, "verify-paper")
    assert out2 == out1  # byte-identical rerun


def test_export_lists_catalog(capsys):
    code, out, _ = run_cli(capsys, "export")
    assert code == 0
    payload = json.loads(out)
    labels = {e["label"] for e in payload["entries"]}
    assert labels == {
        "rho-xt", "rho-upb", "bell", "max-mixed",
        "choi-example", "upb-rotation", "gisin", "identity",
    }


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_patched_command_runs_after_the_parser_is_built(capsys, monkeypatch):
    run_cli(capsys, "detect", "bell", "transpose:B")  # builds the parser
    calls = []

    def fake_detect(args):
        calls.append((args.state, args.witness, args.filter))
        return 7

    monkeypatch.setattr(cli, "cmd_detect", fake_detect)
    assert run_cli(capsys, "detect", "bell", "transpose:B") == (7, "", "")
    assert calls == [("bell", "transpose:B", None)]


# request groups for the shared-parser test; a group runs as a unit, so the
# unseeded simulate always follows a seeded one
MIXED_GROUPS = [
    [["scan", "--t", "0.05", "--x-min", "0.6", "--x-max", "0.66",
      "--steps", "5", "--witness", "choi-phi:A"]],
    [["scan", "--t", "0.05", "--x-min", "0.6", "--x-max", "0.66",
      "--steps", "3", "--witness", "choi-psi:B", "--filter", "choi-example"]],
    [["scan", "--t", "2", "--x-min", "0.6", "--x-max", "0.9", "--steps", "7",
      "--witness", "choi-phi:A"]],  # rows, then a positivity error
    [["detect", "bell", "transpose:B"]],
    [["detect", "rho-xt:0.63:0.05", "choi-phi:A", "--filter",
      "choi-example"]],
    [["detect", "rho-upb", "choi-psi:B", "--filter", "upb-rotation"]],
    [["simulate", "rho-xt:0.63:0.05", "choi-example", "--shots", "200",
      "--seed", "5"],
     ["simulate", "rho-xt:0.63:0.05", "choi-example", "--shots", "200"]],
    [["simulate", "bell", "gisin:0.6", "--seed", "11"],
     ["simulate", "bell", "gisin:0.6"]],
    [["simulate", "rho-upb", "upb-rotation", "--analytic"]],
    [["simulate", "bell", "gisin:1", "--shots", "50", "--seed", "1"]],
    [["export"]],
    [["--help"]],
    [["simulate", "-h"]],
    [["frobnicate"]],
    [["scan", "--t", "0.05"]],
    [["simulate", "bell"]],
    [["detect", "bell", "transpose:B", "--shots", "3"]],
    [["simulate", "bell", "identity", "--shots", "x"]],
    [["detect", "nope", "choi-phi:A"]],
    [["simulate", "bell", "identity", "--shots", "0", "--seed", "1"]],
    [["scan", "--t", "-1", "--x-min", "0", "--x-max", "1", "--steps", "3",
      "--witness", "choi-phi:A"]],
]


def _outcome(capsys, entry, argv):
    try:
        code = entry(argv)
    except SystemExit as e:
        code = ("exit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_matches_a_parser_per_request(capsys, monkeypatch):
    monkeypatch.delenv("BF_SEED", raising=False)
    rng = random.Random(9)
    requests = [["verify-paper"]]
    for _ in range(10):
        groups = MIXED_GROUPS[:]
        rng.shuffle(groups)
        requests += [argv for group in groups for argv in group]
    requests.append(["verify-paper"])
    assert len(requests) >= 200
    cli.build_parser.cache_clear()
    shared = [_outcome(capsys, main, argv) for argv in requests]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(requests) - 1)
    for argv, got in zip(requests, shared):
        assert got == _outcome(capsys, main_per_call, argv), argv
    codes = {code for code, _, _ in shared}
    assert codes == {0, 2, ("exit", 0), ("exit", 2)}


def test_json_output_is_what_json_dumps_prints(capsys, monkeypatch, tmp_path):
    # the CLI's own writer must print exactly json.dumps(indent=2)'s text
    monkeypatch.delenv("BF_SEED", raising=False)
    state_path = tmp_path / "state.json"
    filt_path = tmp_path / "filter.json"
    state_path.write_text(
        json.dumps(state_to_json_dict(catalog.rho_xt(0.63, 0.05)))
    )
    filt_path.write_text(
        json.dumps(filter_to_json_dict(catalog.choi_example_filter()))
    )
    requests = [
        argv for group in MIXED_GROUPS for argv in group
        if argv[0] in ("detect", "simulate", "export")
    ] + [
        ["simulate", str(state_path), str(filt_path), "--analytic"],
        ["detect", str(state_path), "choi-phi:A", "--filter", str(filt_path)],
    ]
    printed = 0
    for argv in requests:
        code, out, _ = _outcome(capsys, main, argv)
        if code == 0:
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            printed += 1
    assert printed == 12


# ---------------------------------------------------------------------------
# warm requests: the argument-free catalog objects are shared per process
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# each argument-free state label with a filter label of its dims, so that
# every argument-free state and filter label is named once
SHARED_PAIRS = [
    ("rho-upb", "upb-rotation", "choi-psi:B"),
    ("bell", "identity", "transpose:B"),
    ("max-mixed", "choi-example", "choi-phi:A"),
]
SHARED_REQUESTS = [
    argv
    for state, filt, spec in SHARED_PAIRS
    for argv in (
        ["detect", state, spec, "--filter", filt],
        ["simulate", state, filt, "--analytic"],
        ["simulate", state, filt, "--shots", "200", "--seed", "3"],
    )
] + [["verify-paper"]]
PARAMETRIC_REQUESTS = [
    ["detect", "rho-xt:0.6:0.1", "choi-phi:A", "--filter", "choi-example"],
    ["simulate", "rho-xt:0.63:0.05", "upb-rotation", "--analytic"],
    ["simulate", "bell", "gisin:0.5", "--shots", "100", "--seed", "2"],
]


def test_warm_requests_print_what_a_fresh_process_prints(capsys, monkeypatch):
    monkeypatch.delenv("BF_SEED", raising=False)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = []
    for argv in SHARED_REQUESTS:
        res = subprocess.run(
            [sys.executable, "-m", "boundfilter", *argv],
            env=env, capture_output=True,
        )
        assert (res.returncode, res.stderr) == (0, b""), argv
        fresh.append(res.stdout)
    for _ in range(2):
        for i, argv in enumerate(SHARED_REQUESTS):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out.encode() == fresh[i], argv
            extra = PARAMETRIC_REQUESTS[i % len(PARAMETRIC_REQUESTS)]
            assert run_cli(capsys, *extra)[0] == 0, extra
