"""The CLI contract of tests/cli_cases.py: each contract case in a fresh
process, and the table's own consistency."""

import re
from pathlib import Path

import pytest

from .cli_cases import CASES, Like, fill, run, write_inputs

SRC = Path(__file__).resolve().parent.parent / "src"
BY_NAME = {case.name: case for case in CASES}

# the argvs whose outputs CI's byte-stability step compared across trees
# before the table held them: each must stay a cross-tree case
BYTE_STEP_ARGVS = [
    "verify-paper",
    "scan --t 0.05 --x-min 0 --x-max 0.98 --steps 101 --witness choi-phi:A "
    "--filter choi-example",
    "simulate rho-xt:0.63:0.05 choi-example --analytic",
    "simulate bell gisin:0.6 --seed 7",
    "simulate bell gisin:0.3 --shots 2000000 --seed 2024",
    "detect rho-upb choi-psi:B --filter upb-rotation",
    "export",
    "simulate {tmp}/state.json {tmp}/filter.json --analytic",
    "simulate {tmp}/state.json {tmp}/filter.json --seed 7",
    "detect {tmp}/state.json choi-phi:A --filter {tmp}/filter.json",
    "detect rho-xt:0.63:0.05 choi-phi:A --filter {tmp}/scaled-filter.json",
    "scan --t 4 --x-min 0.3 --x-max 0.7 --steps 101 --witness choi-phi:B "
    "--filter choi-example",
    "detect {tmp}/bad-true.json transpose:B",
    "detect {tmp}/bad-huge.json transpose:B",
    "detect {tmp}/bad-ragged.json transpose:B",
    "detect {tmp}/state23.json transpose:A",
    "detect {tmp}/state23.json transpose:B",
    "detect {tmp}/state23.json choi-phi:B",
]


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    """A case's (stdout, stderr, exit code) as text, each case run once."""
    inputs = tmp_path_factory.mktemp("cli-inputs")
    write_inputs(inputs)
    done = {}

    def get(name):
        if name not in done:
            out, err, rc = run(BY_NAME[name], SRC, inputs)
            done[name] = (out.decode(), err.decode(), rc)
        return done[name]

    return get


def expect(want, text, result):
    if isinstance(want, Like):
        ref = result(want.name)[0]
        want = ref.replace(fill(want.old), fill(want.new), 1)
    if isinstance(want, str):
        assert text == fill(want)
    elif want is not None:
        assert want(text), text


@pytest.mark.parametrize(
    "case", [c for c in CASES if c.rc is not None], ids=lambda c: c.name
)
def test_contract_case(case, result):
    out, err, rc = result(case.name)
    assert rc == case.rc, err
    expect(case.out, out, result)
    expect(case.err, err, result)


def test_the_table_names_what_it_runs(tmp_path):
    assert len(BY_NAME) == len(CASES)
    write_inputs(tmp_path)
    written = {p.name for p in tmp_path.iterdir()}
    used = set()
    for case in CASES:
        # a case is compared across trees, or checked here, or both
        assert case.cross_tree or case.rc is not None, case.name
        for arg in case.argv.split():
            if "{tmp}" in arg:
                # {tmp}/ alone is the directory itself
                name = re.fullmatch(r"\{tmp\}/([\w.-]*)", arg).group(1)
                assert name in written | {""}, (case.name, arg)
                used.add(name)
        for want in (case.out, case.err):
            if isinstance(want, Like):
                assert BY_NAME[want.name].rc == 0, case.name
    assert written <= used
    # the decoder meets an integer literal beyond float range
    assert re.search(r"10{400},", (tmp_path / "big.json").read_text())
    cross = {c.argv for c in CASES if c.cross_tree}
    assert set(BYTE_STEP_ARGVS) <= cross
