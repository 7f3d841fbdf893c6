"""The four benchmark workloads as seeded streams of CLI requests.

A request is the argv handed to the CLI plus what its checker needs to
rebuild the answer independently.  Every stream is a pure function of the
seed, so two runs with one seed issue the same requests in the same order
for as long as both last.  Where a workload mixes request shapes, the shape
rotates in a fixed order and only the parameters are drawn, which keeps
the mix, and hence the median latency, the same from seed to seed.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

SCAN_STEPS = 400
LOTTERY_SHOTS = 2_000_000
SCAN_TS = (0.05, 0.1, 0.2, 0.5)
CHOI_WITNESSES = ("choi-phi:A", "choi-phi:B", "choi-psi:A", "choi-psi:B")
JSON_POOL = 8


@dataclass
class Request:
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)
    # units of the workload's work metric (grid points, shots) it carries
    work: int = 0


def _num(v: float) -> str:
    # repr round-trips exactly, so argparse sees the float we drew
    return repr(float(v))


def _state(label, matrix, dims):
    return {"state_arg": label, "rho": matrix, "dims": dims}


def _rho_xt(rng):
    x = float(rng.uniform(0.02, 0.98))
    t = float(rng.choice(SCAN_TS))
    return _state(f"rho-xt:{_num(x)}:{_num(t)}", oracles.rho_xt(x, t)[0], (3, 3))


def _catalog_filter(label):
    l, m = oracles.catalog_filter(label)
    return {"filter_arg": label, "l": l, "m": m}


def _gisin(rng):
    return _catalog_filter(f"gisin:{_num(rng.uniform(0.3, 0.9))}")


class Workload:
    name = ""
    # (metric, unit) counting Request.work per busy second, if any
    work_metric = None
    # request kinds run once each in fresh processes for peak RSS
    rss_requests = 1
    # latencies scaled to reference host speed (run.py, calib.py)
    scaled = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Write any input files; runs before anything is timed."""

    def requests(self):
        """Endless request stream; a new call restarts it from the seed."""
        raise NotImplementedError

    def first(self, n):
        gen = self.requests()
        return [next(gen) for _ in range(n)]


class FamilyScan(Workload):
    name = "family-scan"
    work_metric = ("points_per_s", "1/s")

    def requests(self):
        rng = np.random.default_rng([self.seed, 1])
        i = 0
        while True:
            t = float(rng.choice(SCAN_TS))
            x_min = float(rng.uniform(0.0, 0.6))
            x_max = float(rng.uniform(x_min + 0.2, 0.98))
            witness = CHOI_WITNESSES[i % len(CHOI_WITNESSES)]
            filt = _catalog_filter(
                ("choi-example", "upb-rotation")[int(rng.integers(2))]
            )
            argv = [
                "scan", "--t", _num(t), "--x-min", _num(x_min),
                "--x-max", _num(x_max), "--steps", str(SCAN_STEPS),
                "--witness", witness, "--filter", filt["filter_arg"],
            ]
            kind, side = witness.split(":")
            xs = np.linspace(x_min, x_max, SCAN_STEPS)
            yield Request(
                "scan", argv,
                dict(filt, t=t, xs=xs, witness=kind, side=side),
                work=SCAN_STEPS,
            )
            i += 1


class McLottery(Workload):
    name = "mc-lottery"
    work_metric = ("shots_per_s", "1/s")
    # The lottery streams 64 MB integer arrays, and the host's slow spells
    # barely touch it.  The reference kernel is interpreter-bound and does
    # not track it: over ten seeds, scaling raised the spread of the
    # median latency from 0.10 to 0.20.
    scaled = False

    def requests(self):
        rng = np.random.default_rng([self.seed, 2])
        i = 0
        while True:
            pair = i % 3
            if pair == 0:
                state, filt = _rho_xt(rng), _catalog_filter("choi-example")
            elif pair == 1:
                state = _state("rho-upb", oracles.rho_upb(), (3, 3))
                filt = _catalog_filter("upb-rotation")
            else:
                state, filt = _state("bell", oracles.bell(), (2, 2)), _gisin(rng)
            seed = int(rng.integers(0, 2**62))
            argv = [
                "simulate", state["state_arg"], filt["filter_arg"],
                "--shots", str(LOTTERY_SHOTS), "--seed", str(seed),
            ]
            yield Request(
                "simulate", argv,
                dict(state, **filt, seed=seed, shots=LOTTERY_SHOTS),
                work=LOTTERY_SHOTS,
            )
            i += 1


def _random_state(rng):
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _random_filter(rng):
    # condition number below 3 keeps the acceptance probability of the
    # 1000-shot protocol far from zero
    factors = []
    while len(factors) < 2:
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = np.linalg.svd(g, compute_uv=False)
        if s[0] / s[-1] < 3.0:
            factors.append(g)
    return factors


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


class ProtocolMix(Workload):
    """Twelve request shapes in a fixed rotation; the first four cover the
    four kinds (simulate, analytic, detect with filter, detect of a file)."""

    name = "protocol-mix"
    rss_requests = 4

    def prepare(self):
        rng = np.random.default_rng([self.seed, 3])
        self.json_states, self.json_filters = [], []
        os.makedirs(self.workdir, exist_ok=True)
        for k in range(JSON_POOL):
            path = os.path.join(self.workdir, f"state-{k}.json")
            m = _random_state(rng)
            self._write(path, {"dimA": 3, "dimB": 3, "matrix": _pairs(m)})
            self.json_states.append(_state(path, m, (3, 3)))
            path = os.path.join(self.workdir, f"filter-{k}.json")
            l, mm = _random_filter(rng)
            self._write(path, {"L": _pairs(l), "M": _pairs(mm)})
            self.json_filters.append({"filter_arg": path, "l": l, "m": mm})

    @staticmethod
    def _write(path, obj):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def requests(self):
        rng = np.random.default_rng([self.seed, 4])

        def js():
            return self.json_states[int(rng.integers(JSON_POOL))]

        def jf():
            return self.json_filters[int(rng.integers(JSON_POOL))]

        def upb():
            return _state("rho-upb", oracles.rho_upb(), (3, 3))

        def bell():
            return _state("bell", oracles.bell(), (2, 2))

        def named(label):
            return lambda: _catalog_filter(label)

        shapes = (
            ("simulate", lambda: _rho_xt(rng), named("choi-example")),
            ("analytic", lambda: _rho_xt(rng), named("choi-example")),
            ("detect", lambda: _rho_xt(rng), named("choi-example")),
            ("detect", js, jf),
            ("simulate", upb, named("upb-rotation")),
            ("analytic", bell, lambda: _gisin(rng)),
            ("detect", upb, named("upb-rotation")),
            ("detect", js, None),
            ("simulate", bell, lambda: _gisin(rng)),
            ("analytic", js, jf),
            ("detect", bell, lambda: _gisin(rng)),
            ("simulate", js, jf),
        )
        i = 0
        while True:
            kind, make_state, make_filter = shapes[i % len(shapes)]
            state = make_state()
            filt = make_filter() if make_filter else None
            if kind == "detect":
                side = ("A", "B")[int(rng.integers(2))]
                if state["dims"] == (3, 3):
                    kind_w = ("choi-phi", "choi-psi")[int(rng.integers(2))]
                else:
                    kind_w = "transpose"
                argv = ["detect", state["state_arg"], f"{kind_w}:{side}"]
                label = state["state_arg"]
                if filt:
                    argv += ["--filter", filt["filter_arg"]]
                    label = f"{label}|{filt['filter_arg']}"
                expect = dict(state, witness=kind_w, side=side, label=label)
                if filt:
                    expect.update(filt)
                yield Request("detect", argv, expect)
            elif kind == "analytic":
                argv = ["simulate", state["state_arg"], filt["filter_arg"],
                        "--analytic"]
                yield Request("analytic", argv, dict(state, **filt))
            else:
                seed = int(rng.integers(0, 2**62))
                argv = ["simulate", state["state_arg"], filt["filter_arg"],
                        "--seed", str(seed)]
                yield Request(
                    "simulate", argv,
                    dict(state, **filt, seed=seed, shots=1000),
                )
            i += 1


class VerifyPaper(Workload):
    """The checks pin their own inputs, so the seed changes nothing here."""

    name = "verify-paper"

    def requests(self):
        while True:
            yield Request("verify", ["verify-paper"])


WORKLOADS = {
    w.name: w for w in (FamilyScan, McLottery, ProtocolMix, VerifyPaper)
}
