"""Sweep engine, figure presets, dataset emission, landmark extraction."""

import cmath
import concurrent.futures
import json
import math
import os
import re

import numpy as np
import pytest

import importlib

from nonrecip import (
    Axis,
    ModelParams,
    RateUnit,
    InvalidParameterPath,
    InvalidParams,
    SweepSpec,
    SweepTable,
    UnknownFigure,
    figure_ids,
    figure_preset,
    reproduce_figure,
    sweep,
    transmission_pair,
    write_csv,
    write_json,
)
from nonrecip.cli import cli_main
from nonrecip.design import j2_literal, j3_roots, r_coefficients
from nonrecip.params import model_params_to_dict
from nonrecip.sweep import (
    PHASEMAP_POINTS,
    SPECTRUM_POINTS,
    phasemap_spec,
    spectrum_spec,
    table_to_json,
    threshold_band,
)
from nonrecip.transmission import isolation_db, thread_count

# the module whose chunk size test_threads_do_not_change_bytes patches
transmission_mod = importlib.import_module("nonrecip.transmission")
sweep_mod = importlib.import_module("nonrecip.sweep")

HALF_PI = math.pi / 2


def test_axis_validation():
    with pytest.raises(InvalidParameterPath):
        Axis("J9", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("y", 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Axis("y", 1.0, 0.0, 5)
    for start, stop in ((-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            Axis("y", start, stop, 5)
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="axis points must be an integer"):
            Axis("y", 0.0, 1.0, bad)
    assert Axis("y", 0.0, 1.0, np.int64(3)).grid().tolist() == [0.0, 0.5, 1.0]
    assert Axis("y", -1.0, 1.0, 3).grid().tolist() == [-1.0, 0.0, 1.0]


def test_spec_validation(base_params):
    p = base_params(HALF_PI)
    with pytest.raises(InvalidParameterPath):
        SweepSpec(fixed=p, axis1=Axis("y", 0, 1, 2), axis2=Axis("y", 0, 1, 2))
    with pytest.raises(ValueError):
        SweepSpec(fixed=p, axis1=Axis("y", 0, 1, 2), observables=("T12", "T12"))
    with pytest.raises(ValueError):
        SweepSpec(fixed=p, axis1=Axis("y", 0, 1, 2), observables=("T99",))
    with pytest.raises(ValueError, match="at least one observable"):
        SweepSpec(fixed=p, axis1=Axis("theta", 0, 1, 2), observables=())
    with pytest.raises(ValueError, match="y must be finite"):
        SweepSpec(fixed=p, axis1=Axis("theta", 0, 1, 2), y=math.inf)
    # a list is stored as the tuple the table's columns are built from
    spec = SweepSpec(fixed=p, axis1=Axis("y", 0, 1, 2), observables=["T12"])
    assert spec.observables == ("T12",)
    assert sweep(spec).columns == ("y", "T12", "status")


def test_spec_rejects_a_lone_observable_name(base_params):
    # tuple("T12") would be ('T', '1', '2'), reported as unknown letters
    p = base_params(HALF_PI)
    for name in ("T12", "isolation_db"):
        with pytest.raises(ValueError, match="not a str"):
            SweepSpec(fixed=p, axis1=Axis("y", 0, 1, 2), observables=name)


@pytest.mark.parametrize("axis, named", [
    (Axis("kappa1", -1.0, 1.0, 3), "kappa1 nonnegative"),
    (Axis("kappa1", 0.0, 1.0, 3), "kappa1=0.0"),
    (Axis("J2", -1.0, 1.0, 3), "J2 nonnegative when real"),
], ids=["negative-rate", "closed-port", "negative-real-j2"])
def test_sweep_axis_endpoints_obey_params_rule(base_params, monkeypatch,
                                               axis, named):
    # the endpoints are checked as parameter sets before the kernel runs
    def no_kernel(v):
        raise AssertionError("the kernel ran on an invalid axis")

    monkeypatch.setattr(sweep_mod, "transmission_arrays", no_kernel)
    p = base_params(HALF_PI)
    for spec in (SweepSpec(fixed=p, axis1=axis),
                 SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3), axis2=axis)):
        with pytest.raises(InvalidParams, match=named):
            sweep(spec)


@pytest.mark.parametrize("span, points", [(1e80, 5), (1e155, 3)])
def test_sweep_beyond_the_evaluable_range_is_rejected(span, points):
    # the ends overflow D and the pole threshold: the sweep raises, with
    # no numpy overflow warning first and no NaN row written as "ok"
    spec = SweepSpec(fixed=figure_preset("fig4d").fixed,
                     axis1=Axis("y", -span, span, points))
    named = re.escape(f"at |y| up to {span}: the pole threshold")
    with pytest.raises(InvalidParams, match=named):
        sweep(spec)


def test_sweep_near_the_range_keeps_its_values():
    p = figure_preset("fig4d").fixed
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1e60, 1e60, 5)))
    assert not table.singular.any()
    for y, t12, t21 in zip(table.data["y"], table.data["T12"],
                           table.data["T21"]):
        tp = transmission_pair(p, float(y))
        assert t12 > 0.0 and t21 > 0.0
        assert t12 == pytest.approx(tp.T12, rel=1e-12)
        assert t21 == pytest.approx(tp.T21, rel=1e-12)


def test_single_point_sweep_equals_transmission_pair(base_params):
    p = base_params(HALF_PI)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", 0.25, 0.25, 1)))
    tp = transmission_pair(p, 0.25)
    assert table.columns == ("y", "T12", "T21", "status")
    assert table.status.tolist() == ["ok"]
    assert table.data["y"][0] == 0.25
    assert table.data["T12"][0] == pytest.approx(tp.T12, rel=1e-12)
    assert table.data["T21"][0] == pytest.approx(tp.T21, rel=1e-12)


def test_sweep_over_theta_matches_pointwise(base_params):
    p = base_params(0.0, HALF_PI)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("theta", 0.0, 6.0, 11),
                            y=0.4, observables=("T12", "T21", "isolation_db")))
    from dataclasses import replace
    for k, th in enumerate(table.data["theta"]):
        tp = transmission_pair(replace(p, theta=float(th)), 0.4)
        assert table.data["T12"][k] == pytest.approx(tp.T12, rel=1e-12)
        assert table.data["T21"][k] == pytest.approx(tp.T21, rel=1e-12)
    assert np.all(np.isfinite(table.data["isolation_db"]))


def test_two_axis_row_order(base_params):
    p = base_params(HALF_PI)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3),
                            axis2=Axis("theta", 0.0, 3.0, 2)))
    assert table.columns == ("y", "theta", "T12", "T21", "status")
    # axis2 outer, axis1 inner
    assert table.data["theta"].tolist() == [0.0, 0.0, 0.0, 3.0, 3.0, 3.0]
    assert table.data["y"].tolist() == [-1.0, 0.0, 1.0, -1.0, 0.0, 1.0]


def test_sweep_keeps_singular_rows(base_params, tmp_path):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3)))
    assert table.status.tolist() == ["ok", "singular", "ok"]
    assert math.isnan(table.data["T12"][1])
    path = tmp_path / "singular.csv"
    write_csv(table, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "y,T12,T21,status"
    assert lines[2] == "0.0000000000000000e+00,,,singular"


def test_csv_format_and_determinism(base_params, tmp_path):
    p = base_params(HALF_PI)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 21)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(table, str(p1))
    write_csv(table, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1  # LF endings only
    first = b1.decode().splitlines()[1].split(",")
    assert first[0] == "-1.0000000000000000e+00"  # 17 significant digits


def test_threads_do_not_change_bytes(base_params, monkeypatch, cpus):
    # shrink the chunk size so the grid actually splits across workers
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    p = base_params(HALF_PI)
    spec = SweepSpec(fixed=p, axis1=Axis("y", -2.0, 2.0, 101))
    cpus(1)
    serial = sweep(spec)
    cpus(4)
    threaded = sweep(spec)
    assert np.array_equal(serial.data["T12"], threaded.data["T12"])
    assert np.array_equal(serial.data["T21"], threaded.data["T21"])


@pytest.mark.parametrize("points1", [7, 40])
def test_threads_do_not_change_two_axis_bytes(base_params, monkeypatch,
                                              cpus, points1):
    # 16 points per chunk: two rows of 7, or one row of 40 (more than a chunk)
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    p = base_params(HALF_PI)
    spec = SweepSpec(fixed=p, axis1=Axis("y", -2.0, 2.0, points1),
                     axis2=Axis("phi", 0.0, 6.0, 9))
    cpus(1)
    serial = sweep(spec)
    cpus(2)
    threaded = sweep(spec)
    assert np.array_equal(serial.data["T12"], threaded.data["T12"])
    assert np.array_equal(serial.data["T21"], threaded.data["T21"])


def test_thread_count_follows_cpu_affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cpus(1)
    assert thread_count() == 1
    cpus(40)
    assert thread_count() == 32
    # without affinity, the CPU count, still capped
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 32


def test_pool_has_one_worker_per_cpu(base_params, monkeypatch, cpus):
    # four CPUs and seven 16-point blocks start a pool of four workers,
    # whatever the CPU count of the host running the test
    started = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    cpus(4)
    table = sweep(SweepSpec(fixed=base_params(HALF_PI),
                            axis1=Axis("y", -2.0, 2.0, 101)))
    assert started == [4]
    assert len(table) == 101


def test_sweep_singular_mask_and_status_view(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3)))
    assert table.singular.dtype == bool
    assert table.singular.tolist() == [False, True, False]
    status = np.full(len(table), "ok", dtype="<U8")
    status[table.singular] = "singular"
    assert table.status.dtype == status.dtype
    assert np.array_equal(table.status, status)
    with pytest.raises(AttributeError):
        table.status = status


def test_isolation_db_in_blocks_matches_whole_table(base_params,
                                                    monkeypatch, cpus):
    # 16-point blocks on two threads; the middle row of the first
    # spec is a pole
    monkeypatch.setattr(transmission_mod, "_CHUNK", 16)
    cpus(2)
    obs = ("isolation_db", "T12", "T21")
    pole = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0,
                       gamma=0.0)
    p = base_params(HALF_PI)
    for spec in (SweepSpec(fixed=pole, axis1=Axis("y", -1.0, 1.0, 101),
                           observables=obs),
                 SweepSpec(fixed=p, axis1=Axis("y", -2.0, 2.0, 7),
                           axis2=Axis("phi", 0.0, 6.0, 9), observables=obs)):
        table = sweep(spec)
        want = isolation_db(table.data["T12"], table.data["T21"])
        assert np.array_equal(table.data["isolation_db"], want,
                              equal_nan=True)
    assert table.columns[-4:] == obs + ("status",)


def test_table_json_round_trip(base_params):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3)))
    payload = table_to_json(table)
    assert payload["schema_version"] == 1
    assert payload["columns"] == list(table.columns)
    text = json.dumps(payload)  # NaN cells must serialize as null
    assert "NaN" not in text
    rows = payload["rows"]
    assert rows[1][1] is None and rows[1][3] == "singular"


def _stdlib_json_bytes(table, path):
    # the reference layout: the stdlib encoder with an indent, in Python
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_json(table), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


def _per_cell_csv_bytes(table, path):
    # the row-by-row, cell-by-cell writer that write_csv must reproduce
    names = [c for c in table.columns if c != "status"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.columns) + "\n")
        cols = [table.data[name] for name in names]
        status = table.status
        for i in range(len(table)):
            cells = []
            for col in cols:
                v = float(col[i])
                cells.append("" if math.isnan(v) else f"{v:.16e}")
            cells.append(str(status[i]))
            fh.write(",".join(cells) + "\n")
    return path.read_bytes()


def test_write_json_singular_rows_match_stdlib(base_params, tmp_path):
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3),
                            observables=("T12", "T21", "isolation_db")))
    assert table.status.tolist() == ["ok", "singular", "ok"]
    assert math.isnan(table.data["isolation_db"][1])
    write_json(table, str(tmp_path / "t.json"))
    got = (tmp_path / "t.json").read_bytes()
    assert got == _stdlib_json_bytes(table, tmp_path / "ref.json")
    assert b"NaN" not in got
    assert json.loads(got)["rows"][1] == [0.0, None, None, None, "singular"]


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_write_json_block_edges_match_stdlib(base_params, tmp_path, offset):
    # one row, and one row short of, exactly at and one row past a block
    rows = 1 if offset is None else sweep_mod._ROWS_PER_BLOCK + offset
    table = sweep(SweepSpec(fixed=base_params(HALF_PI),
                            axis1=Axis("y", -2.0, 2.0, rows)))
    write_json(table, str(tmp_path / "t.json"))
    got = (tmp_path / "t.json").read_bytes()
    assert got == _stdlib_json_bytes(table, tmp_path / "ref.json")
    assert len(json.loads(got)["rows"]) == rows


def test_write_json_empty_table_matches_stdlib(tmp_path):
    empty = np.array([])
    table = SweepTable(columns=("y", "T12", "status"),
                       data={"y": empty, "T12": empty},
                       singular=np.array([], dtype=bool))
    write_json(table, str(tmp_path / "t.json"))
    assert (tmp_path / "t.json").read_bytes() == \
        _stdlib_json_bytes(table, tmp_path / "ref.json")


def test_write_json_phase_map_matches_stdlib(base_params, tmp_path):
    table = sweep(phasemap_spec(base_params(0.0), points=9, y=0.3))
    write_json(table, str(tmp_path / "t.json"))
    assert (tmp_path / "t.json").read_bytes() == \
        _stdlib_json_bytes(table, tmp_path / "ref.json")


def test_write_csv_matches_per_cell_writer(base_params, tmp_path):
    table = sweep(figure_preset("fig2"))
    write_csv(table, str(tmp_path / "fig2.csv"))
    assert (tmp_path / "fig2.csv").read_bytes() == \
        _per_cell_csv_bytes(table, tmp_path / "ref.csv")
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    singular = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 3),
                               observables=("T12", "T21", "isolation_db")))
    write_csv(singular, str(tmp_path / "s.csv"))
    assert (tmp_path / "s.csv").read_bytes() == \
        _per_cell_csv_bytes(singular, tmp_path / "s_ref.csv")


def _assert_writers_match_references(table, tmp_path):
    write_csv(table, str(tmp_path / "t.csv"))
    write_json(table, str(tmp_path / "t.json"))
    assert (tmp_path / "t.csv").read_bytes() == \
        _per_cell_csv_bytes(table, tmp_path / "ref.csv")
    assert (tmp_path / "t.json").read_bytes() == \
        _stdlib_json_bytes(table, tmp_path / "ref.json")


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_write_csv_block_edges_match_per_cell_writer(base_params, tmp_path,
                                                     offset):
    rows = 1 if offset is None else sweep_mod._ROWS_PER_BLOCK + offset
    table = sweep(SweepSpec(fixed=base_params(HALF_PI),
                            axis1=Axis("y", -2.0, 2.0, rows),
                            observables=("T12", "T21", "isolation_db")))
    write_csv(table, str(tmp_path / "t.csv"))
    got = (tmp_path / "t.csv").read_bytes()
    assert got == _per_cell_csv_bytes(table, tmp_path / "ref.csv")
    assert got.count(b"\n") == rows + 1


def test_write_csv_empty_table_matches_per_cell_writer(tmp_path):
    empty = np.array([])
    table = SweepTable(columns=("y", "T12", "status"),
                       data={"y": empty, "T12": empty},
                       singular=np.array([], dtype=bool))
    write_csv(table, str(tmp_path / "t.csv"))
    got = (tmp_path / "t.csv").read_bytes()
    assert got == b"y,T12,status\n"
    assert got == _per_cell_csv_bytes(table, tmp_path / "ref.csv")


def test_writers_two_axis_map_with_singular_rows(base_params, tmp_path):
    # undamped mechanics, nothing coupled: every y = 0 row is a pole
    p = base_params(0.0, G1=0.0, G2=0.0, J1=0.0, J2=0.0, J3=0.0, gamma=0.0)
    table = sweep(SweepSpec(fixed=p, axis1=Axis("y", -1.0, 1.0, 5),
                            axis2=Axis("kappa1", 0.5, 1.5, 3),
                            observables=("T12", "isolation_db", "T21")))
    assert table.singular.tolist() == [False, False, True, False, False] * 3
    _assert_writers_match_references(table, tmp_path)
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert rows[3].endswith(",,,,singular")
    assert json.loads((tmp_path / "t.json").read_text())["rows"][2][2:] == \
        [None, None, None, "singular"]


def test_writers_keep_signed_zero_axis_values(tmp_path):
    # axis values repeat out of order across blocks; -0.0 and 0.0 have
    # distinct spellings and must not be merged as equal floats
    pattern = [0.0, -0.0, 1.5, -0.0, 2.5, 0.0, -1.0, 1.5, 0.0]
    axis = np.array(pattern * 300)
    t12 = np.linspace(0.0, 1.0, len(axis))
    table = SweepTable(columns=("y", "T12", "status"),
                       data={"y": axis, "T12": t12},
                       singular=np.zeros(len(axis), dtype=bool))
    _assert_writers_match_references(table, tmp_path)
    csv_rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in csv_rows[:3]] == [
        "0.0000000000000000e+00", "-0.0000000000000000e+00",
        "1.5000000000000000e+00"]
    json_rows = json.loads((tmp_path / "t.json").read_text())["rows"]
    signs = [math.copysign(1.0, r[0]) for r in json_rows[:len(pattern)]]
    assert signs == [math.copysign(1.0, v) for v in pattern]


def test_writers_spell_infinite_cells(tmp_path):
    t12 = np.array([math.inf, 0.5, -math.inf, math.nan])
    table = SweepTable(columns=("y", "T12", "status"),
                       data={"y": np.array([0.0, 1.0, 2.0, 3.0]), "T12": t12},
                       singular=np.isnan(t12))
    _assert_writers_match_references(table, tmp_path)
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
        "0.0000000000000000e+00,inf,ok",
        "1.0000000000000000e+00,5.0000000000000000e-01,ok",
        "2.0000000000000000e+00,-inf,ok",
        "3.0000000000000000e+00,,singular"]
    text = (tmp_path / "t.json").read_text()
    assert "Infinity" in text and "-Infinity" in text and "null" in text


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_phasemap_command_at_default_size_matches_references(
        base_params, tmp_path, fmt):
    # the benchmarked command: the default 201 x 201 map
    p = base_params(HALF_PI)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(model_params_to_dict(p)))
    out = tmp_path / "out"
    assert cli_main(["phasemap", "--params", str(params), "--out", str(out),
                     "--format", fmt]) == 0
    table = sweep(phasemap_spec(p))
    assert len(table) == PHASEMAP_POINTS ** 2
    reference = _stdlib_json_bytes if fmt == "json" else _per_cell_csv_bytes
    assert (out / f"phasemap.{fmt}").read_bytes() == \
        reference(table, tmp_path / f"ref.{fmt}")


def test_figure_id_catalog():
    ids = figure_ids()
    assert len(ids) == 31
    assert "fig2" in ids
    for prefix, letters in (("fig3", "abcdefgh"), ("fig4", "abcdefgh"),
                            ("fig5", "abc"), ("fig6", "abc"),
                            ("fig7", "abcd"), ("fig8", "abcd")):
        for letter in letters:
            assert prefix + letter in ids
    with pytest.raises(UnknownFigure):
        figure_preset("fig99")
    with pytest.raises(UnknownFigure):
        figure_preset("fig3z")


def test_fig3_presets_step_the_phases(base_params):
    for k, letter in enumerate("abcdefgh"):
        spec = figure_preset(f"fig3{letter}")
        assert spec.fixed.theta == pytest.approx((k * math.pi / 4) % (2 * math.pi))
        assert spec.fixed.phi == pytest.approx(spec.fixed.theta)
        assert spec.axis1.name == "y"
        assert spec.axis1.points == SPECTRUM_POINTS
        assert (spec.axis1.start, spec.axis1.stop) == (-5.0, 5.0)


def test_fig3c_preset_transcription(base_params):
    spec = figure_preset("fig3c")
    p = spec.fixed
    assert p.unit.reference == "gamma"
    assert (p.kappa1, p.kappa2, p.gamma, p.f) == (1.0, 1.0, 1.0, 10.0)
    assert (p.G1, p.G2, p.J1) == (0.5, 0.5, 0.5)
    assert p.J2 == 0.01 and p.J3 == 4.476j
    assert p.theta == p.phi == pytest.approx(HALF_PI)


def test_fig4h_preset_equals_fig3c():
    assert figure_preset("fig4h") == figure_preset("fig3c")


def test_fig4_presets_vary_one_coupling():
    for letter, j2 in zip("abcd", (0.01, 0.1, 0.3, 0.5)):
        assert figure_preset(f"fig4{letter}").fixed.J2 == j2
    for letter, j3 in zip("efgh", (0.476j, 1.476j, 2.476j, 4.476j)):
        assert figure_preset(f"fig4{letter}").fixed.J3 == j3


def test_fig2_preset_is_phase_map():
    spec = figure_preset("fig2")
    assert (spec.axis1.name, spec.axis2.name) == ("theta", "phi")
    assert spec.axis1.points == spec.axis2.points == PHASEMAP_POINTS
    assert spec.y == 0.0


def test_designed_presets_follow_root_formula():
    # fig5b fixes the positive-branch root of the design quartic
    spec = figure_preset("fig5b")
    p = spec.fixed
    assert p.unit.reference == "kappa2"
    assert (p.kappa1, p.kappa2, p.gamma, p.f) == (10.0, 1.0, 0.01, 1.0)
    r = r_coefficients(10.0, 1.0, 0.01, 1.0, p.G1, p.G2, p.J1)
    disc = math.sqrt(r.R8 ** 2 - 4 * r.R7 * r.R9)
    plus = complex(np.emath.sqrt((-r.R8 + disc) / (2 * r.R7)))
    assert p.J3 == pytest.approx(plus, rel=1e-12)
    assert any(p.J3 == pytest.approx(z, rel=1e-12) for z in j3_roots(r))
    # fig6b uses the mirrored branch
    q = figure_preset("fig6b").fixed
    minus = -complex(np.emath.sqrt((-r.R8 - disc) / (2 * r.R7)))
    assert q.J3 == pytest.approx(minus, rel=1e-12)


def _root_formula_params(kappa1, kappa2, gamma, f, branch):
    # the designed point written out from the quartic's root formula:
    # "plus" J3 = +sqrt(x+), "minus" J3 = -sqrt(x-), with
    # x+- = (-R8 +- sqrt(disc))/(2 R7) where that is the larger in
    # magnitude and R9 / (R7 x-+) where it is the smaller
    G1 = math.sqrt(gamma * kappa1)
    G2 = math.sqrt(gamma * kappa2)
    J1 = G1 * G2 / (gamma + f)
    r = r_coefficients(kappa1, kappa2, gamma, f, G1, G2, J1)
    disc = cmath.sqrt(complex(r.R8 * r.R8 - 4.0 * r.R7 * r.R9))
    xp = (-r.R8 + disc) / (2.0 * r.R7)
    xm = (-r.R8 - disc) / (2.0 * r.R7)
    if abs(xm) > abs(xp):
        xp = r.R9 / (r.R7 * xm) + 0j
    else:
        xm = r.R9 / (r.R7 * xp) + 0j
    J3 = cmath.sqrt(xp) if branch == "plus" else -cmath.sqrt(xm)
    return ModelParams(
        kappa1=kappa1, kappa2=kappa2, gamma=gamma, f=f, G1=G1, G2=G2,
        theta=math.pi / 2.0, J1=J1, J2=j2_literal(J1, J3, gamma, f, G1, G2),
        phi=math.pi / 2.0, J3=J3, unit=RateUnit("kappa2", 1.0))


def test_designed_presets_equal_root_formula_exactly():
    cases = [(f"fig5{c}", 0.01, f, "plus") for c, f in zip("abc", (0.1, 1.0, 5.0))]
    cases += [(f"fig6{c}", 0.01, f, "minus") for c, f in zip("abc", (0.1, 1.0, 5.0))]
    cases += [(f"fig7{c}", g, 1.0, "plus")
              for c, g in zip("abcd", (0.001, 0.01, 0.1, 1.0))]
    cases += [(f"fig8{c}", g, 1.0, "minus")
              for c, g in zip("abcd", (0.001, 0.01, 0.1, 1.0))]
    assert len(cases) == 14
    for fid, gamma, f, branch in cases:
        expect = _root_formula_params(10.0, 1.0, gamma, f, branch)
        assert figure_preset(fid).fixed == expect, fid


def test_fig7_presets_sweep_gamma():
    gammas = [figure_preset(f"fig7{c}").fixed.gamma for c in "abcd"]
    assert gammas == [0.001, 0.01, 0.1, 1.0]
    for c in "abcd":
        p = figure_preset(f"fig7{c}").fixed
        assert (p.kappa1, p.kappa2, p.f) == (10.0, 1.0, 1.0)


def test_reproduce_figure_writes_files(tmp_path):
    summary = reproduce_figure("fig3c", out_dir=str(tmp_path))
    assert (tmp_path / "fig3c.csv").exists()
    assert (tmp_path / "fig3c_summary.json").exists()
    assert summary["schema_version"] == 1
    assert summary["figure"] == "fig3c"
    with open(tmp_path / "fig3c_summary.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["landmarks"] == summary["landmarks"]
    res = summary["landmarks"]["resonance"]
    assert res["y"] == 0.0
    assert res["T21"] > 0.99
    header = (tmp_path / "fig3c.csv").read_text().splitlines()[0]
    assert header == "y,T12,T21,status"


def test_reproduce_figure_reciprocal_preset(tmp_path):
    summary = reproduce_figure("fig3e", out_dir=str(tmp_path))
    assert summary["landmarks"]["max_abs_T12_minus_T21"] < 1e-10


def test_reproduce_figure_designed_preset(tmp_path):
    summary = reproduce_figure("fig5b", out_dir=str(tmp_path))
    res = summary["landmarks"]["resonance"]
    hi, lo = max(res["T12"], res["T21"]), min(res["T12"], res["T21"])
    assert abs(hi - 1.0) < 1e-3 and lo < 1e-3


def test_reproduce_figure_phase_map_duality(tmp_path):
    summary = reproduce_figure("fig2", out_dir=str(tmp_path))
    marks = summary["landmarks"]
    assert marks["duality_max_abs_residual"] < 1e-10
    a = marks["theta_phi_pi_over_2"]
    b = marks["theta_phi_3pi_over_2"]
    assert a["T12"] == pytest.approx(b["T21"], rel=1e-10)
    assert a["T21"] == pytest.approx(b["T12"], rel=1e-10)


def test_reproduce_figure_unknown(tmp_path):
    with pytest.raises(UnknownFigure):
        reproduce_figure("fig12", out_dir=str(tmp_path))


def test_threshold_band_semantics():
    ys = np.linspace(-5.0, 5.0, 101)
    vs = np.where(np.abs(ys) < 2.0, 0.1, 0.9)
    band = threshold_band(ys, vs, 0.5, below=True)
    assert band["y_lo"] == pytest.approx(-1.95)
    assert band["y_hi"] == pytest.approx(1.95)
    assert band["width"] == pytest.approx(3.9)
    # the condition failing at the center collapses the band
    empty = threshold_band(ys, vs, 0.5, below=False)
    assert empty["width"] == 0.0
    # a condition holding everywhere extends to the window edges
    full = threshold_band(ys, np.full(101, 0.1), 0.5, below=True)
    assert full["width"] == pytest.approx(10.0)
    # a NaN (pole) sample ends the band at the last sample inside it, with
    # no interpolation toward the NaN
    ended = threshold_band(ys, np.where(np.arange(101) > 60, np.nan, vs), 0.5,
                           below=True)
    assert ended["y_hi"] == float(ys[60])
    assert ended["y_lo"] == pytest.approx(-1.95)


def test_spectrum_spec_defaults(base_params):
    p = base_params(HALF_PI)
    spec = spectrum_spec(p)
    assert spec.axis1.name == "y"
    assert spec.axis1.points == SPECTRUM_POINTS
    assert (spec.axis1.start, spec.axis1.stop) == (-5.0, 5.0)
    narrow = spectrum_spec(base_params(HALF_PI, gamma=0.4), points=11)
    assert narrow.axis1.points == 11
    assert (narrow.axis1.start, narrow.axis1.stop) == (-2.0, 2.0)
    with pytest.raises(InvalidParams) as exc_info:
        spectrum_spec(base_params(HALF_PI, gamma=0.0))
    assert str(exc_info.value) == ("spectrum window +-5 gamma needs a "
                                   "positive, finite gamma; got gamma=0.0")


def test_phasemap_spec_defaults(base_params):
    spec = phasemap_spec(base_params(0.0), points=11, y=0.25)
    assert (spec.axis1.name, spec.axis2.name) == ("theta", "phi")
    assert spec.axis1.points == 11
    assert spec.y == 0.25
    assert (spec.axis1.start, spec.axis1.stop) == (0.0, 2 * math.pi)
