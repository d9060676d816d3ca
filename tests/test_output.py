import csv
import json
import math

import numpy as np
import pytest

from iplsim.analysis import AnalysisThresholds, eigenstate_map
from iplsim.experiments import RunConfig, run_config
from iplsim.hamiltonian import CellParams, assemble
from iplsim.profiles import ProfileSpec, realize_profile
from iplsim.output import (
    STATE_HEADER,
    read_pgm,
    sha256_file,
    summary_document,
    write_json,
    write_pgm,
    write_spectrum_csv,
    write_state_csv,
    write_sweep_csv,
)

from memory import traced_peak
from vectors import gather


@pytest.fixture(scope="module")
def report():
    return run_config(RunConfig(CellParams(1.0, 2.0, 0.2),
                                ProfileSpec.linear(math.pi / 4, 1.0, 20)))[2]


@pytest.fixture(scope="module")
def vectors():
    grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 20))
    return gather(assemble(grid, CellParams(1.0, 2.0, 0.2)))[1]


class TestStateCsv:
    def test_header_and_row_count(self, report, tmp_path):
        path = write_state_csv(report, tmp_path / "states.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == STATE_HEADER
        assert len(lines) == report.size + 1

    def test_floats_round_trip(self, report, tmp_path):
        path = write_state_csv(report, tmp_path / "states.csv")
        rows = path.read_text().splitlines()[1:]
        for k, row in enumerate(rows):
            fields = row.split(",")
            assert int(fields[0]) == k
            assert float(fields[1]) == report.values[k]
            assert float(fields[3]) == report.measures.ipr[k]

    def test_last_row_has_empty_spacing(self, report, tmp_path):
        path = write_state_csv(report, tmp_path / "states.csv")
        last = path.read_text().splitlines()[-1].split(",")
        assert last[2] == ""

    def test_rewrite_is_byte_identical(self, report, tmp_path):
        a = write_state_csv(report, tmp_path / "a.csv").read_bytes()
        b = write_state_csv(report, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_lf_endings_only(self, report, tmp_path):
        raw = write_state_csv(report, tmp_path / "states.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_subdomain_and_multiplet_columns(self, report, tmp_path):
        path = write_state_csv(report, tmp_path / "states.csv")
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        assert {r[10] for r in rows} <= {"A", "B", "C"}
        assert [int(r[11]) for r in rows] == sorted(int(r[11]) for r in rows)

    def test_band_and_multiplet_ids_number_the_partitions(self, tmp_path):
        # one phase revolution at delta_rel 0.35: each band holds pairs among its singlets
        spec = ProfileSpec("revolutions", 30, phi_start=math.pi / 8, phi_end=3 * math.pi / 8,
                           revolutions=1)
        report = run_config(RunConfig(CellParams(1.0, 2.0, 0.3), spec,
                                      AnalysisThresholds(delta_rel=0.35)))[2]
        bands, multiplets = report.bands.bands, report.multiplets
        assert len(bands) == 2
        for i in range(len(bands)):
            sizes = [g.size for g in multiplets if g.band == i]
            assert len(sizes) > 1 and max(sizes) > 1
        path = write_state_csv(report, tmp_path / "states.csv")
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        band_ids = [int(r[9]) for r in rows]
        multiplet_ids = [int(r[11]) for r in rows]
        assert len(rows) == sum(len(b) for b in bands) == sum(g.size for g in multiplets)
        for i, band in enumerate(bands):
            assert band_ids[band.start:band.stop] == [i] * len(band)
        for gid, group in enumerate(multiplets):
            assert multiplet_ids[group.start:group.start + group.size] == [gid] * group.size
            assert band_ids[group.start] == group.band


def test_spectrum_csv(tmp_path):
    path = write_spectrum_csv(np.array([1.5, 2.25]), tmp_path / "spectrum.csv")
    assert path.read_text() == "index,eigenvalue\n0,1.5\n1,2.25\n"


class TestSweepCsv:
    def test_rows_and_error_column(self, tmp_path):
        errors = ["ValueError: max|d| + 2 max|e|, both finite", 'say "x"', "one\ntwo", "cr\rx"]
        rows = [(0.5, 0.25, ""), (1.0, None, "boom"), *((2.0, None, e) for e in errors)]
        path = write_sweep_csv(rows, tmp_path / "sweep.csv")
        text = path.read_text().splitlines()
        assert text[0] == "lf,fraction,error"
        assert text[1] == "0.5,0.25,"
        assert text[2] == "1.0,,boom"
        assert text[3] == '2.0,,"ValueError: max|d| + 2 max|e|, both finite"'
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[1:] == [["0.5", "0.25", ""], ["1.0", "", "boom"],
                             *(["2.0", "", e] for e in errors)]


class TestPgm:
    def test_header_and_round_trip(self, vectors, tmp_path):
        pixels = eigenstate_map(vectors.T[0:20])
        path = write_pgm(pixels, tmp_path / "map.pgm")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n40 20\n255\n")
        assert len(raw) == len(b"P5\n40 20\n255\n") + 20 * 40
        read = read_pgm(path)
        assert read.shape == (20, 40)
        rows = np.abs(vectors[:, 19::-1].T)
        rows = rows / rows.max(axis=1, keepdims=True)
        assert np.array_equal(read, np.rint(255 * rows).astype(np.uint8))
        assert np.array_equal(read, pixels)

    def test_every_row_reaches_white(self, vectors, tmp_path):
        # per-row renormalization puts one 255 pixel in every row
        rows = eigenstate_map(vectors.T[0:12])
        pixels = read_pgm(write_pgm(rows, tmp_path / "map.pgm"))
        assert np.all(pixels.max(axis=1) == 255)

    def test_pixels_are_written_without_a_copy(self, tmp_path):
        pixels = np.random.default_rng(5).integers(0, 256, (1000, 500), dtype=np.uint8)
        path, peak = traced_peak(write_pgm, pixels, tmp_path / "map.pgm")
        assert np.array_equal(read_pgm(path), pixels)
        assert peak <= 0.05 * pixels.nbytes

    @pytest.mark.parametrize("bad", [
        np.full((4, 3), 0.5),
        np.zeros((4, 3), dtype=np.uint16),
        np.zeros(12, dtype=np.uint8),
        np.zeros((2, 2, 3), dtype=np.uint8),
    ], ids=["float", "uint16", "1-D", "3-D"])
    def test_rejects_anything_but_2d_uint8(self, bad, tmp_path):
        with pytest.raises(ValueError, match="2-D uint8"):
            write_pgm(bad, tmp_path / "map.pgm")
        assert not (tmp_path / "map.pgm").exists()

    def test_read_rejects_other_formats(self, tmp_path):
        bad = tmp_path / "x.pgm"
        bad.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            read_pgm(bad)

    def test_read_rejects_a_maxval_other_than_255(self, tmp_path):
        bad = tmp_path / "x.pgm"
        bad.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="unsupported maxval 65535"):
            read_pgm(bad)


class TestJson:
    def test_canonical_form(self, tmp_path):
        path = write_json({"b": 1, "a": [1.5, None]}, tmp_path / "doc.json")
        assert path.read_text() == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'

    def test_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json({"x": float("nan")}, tmp_path / "doc.json")

    def test_summary_document_shape(self, report):
        doc = summary_document(report, extras={"preset": "unit-test"})
        assert doc["states"] == report.size
        assert doc["preset"] == "unit-test"
        assert sum(b["size"] for b in doc["bands"]) == report.size
        assert set(doc["subdomain_counts"]) == {"A", "B", "C"}
        assert sum(doc["subdomain_counts"].values()) == report.size
        hist = doc["multiplet_size_histogram"]
        assert sum(int(k) * v for k, v in hist.items()) == report.size
        # one gap after each band but the last: the level spacing across it
        assert [g["after_state"] for g in doc["gaps"]] == [b["stop"] - 1 for b in doc["bands"][:-1]]
        for g in doc["gaps"]:
            i = g["after_state"]
            assert g["width"] == report.values[i + 1] - report.values[i]
        # document must be serializable in canonical mode
        json.dumps(doc, sort_keys=True, allow_nan=False)

    def test_thresholds_included(self, report):
        doc = summary_document(report)
        assert doc["thresholds"]["tau"] == report.thresholds.tau


def test_sha256_matches_hashlib(tmp_path):
    import hashlib
    p = tmp_path / "blob.bin"
    p.write_bytes(b"isospectral")
    assert sha256_file(p) == hashlib.sha256(b"isospectral").hexdigest()
