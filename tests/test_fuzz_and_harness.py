"""Fuzzing the text parser and testing the benchmark-report assembler."""

import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.frostt import read_tns, write_tns


class TestTnsFuzz:
    @given(st.text(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_text_never_crashes_unexpectedly(self, text):
        """read_tns on garbage either parses or raises ValueError —
        never any other exception type."""
        try:
            tensor = read_tns(io.StringIO(text))
        except ValueError:
            return
        # if it parsed, the result must be a consistent tensor
        assert tensor.nnz >= 0
        assert all(s >= 1 for s in tensor.shape)

    @given(st.lists(
        st.tuples(st.integers(1, 50), st.integers(1, 50),
                  st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_valid_files(self, rows):
        lines = "".join(f"{i} {j} {v!r}\n" for i, j, v in rows)
        tensor = read_tns(io.StringIO(lines))
        buf = io.StringIO()
        write_tns(tensor, buf)
        buf.seek(0)
        again = read_tns(buf, shape=tensor.shape)
        a = tensor.sort_lexicographic()
        b = again.sort_lexicographic()
        assert np.array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.values, b.values)

    @given(st.lists(
        st.tuples(st.integers(1, 2**40), st.integers(1, 9),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=40, unique_by=lambda r: r[:2]))
    @settings(max_examples=40, deadline=None)
    def test_fast_path_parses_exactly(self, rows):
        """The vectorized reader gives the bits Python's int()/float()
        give, line by line."""
        lines = "".join(f"{i} {j} {v!r}\n" for i, j, v in rows)
        got = read_tns(io.StringIO(lines)).sort_lexicographic()
        want = sorted((i - 1, j - 1, v) for i, j, v in rows)
        assert got.indices.tolist() == [[i, j] for i, j, _ in want]
        assert got.values.tolist() == [v for _, _, v in want]

    def test_huge_exact_coordinates(self):
        big = 2**53 + 1
        t = read_tns(io.StringIO(f"{big} 1 1.0\n"))
        assert int(t.indices[0, 0]) + 1 == big

    def test_scientific_notation_value_ok(self):
        t = read_tns(io.StringIO("1 1 1.5e-3\n"))
        assert t.values[0] == pytest.approx(1.5e-3)

    def test_scientific_notation_coordinate_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            read_tns(io.StringIO("1e2 1 1.0\n"))

    def test_non_ascii_text_skips_the_fast_parser(self):
        # NumPy's loadtxt tokenizer segfaults on this line
        with pytest.raises(ValueError, match="line 1: non-numeric"):
            read_tns(io.StringIO("\U0010406c 1\n"))


class TestRunAllAssembler:
    def test_skip_pytest_assembles_existing(self, tmp_path, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "run_all", Path(__file__).parent.parent / "benchmarks" / "run_all.py")
        run_all = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_all)

        results = tmp_path / "results"
        results.mkdir()
        (results / "E1_datasets.txt").write_text("table one")
        (results / "E2_storage.txt").write_text("table two")
        monkeypatch.setattr(run_all, "RESULTS", results)
        assert run_all.main(["--skip-pytest"]) == 0
        report = (results / "REPORT.txt").read_text()
        assert "table one" in report and "table two" in report

    def test_report_exists_after_bench_run(self):
        """The repository ships regenerated results (bench run in CI)."""
        results = Path(__file__).parent.parent / "benchmarks" / "results"
        if not results.exists():
            pytest.skip("benchmarks not yet run in this checkout")
        assert (results / "E2_storage.txt").exists()


class TestExampleSmoke:
    def test_quickstart_runs(self):
        """The quickstart example is the README's first contact — run it
        for real as a subprocess."""
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent.parent /
                                 "examples" / "quickstart.py")],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "CP-ALS" in proc.stdout
        assert "storage comparison" in proc.stdout
