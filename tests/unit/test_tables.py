"""Unit tests for result tables and figure containers."""

import pytest

from repro.harness.tables import FigureResult, format_table


class TestFormatTable:
    def test_basic_layout(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        out = format_table(rows, ["a", "b"])
        lines = out.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_float_formatting(self):
        out = format_table([{"v": 3.14159}], ["v"])
        assert "3.14" in out

    def test_missing_column_blank(self):
        out = format_table([{"a": 1}], ["a", "b"])
        assert out.splitlines()[2].startswith("1")

    def test_empty_rows(self):
        assert format_table([], ["a"]) == "a"


class TestFigureResult:
    def make(self):
        fig = FigureResult(figure="fig6", title="t", metric="m")
        for wl in ("lu", "sp"):
            for n in (4, 8):
                for proto in ("tdi", "tag"):
                    fig.add(workload=wl, nprocs=n, protocol=proto,
                            value=float(n if proto == "tdi" else n * 10))
        return fig

    def test_value_lookup(self):
        fig = self.make()
        assert fig.value("sp", 8, "tag") == 80.0
        with pytest.raises(KeyError):
            fig.value("sp", 16, "tag")

    def test_workloads_and_lines_orders(self):
        fig = self.make()
        assert fig.workloads() == ["lu", "sp"]
        assert fig.lines() == ["tdi", "tag"]

    def test_render_contains_everything(self):
        out = self.make().render()
        assert "fig6" in out and "LU" in out and "SP" in out
        assert "n=4" in out and "tdi" in out

    def test_to_dict(self):
        d = self.make().to_dict()
        assert d["figure"] == "fig6" and len(d["rows"]) == 8
