"""Harness experiments: figure shapes at reduced scale, plus the CLI."""

import json
from dataclasses import replace

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.config import ExperimentOptions
from repro.harness.experiments import (
    ablation_checkpoint_interval,
    ablation_evlog_latency,
    ablation_log_gc,
    fig6,
    fig7,
    fig8,
)

SMALL = ExperimentOptions(
    workloads=("lu", "sp"),
    scales=(4, 8),
    preset="fast",
    checkpoint_interval=0.02,
    seed=1,
)
#: the ablations' defaults at the fast preset
FAST = ExperimentOptions(preset="fast")


@pytest.fixture(scope="module")
def fig6_result():
    return fig6(SMALL)


@pytest.fixture(scope="module")
def fig7_result():
    return fig7(SMALL)


@pytest.fixture(scope="module")
def fig8_result():
    return fig8(ExperimentOptions(workloads=("lu",), scales=(4,), preset="fast",
                                  checkpoint_interval=0.02, seed=1))


class TestFig6Shape:
    def test_protocol_ordering_everywhere(self, fig6_result):
        for wl in ("lu", "sp"):
            for n in (4, 8):
                tag = fig6_result.value(wl, n, "tag")
                tel = fig6_result.value(wl, n, "tel")
                tdi = fig6_result.value(wl, n, "tdi")
                assert tag > tel > tdi, (wl, n)

    def test_tdi_linear_in_scale(self, fig6_result):
        for wl in ("lu", "sp"):
            assert fig6_result.value(wl, 4, "tdi") == pytest.approx(5.0)
            assert fig6_result.value(wl, 8, "tdi") == pytest.approx(9.0)

    def test_gap_widens_with_scale(self, fig6_result):
        # TAG/TDI ratio grows with process count (paper: better TDI
        # scalability)
        for wl in ("lu", "sp"):
            r4 = fig6_result.value(wl, 4, "tag") / fig6_result.value(wl, 4, "tdi")
            r8 = fig6_result.value(wl, 8, "tag") / fig6_result.value(wl, 8, "tdi")
            assert r8 > r4

    def test_lu_worst_for_tag(self, fig6_result):
        # highest message frequency -> biggest graphs
        assert fig6_result.value("lu", 8, "tag") > fig6_result.value("sp", 8, "tag")

    def test_render_and_dict(self, fig6_result):
        out = fig6_result.render()
        assert "LU" in out and "identifiers" in out
        assert len(fig6_result.to_dict()["rows"]) == 2 * 2 * 3


class TestFig7Shape:
    def test_ordering(self, fig7_result):
        for wl in ("lu", "sp"):
            for n in (4, 8):
                assert (fig7_result.value(wl, n, "tag")
                        > fig7_result.value(wl, n, "tel")
                        > fig7_result.value(wl, n, "tdi") > 0), (wl, n)

    def test_tdi_nearly_scale_independent(self, fig7_result):
        # paper: TDI time overhead "hardly relevant to the system scale";
        # allow a generous factor while TAG at least doubles
        for wl in ("lu", "sp"):
            tdi_growth = fig7_result.value(wl, 8, "tdi") / fig7_result.value(wl, 4, "tdi")
            tag_growth = fig7_result.value(wl, 8, "tag") / fig7_result.value(wl, 4, "tag")
            assert tag_growth > tdi_growth
            assert tdi_growth < 2.0

    def test_only_the_graph_protocols_scan_a_graph(self, fig7_result):
        # no antecedence graph -> no increment computation at all
        for row in fig7_result.rows:
            scanned = row["graph_nodes_scanned"]
            assert (scanned == 0) == (row["protocol"] == "tdi"), row


class TestFig8Shape:
    def test_blocking_is_the_unit(self, fig8_result):
        assert fig8_result.value("lu", 4, "blocking", line_key="mode") == pytest.approx(1.0)

    def test_nonblocking_never_worse(self, fig8_result):
        nonblocking = fig8_result.value("lu", 4, "nonblocking", line_key="mode")
        assert nonblocking <= 1.0

    def test_gain_row_consistent(self, fig8_result):
        nonblocking = fig8_result.value("lu", 4, "nonblocking", line_key="mode")
        gain = fig8_result.value("lu", 4, "gain", line_key="mode")
        assert gain == pytest.approx(1.0 - nonblocking)
        # the paper reports a visible but "not very significant" gain
        assert 0.0 <= gain < 0.5

    def test_only_the_blocking_architecture_blocks(self, fig8_result):
        blocked = {row["mode"]: row["blocked_time"]
                   for row in fig8_result.rows if row["mode"] != "gain"}
        assert blocked["nonblocking"] == 0.0 < blocked["blocking"]

    def test_faulted_run_slower_than_failure_free(self, fig8_result):
        for row in fig8_result.rows:
            if row["mode"] == "gain":
                continue
            assert row["faulted_time"] >= row["base_time"]


class TestAblations:
    def test_ckpt_interval_sensitivity(self):
        fig = ablation_checkpoint_interval(FAST, nprocs=4,
                                           intervals=(0.005, 0.05))
        rows = {(r["protocol"], r["interval"]): r["value"] for r in fig.rows}
        # TDI flat; TAG grows with the interval
        assert rows[("tdi", 0.005)] == pytest.approx(rows[("tdi", 0.05)])
        assert rows[("tag", 0.05)] >= rows[("tag", 0.005)]

    def test_log_gc_bounds_memory(self):
        fig = ablation_log_gc(replace(FAST, checkpoint_interval=0.002),
                              nprocs=4)
        rows = {r["protocol"]: r for r in fig.rows}
        assert rows["gc"]["released"] > 0
        assert rows["no-gc"]["released"] == 0
        assert rows["gc"]["value"] <= rows["no-gc"]["value"]

    def test_evlog_latency_widens_window(self):
        fig = ablation_evlog_latency(replace(FAST, checkpoint_interval=1.0),
                                     nprocs=4, latencies=(1e-4, 1e-2))
        values = [r["value"] for r in fig.rows]
        assert values[1] > values[0]


class TestCli:
    def test_cli_fig6_runs(self, capsys):
        rc = cli_main(["fig6", "--preset", "fast", "--scales", "4",
                       "--workloads", "lu", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "tdi" in out

    def test_cli_json_export(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        rc = cli_main(["fig6", "--preset", "fast", "--scales", "4",
                       "--workloads", "lu", "--no-cache", "--json", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data[0]["figure"] == "fig6"
        assert len(data[0]["rows"]) == 3
