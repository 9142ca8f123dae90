"""CLI: the ablations path, with the experiment table stubbed so the
test exercises the wiring rather than the (slow) sweeps themselves."""

import json

from repro.harness import cli
from repro.harness.config import ExperimentOptions
from repro.harness.tables import FigureResult


def fake_ablation(options, *, jobs, cache):
    """Stub ablation used to exercise the CLI plumbing."""
    fig = FigureResult(figure="ablation-fake", title="fake", metric="m")
    fig.add(workload="lu", nprocs=4, protocol="tdi", value=1.0)
    return fig


def stub_ablations(monkeypatch, fn=fake_ablation):
    monkeypatch.setattr(cli, "EXPERIMENTS", {"ablation-fake": (fn, "protocol")})


def test_ablations_path(monkeypatch, capsys, tmp_path):
    stub_ablations(monkeypatch)
    out_path = tmp_path / "abl.json"
    rc = cli.main(["ablations", "--json", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ablation-fake" in out
    data = json.loads(out_path.read_text())
    assert [fig["figure"] for fig in data] == ["ablation-fake"]


def test_ablations_take_the_shared_options(monkeypatch, tmp_path):
    seen = []

    def recording_ablation(options, *, jobs, cache):
        seen.append((options, jobs, cache))
        return fake_ablation(options, jobs=jobs, cache=cache)

    stub_ablations(monkeypatch, recording_ablation)
    rc = cli.main(["ablations", "--preset", "fast", "--seed", "7", "--verify",
                   "--checkpoint-interval", "0.02", "-j", "2",
                   "--cache-dir", str(tmp_path)])
    assert rc == 0
    [(options, jobs, cache)] = seen
    assert isinstance(options, ExperimentOptions)
    assert (options.preset, options.seed, options.verify,
            options.checkpoint_interval) == ("fast", 7, True, 0.02)
    assert jobs == 2 and cache is not None


def test_ablations_with_plot(monkeypatch, capsys):
    stub_ablations(monkeypatch)
    rc = cli.main(["ablations", "--plot"])
    assert rc == 0
    assert "┤" in capsys.readouterr().out


def test_ablations_check_is_vacuous(monkeypatch, capsys):
    stub_ablations(monkeypatch)
    rc = cli.main(["ablations", "--check"])
    assert rc == 0
    assert "shape validation passed" in capsys.readouterr().out
