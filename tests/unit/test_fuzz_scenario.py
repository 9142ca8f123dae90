"""Unit tests for fuzz scenario generation, serialisation and shrinking."""

import pytest

from repro.fuzz.corpus import (
    CorpusEntry,
    default_corpus_dir,
    entry_filename,
    load_corpus,
    save_entry,
)
from repro.fuzz.scenario import (
    FAULT_KINDS,
    Scenario,
    generate_scenario,
)
from repro.fuzz.shrink import scenario_size, shrink_scenario


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

class TestGeneration:
    def test_deterministic_per_seed(self):
        assert generate_scenario(7) == generate_scenario(7)
        assert generate_scenario(7) is not generate_scenario(7)

    def test_distinct_across_seeds(self):
        scenarios = [generate_scenario(seed) for seed in range(50)]
        assert len(set(scenarios)) == len(scenarios)

    def test_generated_scenarios_are_valid(self):
        for seed in range(80):
            scenario = generate_scenario(seed)
            assert scenario.validate() is None, scenario.describe()

    def test_fault_ranks_in_range(self):
        for seed in range(80):
            scenario = generate_scenario(seed)
            for rank, at_time in scenario.faults:
                assert 0 <= rank < scenario.nprocs
                assert at_time >= 0.0

    def test_all_fault_kinds_reachable(self):
        seen = {generate_scenario(seed).fault_kind for seed in range(200)}
        assert seen == set(FAULT_KINDS)

    def test_overlap_bias_is_deterministic_and_distinct(self):
        assert generate_scenario(7, "overlap") == generate_scenario(7, "overlap")
        assert generate_scenario(7, "overlap") != generate_scenario(7)
        assert generate_scenario(7, "overlap").name.endswith("-overlap")

    def test_none_bias_is_the_default_band(self):
        assert generate_scenario(7, "none") == generate_scenario(7)
        assert generate_scenario(7, None) == generate_scenario(7)

    def test_unknown_bias_rejected(self):
        with pytest.raises(ValueError, match="fault_bias"):
            generate_scenario(0, "bogus")

    def test_overlap_bias_concentrates_on_multi_victim_kills(self):
        from repro.fuzz.bands import OVERLAP

        scenarios = [generate_scenario(seed, "overlap")
                     for seed in range(120)]
        kinds = [s.fault_kind for s in scenarios]
        reachable = {kind for kind, weight in zip(FAULT_KINDS, OVERLAP.kinds)
                     if weight}
        assert set(kinds) == reachable
        assert "none" not in kinds  # every biased scenario schedules faults
        multi = [s for s in scenarios if len(s.faults) >= 2]
        assert len(multi) > len(scenarios) * 0.7

    def test_overlap_staggered_victims_are_distinct(self):
        # two kills of one rank serialise; the bias needs overlapping
        # recoveries, so staggered victims must be distinct ranks
        for seed in range(120):
            scenario = generate_scenario(seed, "overlap")
            if scenario.fault_kind == "staggered":
                victims = [r for r, _ in scenario.faults]
                assert len(set(victims)) == len(victims)

    def test_overlap_scenarios_are_valid(self):
        for seed in range(60):
            scenario = generate_scenario(seed, "overlap")
            assert scenario.validate() is None, scenario.describe()

    def test_cli_accepts_fault_bias(self):
        from repro.fuzz.__main__ import _parse_args

        args = _parse_args(["--fault-bias", "overlap"])
        assert args.fault_bias == "overlap"
        assert _parse_args([]).fault_bias == "none"

    def test_campaign_threads_fault_bias(self):
        from repro.fuzz.campaign import run_campaign

        result = run_campaign([3], fault_bias="overlap", shrink=False)
        # seed 3's overlap scenario either agrees everywhere or is
        # structurally skipped; either way it ran the biased band
        assert result.scenarios_run + len(result.skipped) >= 1
        assert not result.failures

    def test_lossy_bias_is_deterministic_and_distinct(self):
        assert (generate_scenario(7, net_bias="lossy")
                == generate_scenario(7, net_bias="lossy"))
        assert generate_scenario(7, net_bias="lossy") != generate_scenario(7)
        assert generate_scenario(7, net_bias="lossy").name.endswith("-net-lossy")

    def test_clean_net_bias_is_the_default_band(self):
        assert generate_scenario(7, net_bias="clean") == generate_scenario(7)
        assert generate_scenario(7, net_bias=None) == generate_scenario(7)
        assert not generate_scenario(7).impaired

    def test_unknown_net_bias_rejected(self):
        with pytest.raises(ValueError):
            generate_scenario(0, net_bias="bogus")

    def test_lossy_scenarios_always_impaired_and_valid(self):
        for seed in range(60):
            scenario = generate_scenario(seed, net_bias="lossy")
            assert scenario.impaired, scenario.describe()
            assert scenario.validate() is None, scenario.describe()
            # the impairment profile must assemble into a real NetworkConfig
            assert scenario.network_config().impaired

    def test_lossy_band_reaches_partition_windows(self):
        kinds = {generate_scenario(seed, net_bias="lossy").net_kind
                 for seed in range(100)}
        assert kinds == {"lossy", "lossy+partition"}

    def test_cli_accepts_net_bias(self):
        from repro.fuzz.__main__ import _parse_args

        args = _parse_args(["--net-bias", "lossy"])
        assert args.net_bias == "lossy"
        assert _parse_args([]).net_bias == "clean"

    def test_storage_bias_is_deterministic_and_distinct(self):
        assert (generate_scenario(7, storage_bias="hostile")
                == generate_scenario(7, storage_bias="hostile"))
        assert (generate_scenario(7, storage_bias="hostile")
                != generate_scenario(7))
        assert generate_scenario(
            7, storage_bias="hostile").name.endswith("-storage-hostile")

    def test_clean_storage_bias_is_the_default_band(self):
        assert generate_scenario(7, storage_bias="clean") == generate_scenario(7)
        assert generate_scenario(7, storage_bias=None) == generate_scenario(7)
        assert not generate_scenario(7).storage_impaired

    def test_unknown_storage_bias_rejected(self):
        with pytest.raises(ValueError):
            generate_scenario(0, storage_bias="bogus")

    def test_hostile_scenarios_always_impaired_and_valid(self):
        for seed in range(60):
            scenario = generate_scenario(seed, storage_bias="hostile")
            assert scenario.storage_impaired, scenario.describe()
            assert scenario.validate() is None, scenario.describe()
            # short intervals so the faulty device actually sees writes
            assert scenario.checkpoint_interval <= 0.005
            # the profile must assemble into a real StorageConfig
            assert scenario.storage_config().impaired
            assert "storage[hostile]" in scenario.describe()

    def test_hostile_json_round_trip(self):
        import json

        for seed in range(30):
            scenario = generate_scenario(seed, storage_bias="hostile")
            data = json.loads(json.dumps(scenario.to_json_dict()))
            assert Scenario.from_json_dict(data) == scenario

    def test_cli_accepts_storage_bias(self):
        from repro.fuzz.__main__ import _parse_args

        args = _parse_args(["--storage-bias", "hostile"])
        assert args.storage_bias == "hostile"
        assert _parse_args([]).storage_bias == "clean"

    def test_compress_band_retreads_identical_scenarios(self):
        """``compress`` is deliberately NOT in the RNG salt: the band
        walks the same scenarios, so a compressed-only finding indicts
        the wire encoding rather than a different draw."""
        for seed in range(40):
            plain = generate_scenario(seed)
            compressed = generate_scenario(seed, compress=True)
            assert compressed.compress and not plain.compress
            assert compressed.name == plain.name + "-compress"
            assert compressed.with_(compress=False, name=plain.name) == plain

    def test_compress_band_composes_with_biases(self):
        scenario = generate_scenario(5, "overlap", "lossy", compress=True)
        assert scenario.compress
        assert scenario.name.endswith("-compress")
        base = generate_scenario(5, "overlap", "lossy")
        assert scenario.faults == base.faults
        assert scenario.drop_prob == base.drop_prob

    def test_compress_survives_json_roundtrip(self):
        scenario = generate_scenario(11, compress=True)
        again = Scenario.from_json_dict(scenario.to_json_dict())
        assert again == scenario and again.compress
        assert "compressed-pb" in scenario.describe()

    def test_cli_accepts_compress(self):
        from repro.fuzz.__main__ import _parse_args

        assert _parse_args(["--compress"]).compress
        assert not _parse_args([]).compress

    def test_blocking_scenarios_stay_eager(self):
        """Blocking + rendezvous deadlocks even without fault tolerance
        (the kernels send before they receive), so the generator must
        keep blocking-mode messages below the eager threshold."""
        from repro.workloads.presets import workload_factory

        for seed in range(200):
            scenario = generate_scenario(seed)
            if scenario.comm_mode != "blocking":
                continue
            kwargs = dict(scenario.workload_kwargs)
            factory = workload_factory(scenario.workload,
                                       scale=scenario.preset, **kwargs)
            app = factory(0, scenario.nprocs, None)
            msg = kwargs.get("msg_bytes",
                             getattr(app.params, "msg_bytes", 0)
                             if hasattr(app, "params") else 0)
            assert scenario.eager_threshold_bytes > msg, scenario.describe()


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        for seed in range(30):
            scenario = generate_scenario(seed)
            assert Scenario.from_json_dict(scenario.to_json_dict()) == scenario

    def test_lossy_json_round_trip_keeps_impairments(self):
        import json

        for seed in range(30):
            scenario = generate_scenario(seed, net_bias="lossy")
            # through actual JSON text, so tuples become lists and back
            data = json.loads(json.dumps(scenario.to_json_dict()))
            assert Scenario.from_json_dict(data) == scenario

    def test_kwargs_normalised_sorted(self):
        a = Scenario(name="x", workload="lu", nprocs=4, seed=1,
                     workload_kwargs=(("b", 2), ("a", 1)))
        b = Scenario(name="x", workload="lu", nprocs=4, seed=1,
                     workload_kwargs=(("a", 1), ("b", 2)))
        assert a == b and hash(a) == hash(b)

    def test_validate_rejects_bad_fault_rank(self):
        scenario = generate_scenario(0).with_(faults=((99, 0.001),))
        assert scenario.validate() is not None

    def test_validate_rejects_unknown_workload(self):
        scenario = generate_scenario(0).with_(workload="nonesuch")
        assert scenario.validate() is not None

    def test_corpus_entry_round_trip(self, tmp_path):
        entry = CorpusEntry(scenario=generate_scenario(5),
                            reason="unit test", status="open",
                            found_by={"seed": 5},
                            original=generate_scenario(5),
                            findings=["[tdi] answer-mismatch: detail"])
        path = save_entry(entry, tmp_path)
        assert path.name == entry_filename(entry)
        (loaded,) = load_corpus(tmp_path)
        assert loaded.scenario == entry.scenario
        assert loaded.original == entry.original
        assert loaded.status == "open"
        assert loaded.findings == entry.findings
        assert loaded.path == path


class TestDefaultCorpusDir:
    def test_locates_the_repo_corpus(self):
        d = default_corpus_dir()
        assert (d.name, d.parent.name) == ("corpus", "tests")
        assert list(d.glob("*.json"))

    def test_installed_package_raises_instead_of_empty(self, tmp_path,
                                                       monkeypatch):
        # no repo marker above the module or the cwd (site-packages
        # layout): loading must fail loudly, not return an empty corpus
        import repro.fuzz.corpus as corpus

        fake = tmp_path / "site-packages" / "repro" / "fuzz" / "corpus.py"
        fake.parent.mkdir(parents=True)
        fake.touch()
        monkeypatch.setattr(corpus, "__file__", str(fake))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            corpus.default_corpus_dir()


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

class TestShrinking:
    def test_accepted_candidates_strictly_smaller(self):
        scenario = generate_scenario(35)
        sizes = []

        def always_fails(candidate):
            sizes.append(scenario_size(candidate))
            return True

        result = shrink_scenario(scenario, always_fails, max_attempts=80)
        assert scenario_size(result.scenario) < scenario_size(scenario)
        assert result.accepted > 0
        assert result.scenario.name == f"{scenario.name}-shrunk"

    def test_failure_not_reproduced_keeps_original(self):
        scenario = generate_scenario(35)
        result = shrink_scenario(scenario, lambda candidate: False,
                                 max_attempts=40)
        assert result.scenario.with_(name=scenario.name) == scenario
        assert result.accepted == 0

    def test_shrunk_scenarios_stay_valid(self):
        scenario = generate_scenario(35)
        result = shrink_scenario(scenario, lambda candidate: True,
                                 max_attempts=80)
        assert result.scenario.validate() is None

    def test_respects_attempt_budget(self):
        calls = []
        shrink_scenario(generate_scenario(35),
                        lambda candidate: calls.append(1) or True,
                        max_attempts=7)
        assert len(calls) <= 7

    def test_checkpoint_coarsening_capped(self):
        scenario = generate_scenario(35).with_(checkpoint_interval=0.9)
        result = shrink_scenario(scenario, lambda candidate: True,
                                 max_attempts=80)
        assert result.scenario.checkpoint_interval <= 1.0

    def test_fault_ranks_clamped_when_procs_drop(self):
        scenario = generate_scenario(35)
        assert scenario.faults
        result = shrink_scenario(scenario, lambda candidate: True,
                                 max_attempts=80)
        for rank, _ in result.scenario.faults:
            assert 0 <= rank < result.scenario.nprocs

    def test_size_measure_orders_fault_count_first(self):
        small = generate_scenario(35).with_(faults=((0, 0.001),))
        big = generate_scenario(35).with_(faults=((0, 0.001), (1, 0.002)))
        assert scenario_size(small) < scenario_size(big)

    def test_calmer_network_strips_impairments_when_possible(self):
        scenario = generate_scenario(35, net_bias="lossy")
        assert scenario.impaired
        result = shrink_scenario(scenario, lambda candidate: True,
                                 max_attempts=120)
        # a repro that persists on a clean wire sheds its impairments
        assert not result.scenario.impaired

    def test_calmer_network_kept_when_failure_needs_the_loss(self):
        scenario = generate_scenario(35, net_bias="lossy")
        assert scenario.impaired

        def fails_only_when_impaired(candidate):
            return candidate.impaired

        result = shrink_scenario(scenario, fails_only_when_impaired,
                                 max_attempts=120)
        assert result.scenario.impaired

    def test_fewer_procs_candidates_stay_valid_with_partitions(self):
        from repro.fuzz.shrink import _fewer_procs
        scenario = generate_scenario(8, net_bias="lossy")
        assert scenario.nprocs == 7 and scenario.partitions
        for candidate in _fewer_procs(scenario):
            assert candidate.validate() is None, candidate.describe()
        # a window whose side loses every rank is dropped, not emptied
        cut = scenario.with_(partitions=((0.001, 0.004, (0, 6), (1, 2)),))
        by_n = {c.nprocs: c.partitions for c in _fewer_procs(cut)}
        assert by_n[3] == ((0.001, 0.004, (0,), (1, 2)),)
        assert by_n[2] == ((0.001, 0.004, (0,), (1,)),)
        assert all(c.validate() is None for c in _fewer_procs(cut))
        one_sided = scenario.with_(partitions=((0.001, 0.004, (0,), (5, 6)),))
        assert next(_fewer_procs(one_sided)).partitions == ()

    def test_calmer_storage_strips_impairments_when_possible(self):
        scenario = generate_scenario(35, storage_bias="hostile")
        assert scenario.storage_impaired
        result = shrink_scenario(scenario, lambda candidate: True,
                                 max_attempts=150)
        # a repro that persists on a perfect device sheds the hostility
        assert not result.scenario.storage_impaired

    def test_calmer_storage_kept_when_failure_needs_the_device(self):
        scenario = generate_scenario(35, storage_bias="hostile")
        assert scenario.storage_impaired

        def fails_only_when_hostile(candidate):
            return candidate.storage_impaired

        result = shrink_scenario(scenario, fails_only_when_hostile,
                                 max_attempts=150)
        assert result.scenario.storage_impaired


# ----------------------------------------------------------------------
# Stringified-record round-trips (corpus entries store findings as text)
# ----------------------------------------------------------------------

class TestParseRoundTrips:
    def test_finding_round_trips(self):
        from repro.fuzz.differential import Finding

        for finding in (
            Finding("tdi", "oracle:causal-gate", "delivered too early"),
            Finding("tag", "crash:SimulationError", "deadlock: a: b"),
            Finding("tel", "answer-mismatch", "rank 0 differs\nmultiline"),
        ):
            assert Finding.parse(str(finding)) == finding

    def test_finding_parse_rejects_garbage(self):
        from repro.fuzz.differential import Finding

        assert Finding.parse("not a finding") is None

    def test_violation_round_trips(self):
        from repro.verify.violations import InvariantViolation, parse_violation

        violation = InvariantViolation(
            time=0.001234, invariant="gc-safety", rank=3,
            detail="released beyond: the mark")
        parsed = parse_violation(str(violation))
        assert parsed is not None
        assert (parsed.invariant, parsed.rank, parsed.detail) == \
            ("gc-safety", 3, "released beyond: the mark")
        assert parsed.time == pytest.approx(violation.time)

    def test_violation_parse_rejects_garbage(self):
        from repro.verify.violations import parse_violation

        assert parse_violation("oops") is None


@pytest.mark.parametrize("seed", (0, 17, 35))
def test_describe_mentions_key_dimensions(seed):
    scenario = generate_scenario(seed)
    text = scenario.describe()
    assert scenario.workload in text
    assert f"nprocs={scenario.nprocs}" in text
    assert scenario.fault_kind in text


# ----------------------------------------------------------------------
# Churn band
# ----------------------------------------------------------------------

class TestChurnBias:
    def test_churn_bias_is_deterministic_and_distinct(self):
        assert generate_scenario(7, "churn") == generate_scenario(7, "churn")
        assert generate_scenario(7, "churn") != generate_scenario(7)
        assert generate_scenario(7, "churn").name.endswith("-churn")

    def test_unbiased_band_is_untouched_by_the_churn_salt(self):
        # adding "churn" to the bias vocabulary must not reshuffle any
        # existing band: the unbiased draws stay byte-identical
        for seed in range(40):
            assert generate_scenario(seed).joins == ()
            assert generate_scenario(seed).leaves == ()
            assert generate_scenario(seed, "overlap").joins == ()

    def test_every_churn_scenario_schedules_churn(self):
        for seed in range(80):
            scenario = generate_scenario(seed, "churn")
            assert scenario.joins or scenario.leaves, scenario.describe()
            assert scenario.validate() is None, scenario.describe()

    def test_every_leave_pairs_with_a_later_rejoin(self):
        for seed in range(120):
            scenario = generate_scenario(seed, "churn")
            for rank, at_time in scenario.leaves:
                rejoins = [t for r, t in scenario.joins
                           if r == rank and t > at_time]
                assert rejoins, scenario.describe()

    def test_churn_never_empties_the_cluster(self):
        for seed in range(120):
            scenario = generate_scenario(seed, "churn")
            churned = {r for r, _ in (*scenario.joins, *scenario.leaves)}
            assert len(churned) < scenario.nprocs

    def test_churn_composes_with_lossy_band(self):
        scenario = generate_scenario(7, "churn", net_bias="lossy")
        assert (scenario.joins or scenario.leaves) and scenario.impaired
        assert scenario.name.endswith("-churn-net-lossy")

    def test_churn_json_round_trip(self):
        scenario = generate_scenario(11, "churn")
        assert Scenario.from_json_dict(scenario.to_json_dict()) == scenario

    def test_pre_churn_corpus_entries_still_load(self):
        data = generate_scenario(3).to_json_dict()
        del data["joins"], data["leaves"]
        assert Scenario.from_json_dict(data) == generate_scenario(3)

    def test_validate_rejects_conflicting_membership(self):
        bad = generate_scenario(3).with_(joins=((1, 0.5),), leaves=((1, 0.5),))
        assert "conflicting" in bad.validate()

    def test_validate_rejects_double_join(self):
        bad = generate_scenario(3).with_(joins=((1, 0.2), (1, 0.4)))
        assert "already joined" in bad.validate()

    def test_validate_rejects_out_of_range_churn_rank(self):
        scenario = generate_scenario(3)
        bad = scenario.with_(joins=((scenario.nprocs, 0.2),))
        assert "out of range" in bad.validate()

    def test_event_specs_cover_crashes_and_churn(self):
        from repro.faults.injector import FaultSpec, JoinSpec, LeaveSpec
        scenario = generate_scenario(3).with_(
            faults=((0, 0.001),), joins=((1, 0.004),), leaves=((1, 0.002),))
        specs = scenario.event_specs()
        assert [type(s) for s in specs] == [FaultSpec, JoinSpec, LeaveSpec]

    def test_churn_rides_only_the_faulted_legs(self):
        from repro.fuzz.differential import scenario_requests
        scenario = generate_scenario(3).with_(
            faults=(), leaves=((1, 0.002),), joins=((1, 0.005),))
        requests = scenario_requests(scenario)
        by_key = {r.key[2]: r for r in requests}
        assert by_key["ff"].faults == ()
        assert len(by_key["faulted"].faults) == 2

    def test_cli_accepts_churn_bias(self):
        from repro.fuzz.__main__ import _parse_args
        assert _parse_args(["--fault-bias", "churn"]).fault_bias == "churn"


class TestChurnShrinking:
    def test_drop_churn_shrinks_to_nothing_when_findings_persist(self):
        scenario = generate_scenario(3).with_(
            joins=((1, 0.004), (2, 0.001)), leaves=((1, 0.002),))
        result = shrink_scenario(scenario, lambda s: True)
        assert result.scenario.joins == ()
        assert result.scenario.leaves == ()

    def test_drop_churn_candidates_never_orphan_a_leave(self):
        from repro.fuzz.shrink import _PASSES
        scenario = generate_scenario(3).with_(
            joins=((1, 0.004), (2, 0.001)), leaves=((1, 0.002),))
        for candidate in dict(_PASSES)["drop-churn"](scenario):
            assert candidate.validate() is None
            for rank, at_time in candidate.leaves:
                assert any(r == rank and t > at_time
                           for r, t in candidate.joins)

    def test_fewer_procs_drops_out_of_range_churn(self):
        from repro.fuzz.shrink import _fewer_procs
        scenario = generate_scenario(3).with_(
            nprocs=4, faults=(),
            joins=((3, 0.004),), leaves=((3, 0.002),))
        for candidate in _fewer_procs(scenario):
            assert candidate.validate() is None

    def test_churn_counts_into_scenario_size(self):
        scenario = generate_scenario(3)
        with_churn = scenario.with_(joins=((1, 0.004),))
        assert scenario_size(with_churn) > scenario_size(scenario)


# ----------------------------------------------------------------------
# Gray band (armed failure detector + non-fail-stop faults)
# ----------------------------------------------------------------------

class TestGrayBias:
    def test_gray_bias_is_deterministic_and_distinct(self):
        assert generate_scenario(7, "gray") == generate_scenario(7, "gray")
        assert generate_scenario(7, "gray") != generate_scenario(7)
        assert generate_scenario(7, "gray").name.endswith("-gray")

    def test_unbiased_band_is_untouched_by_the_gray_salt(self):
        # adding "gray" to the bias vocabulary must not reshuffle any
        # existing band: unbiased draws stay gray-free and detector-off
        for seed in range(40):
            assert generate_scenario(seed).grays == ()
            assert not generate_scenario(seed).detect

    def test_every_gray_scenario_arms_the_detector(self):
        for seed in range(60):
            scenario = generate_scenario(seed, "gray")
            assert scenario.detect
            assert scenario.grays

    def test_gray_scenarios_are_structurally_valid(self):
        for seed in range(60):
            scenario = generate_scenario(seed, "gray")
            assert scenario.validate() is None, scenario.describe()
            # materialisation through the injector's own spec class
            assert len(scenario.gray_specs()) == len(scenario.grays)

    def test_gray_band_keeps_a_live_observer(self):
        # condemnation-initiated recovery needs someone alive to
        # condemn: victims never cover the whole cluster
        for seed in range(120):
            scenario = generate_scenario(seed, "gray")
            assert scenario.nprocs >= 3
            victims = {r for r, _ in scenario.faults}
            assert len(victims) < scenario.nprocs

    def test_gray_durations_straddle_the_condemnation_threshold(self):
        short = long = 0
        for seed in range(120):
            for g in generate_scenario(seed, "gray").grays:
                if g[3] < 1e-3:
                    short += 1
                else:
                    long += 1
        assert short > 0 and long > 0

    def test_gray_band_never_draws_drop_without_transport(self):
        for seed in range(120):
            scenario = generate_scenario(seed, "gray")
            if not scenario.impaired:
                assert not any(g[7] for g in scenario.grays)

    def test_round_trip_preserves_grays(self):
        scenario = generate_scenario(11, "gray")
        assert Scenario.from_json_dict(scenario.to_json_dict()) == scenario

    def test_legacy_json_without_grays_loads(self):
        data = generate_scenario(3).to_json_dict()
        del data["grays"], data["detect"]
        loaded = Scenario.from_json_dict(data)
        assert loaded.grays == () and not loaded.detect

    def test_describe_mentions_gray_and_detector(self):
        scenario = generate_scenario(11, "gray")
        text = scenario.describe()
        assert "gray=" in text and "detector" in text

    def test_validate_rejects_gray_kill_conflict(self):
        scenario = generate_scenario(3).with_(
            faults=((1, 0.002),),
            grays=(((1, 0.002, "freeze", 0.001, 4.0, (), 2e-3, False)),),
            detect=True)
        assert "conflicting fault" in scenario.validate()

    def test_validate_rejects_drop_without_impairment(self):
        scenario = generate_scenario(3).with_(
            drop_prob=0.0, dup_prob=0.0, corrupt_prob=0.0, partitions=(),
            grays=((1, 0.002, "mute", 0.002, 4.0, (), 2e-3, True),),
            detect=True)
        assert "transport" in scenario.validate()

    def test_gray_rides_only_the_faulted_legs(self):
        from repro.fuzz.differential import scenario_requests
        scenario = generate_scenario(3).with_(
            faults=(),
            grays=((1, 0.002, "freeze", 0.002, 4.0, (), 2e-3, False),),
            detect=True)
        requests = scenario_requests(scenario)
        by_key = {r.key[2]: r for r in requests}
        assert by_key["ff"].faults == ()
        assert len(by_key["faulted"].faults) == 1
        assert by_key["faulted"].config.detector.enabled
        assert not by_key["ff"].config.detector.enabled

    def test_cli_accepts_gray_bias(self):
        from repro.fuzz.__main__ import _parse_args
        assert _parse_args(["--fault-bias", "gray"]).fault_bias == "gray"


class TestGrayShrinking:
    def _gray_scenario(self):
        return generate_scenario(3).with_(
            grays=((1, 0.002, "freeze", 0.002, 4.0, (), 2e-3, False),
                   (0, 0.004, "mute", 0.003, 4.0, (), 2e-3, False)),
            detect=True)

    def test_calmer_gray_strips_grays_then_detector(self):
        result = shrink_scenario(self._gray_scenario(), lambda s: True)
        assert result.scenario.grays == ()
        assert not result.scenario.detect
        assert "calmer-gray" in result.passes_used

    def test_calmer_gray_runs_before_everything_else(self):
        from repro.fuzz.shrink import _PASSES
        assert _PASSES[0][0] == "calmer-gray"

    def test_grays_count_into_scenario_size(self):
        scenario = generate_scenario(3)
        with_gray = self._gray_scenario()
        assert scenario_size(with_gray) > scenario_size(scenario)
        assert (scenario_size(with_gray.with_(grays=with_gray.grays[:1]))
                < scenario_size(with_gray))

    def test_fewer_procs_candidates_stay_valid_with_grays(self):
        from repro.fuzz.shrink import _fewer_procs
        scenario = generate_scenario(3).with_(
            nprocs=5, faults=((4, 0.002),),
            grays=((4, 0.003, "mute", 0.002, 4.0, (1, 4), 2e-3, False),),
            detect=True)
        for candidate in _fewer_procs(scenario):
            assert candidate.validate() is None, candidate.describe()

    def test_calmer_network_clears_gray_drop_flags(self):
        from repro.fuzz.shrink import _PASSES
        scenario = generate_scenario(3).with_(
            drop_prob=0.01,
            grays=((1, 0.002, "mute", 0.002, 4.0, (), 2e-3, True),),
            detect=True)
        calm = next(iter(dict(_PASSES)["calmer-network"](scenario)))
        assert not calm.impaired
        assert calm.validate() is None


# ----------------------------------------------------------------------
# Band declarations
# ----------------------------------------------------------------------

class TestBands:
    #: the fields every scenario draws, whatever bands are picked
    BASE = {"name", "workload", "nprocs", "seed", "comm_mode",
            "checkpoint_interval", "eager_threshold_bytes", "faults",
            "workload_kwargs", "preset", "fault_kind"}

    def test_every_adversary_field_has_exactly_one_band(self):
        from dataclasses import fields

        from repro.fuzz.bands import BANDS
        owned = [name for band in BANDS for name in band.fields]
        assert len(owned) == len(set(owned))
        assert not set(owned) & self.BASE
        assert set(owned) | self.BASE == {f.name for f in fields(Scenario)}

    def test_consumers_name_no_band_field(self):
        """The request builder, the shrinker, the campaign and the CLI
        read the band records instead of naming a band's fields."""
        import tokenize

        import repro.fuzz.__main__ as cli
        from repro.fuzz import campaign, differential, shrink
        from repro.fuzz.bands import BANDS
        owned = {name for band in BANDS for name in band.fields}
        for module in (cli, campaign, differential, shrink):
            with open(module.__file__, encoding="utf-8") as source:
                names = {tok.string for tok
                         in tokenize.generate_tokens(source.readline)
                         if tok.type == tokenize.NAME}
            assert not names & owned, module.__name__

    def test_flag_choices_come_from_the_bands(self):
        from repro.fuzz.__main__ import _parse_args
        from repro.fuzz.bands import flag_choices
        assert flag_choices("--fault-bias") == ("none", "overlap", "churn",
                                                "gray")
        assert flag_choices("--net-bias") == ("clean", "lossy")
        assert flag_choices("--storage-bias") == ("clean", "hostile")
        with pytest.raises(SystemExit):
            _parse_args(["--net-bias", "hostile"])
