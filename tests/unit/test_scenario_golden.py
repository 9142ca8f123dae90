"""Golden digests of everything the fuzzer derives from a seed.

Every ``fault/net/storage/compress`` band combination pins three
streams, each as one SHA-256 prefix:

* ``scenarios`` — the canonical JSON of seeds 0:200;
* ``requests`` — for seeds 0:20, every run request
  :func:`scenario_requests` builds under five protocols (key, cell,
  schedule, config overrides, verify stance, kernel parameters);
* ``shrink`` — for the same seeds, every candidate each shrink pass
  offers for the generated scenario: pass name, JSON, size, and whether
  it validates (the verdict only, not the reason's wording).

The corpus entries are pinned the same way: loaded form and
re-serialised JSON of each scenario and its pre-shrink original.

A refactor of the generator, the request builder, the codec or the
shrink passes must leave every digest unchanged.  A deliberate change
re-pins with ``PYTHONPATH=src python -m tests.unit.test_scenario_golden``
and names the combinations that moved.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.fuzz.corpus import load_corpus
from repro.fuzz.differential import scenario_requests
from repro.fuzz.scenario import generate_scenario
from repro.fuzz.shrink import _PASSES, scenario_size

COMBOS = tuple(
    "/".join(parts) for parts in itertools.product(
        ("none", "overlap", "churn", "gray"), ("clean", "lossy"),
        ("clean", "hostile"), ("off", "on")))

PROTOCOLS = ("tdi", "tag", "tel", "pess", "part")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _canonical(scenario) -> str:
    return json.dumps(scenario.to_json_dict(), sort_keys=True)


def _streams(combo: str) -> tuple[str, str, str]:
    fault, net, storage, compress = combo.split("/")
    scenarios = [generate_scenario(seed, fault, net, compress == "on",
                                   storage) for seed in range(200)]
    requests = [
        repr((r.key, r.cell, r.faults,
              sorted(dict(r.config_overrides).items()), r.verify,
              r.workload_kwargs))
        for s in scenarios[:20] for r in scenario_requests(s, PROTOCOLS)]
    shrink = [
        repr((name, _canonical(c), scenario_size(c), c.validate() is None))
        for s in scenarios[:20] for name, generate in _PASSES
        for c in generate(s)]
    return (_digest(_canonical(s) for s in scenarios), _digest(requests),
            _digest(shrink))


def _corpus_digests() -> dict[str, str]:
    out = {}
    for entry in load_corpus():
        lines = [repr(entry.scenario), _canonical(entry.scenario)]
        if entry.original is not None:
            lines += [repr(entry.original), _canonical(entry.original)]
        out[entry.path.name] = _digest(lines)
    return out


#: combination -> (scenarios, requests, shrink) digests
GOLDEN = {
    'none/clean/clean/off': ('be63c3f3bc6c3db4', '54a333852aba32b2', 'd768363f8ff83f65'),
    'none/clean/clean/on': ('d46d41c56cfd53e1', 'b1881652c983ce81', '6c33c9dfe28dd897'),
    'none/clean/hostile/off': ('565d0e2d0656de7f', '7c4b4ed8e0587d71', '6faf9319e17bd320'),
    'none/clean/hostile/on': ('694637d33bef9a6f', '252061646947f0e1', '44da1d484ea7459a'),
    'none/lossy/clean/off': ('718c00f1e98dc67d', '425eb62d5f0444bb', 'd58cf9944ae9700a'),
    'none/lossy/clean/on': ('abb9dbe986a43b9a', 'e566fa17c7ce16e2', '915e0e1620913dde'),
    'none/lossy/hostile/off': ('b02658c4f31c47c7', '14b52f7461cf4559', 'e14676bc1e1c462f'),
    'none/lossy/hostile/on': ('3168f375ac138fcf', '0fa08704a94e5632', 'baf8a99aa22b4e42'),
    'overlap/clean/clean/off': ('161c0e4a119730b2', 'd4c5a056e08e939b', '2fdea8340e422b1c'),
    'overlap/clean/clean/on': ('bf372da9840895a5', '902fc77c0c058971', '273a98b397bfe299'),
    'overlap/clean/hostile/off': ('46f0d719b265d891', '5bfc4376aac05782', '74e8502735481276'),
    'overlap/clean/hostile/on': ('d81358dc5a153086', '5bee4f2f34122290', '710c8cfe72e6f1a4'),
    'overlap/lossy/clean/off': ('2f80e8cc9b810651', 'bbea08a435fd5e86', 'fb27029b5d536f72'),
    'overlap/lossy/clean/on': ('4a880b2c20d9c92e', '8fb92632d7854cba', 'e8c8306e69dfeb12'),
    'overlap/lossy/hostile/off': ('ddb86259bdc13d47', '4cfdb2f58f7ef527', '44198a2ab4bea2a3'),
    'overlap/lossy/hostile/on': ('4e2a3e1760ad600d', '38109c063069d4c2', '04bc6d03bcec809c'),
    'churn/clean/clean/off': ('984295542b15cbf4', '820db1a8d7c23522', 'db7ee96fae1e1677'),
    'churn/clean/clean/on': ('4d627621c081d8e8', '38beb51010dfb4ee', '8329e68e4aca71ec'),
    'churn/clean/hostile/off': ('e0d500c77e48fc18', '9011d3777a146aaa', 'da88b671c9e0a11a'),
    'churn/clean/hostile/on': ('02edec66c9619202', '034a532e7f411bc1', '7a5d98abcf433a80'),
    'churn/lossy/clean/off': ('3d2a97e9b5fe06a0', '4415cf71423dff73', '0482bcf1637c16e1'),
    'churn/lossy/clean/on': ('cfdb17b3cbedcfbe', '9057883619f2a19a', '4f1d67c4957b2eef'),
    'churn/lossy/hostile/off': ('d097fceb8a570070', '603adf4a34e0e39c', '51ae58464af22873'),
    'churn/lossy/hostile/on': ('d04abb8f724f1b1e', 'f9410f149034efbd', 'd99d8e5bb25d149a'),
    'gray/clean/clean/off': ('4ce086920ca9ab40', 'b8892bde188f3831', '3b1b9c9b80c9fb28'),
    'gray/clean/clean/on': ('ec4ff47c05280ce5', '00320cb009f14d7f', '91c45c7c73f68a26'),
    'gray/clean/hostile/off': ('f0a947e0678e40ff', 'a2df075f4564f4c2', '4019e9eb827b4d4b'),
    'gray/clean/hostile/on': ('f2a7bb0349a7ef9f', '76efc3a7ffcd0b74', '0b0c35d49328e7ea'),
    'gray/lossy/clean/off': ('a9d310c47013e8ea', '42b59e0f8b8c384c', '8b7e28ecd7f629b4'),
    'gray/lossy/clean/on': ('3475d2c08ee272f5', '4cd5e175ef856974', '39bb4aafc544331c'),
    'gray/lossy/hostile/off': ('b63644bb03655407', '94b99c524266a475', 'cbe2c534828f5325'),
    'gray/lossy/hostile/on': ('4af43a590168d282', 'bb251a9c1b853043', '3dadee6af843c875'),
}

#: corpus file -> digest of its loaded and re-serialised scenarios
GOLDEN_CORPUS = {
    'queue-a-checkpoint-overtaking.json': 'f4f4e8b9026bc669',
    'seed-000040-gray-net-lossy-shrunk.json': '8325766a112939b6',
    'seed-000071-net-lossy-shrunk.json': '822ec93d8d0ca936',
    'seed-000112-net-lossy-shrunk.json': 'd483a35dbc0a131c',
    'sender-log-high-water-regeneration.json': 'e2b4f72de383bce1',
    'tdi-overlapping-recovery-deadlock.json': 'e41e61a8ff6a3bf2',
    'tdi-three-way-overlapping-recovery.json': '6faced43b3ef9bdc',
}


@pytest.mark.parametrize("combo", COMBOS)
def test_band_streams_unchanged(combo):
    assert _streams(combo) == GOLDEN[combo]


def test_corpus_entries_load_and_serialise_unchanged():
    assert _corpus_digests() == GOLDEN_CORPUS


if __name__ == "__main__":
    print("GOLDEN = {")
    for combo in COMBOS:
        print(f"    {combo!r}: {_streams(combo)!r},")
    print("}\n\nGOLDEN_CORPUS = {")
    for name, digest in _corpus_digests().items():
        print(f"    {name!r}: {digest!r},")
    print("}")
