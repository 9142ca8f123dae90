"""Golden digests of everything the fuzzer derives from a seed.

Every ``fault/net/storage/compress`` band combination pins three
streams, each as one SHA-256 prefix:

* ``scenarios`` — the canonical JSON of seeds 0:200;
* ``requests`` — for seeds 0:20, every run request
  :func:`scenario_requests` builds under five protocols (key, workload,
  preset, the whole materialised config, schedule, kernel parameters,
  strictness);
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
        repr((r.key, r.workload, r.preset, r.config, r.faults,
              r.workload_kwargs, r.strict_verify))
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
    'none/clean/clean/off': ('be63c3f3bc6c3db4', 'bdc0d8972dacb768', 'd768363f8ff83f65'),
    'none/clean/clean/on': ('d46d41c56cfd53e1', 'cb646f550f8d4710', '6c33c9dfe28dd897'),
    'none/clean/hostile/off': ('565d0e2d0656de7f', 'e2e334819aacb319', '6faf9319e17bd320'),
    'none/clean/hostile/on': ('694637d33bef9a6f', 'd9369008a614d7df', '44da1d484ea7459a'),
    'none/lossy/clean/off': ('718c00f1e98dc67d', '3a9eef854ee63561', 'd58cf9944ae9700a'),
    'none/lossy/clean/on': ('abb9dbe986a43b9a', '15ff17f10283a523', '915e0e1620913dde'),
    'none/lossy/hostile/off': ('b02658c4f31c47c7', '6dad33d3ddc59b72', 'e14676bc1e1c462f'),
    'none/lossy/hostile/on': ('3168f375ac138fcf', 'd9eb1b733a26eef3', 'baf8a99aa22b4e42'),
    'overlap/clean/clean/off': ('161c0e4a119730b2', '4bd8a3aa60fc1fac', '2fdea8340e422b1c'),
    'overlap/clean/clean/on': ('bf372da9840895a5', '28adba3f833631cb', '273a98b397bfe299'),
    'overlap/clean/hostile/off': ('46f0d719b265d891', 'e4e425e155104e12', '74e8502735481276'),
    'overlap/clean/hostile/on': ('d81358dc5a153086', '41e7e362db5918fe', '710c8cfe72e6f1a4'),
    'overlap/lossy/clean/off': ('2f80e8cc9b810651', '66fe2f6a0148c5b9', 'fb27029b5d536f72'),
    'overlap/lossy/clean/on': ('4a880b2c20d9c92e', 'bfd2cea4e2e43ec0', 'e8c8306e69dfeb12'),
    'overlap/lossy/hostile/off': ('ddb86259bdc13d47', 'ab8a7c0cd96cbefd', '44198a2ab4bea2a3'),
    'overlap/lossy/hostile/on': ('4e2a3e1760ad600d', '4864d2d259bd2648', '04bc6d03bcec809c'),
    'churn/clean/clean/off': ('984295542b15cbf4', '636e449961de25fd', 'db7ee96fae1e1677'),
    'churn/clean/clean/on': ('4d627621c081d8e8', 'e8b73df91036db8f', '8329e68e4aca71ec'),
    'churn/clean/hostile/off': ('e0d500c77e48fc18', '9d15e0120b290f01', 'da88b671c9e0a11a'),
    'churn/clean/hostile/on': ('02edec66c9619202', '3af841afd7a31f20', '7a5d98abcf433a80'),
    'churn/lossy/clean/off': ('3d2a97e9b5fe06a0', 'bf42de762ed7d14c', '0482bcf1637c16e1'),
    'churn/lossy/clean/on': ('cfdb17b3cbedcfbe', 'e502233028ecb199', '4f1d67c4957b2eef'),
    'churn/lossy/hostile/off': ('d097fceb8a570070', '668ff1477d99c88f', '51ae58464af22873'),
    'churn/lossy/hostile/on': ('d04abb8f724f1b1e', '0b06f70219e6936d', 'd99d8e5bb25d149a'),
    'gray/clean/clean/off': ('4ce086920ca9ab40', '93fca042afc36852', '3b1b9c9b80c9fb28'),
    'gray/clean/clean/on': ('ec4ff47c05280ce5', 'f8d0e345e4ae8b26', '91c45c7c73f68a26'),
    'gray/clean/hostile/off': ('f0a947e0678e40ff', 'e3816cc5b556e1d2', '4019e9eb827b4d4b'),
    'gray/clean/hostile/on': ('f2a7bb0349a7ef9f', 'da05c395f42cde4a', '0b0c35d49328e7ea'),
    'gray/lossy/clean/off': ('a9d310c47013e8ea', '89aaf067fd2db5a8', '8b7e28ecd7f629b4'),
    'gray/lossy/clean/on': ('3475d2c08ee272f5', '46c51c5a8be3d525', '39bb4aafc544331c'),
    'gray/lossy/hostile/off': ('b63644bb03655407', '42a656de20c69353', 'cbe2c534828f5325'),
    'gray/lossy/hostile/on': ('4af43a590168d282', '5d37a890698e08c2', '3dadee6af843c875'),
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
