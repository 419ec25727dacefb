"""The committed fuzz corpus: parses, covers the template space, and
replays divergence-free."""

import json
import os

import pytest

from repro.fuzz import DifferentialFuzzer
from repro.fuzz.generator import LOOP_CLASSES, generate_params

CORPUS = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "fuzz", "corpus.json"
)

#: loop classes whose generated shapes always chain compiled exits; the
#: others run one loop a thread and have no second trace to chain to, so
#: each class has one tree regime (see make_corpus.py)
ALWAYS_LINKED = ("gather",)


@pytest.fixture(scope="module")
def corpus():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


class TestCorpusShape:
    def test_fifty_entries(self, corpus):
        assert len(corpus["entries"]) == 50

    def test_covers_every_loop_class_in_both_tree_regimes(self, corpus):
        """Both regimes are in the corpus, each class in the one it has."""
        cells = {
            (e["loop_class"], e["tree_linked"]) for e in corpus["entries"]
        }
        assert cells == {(cls, cls in ALWAYS_LINKED) for cls in LOOP_CLASSES}

    def test_everything_is_jit_eligible_under_osr(self, corpus):
        # with OSR entry the hot threshold is 3 back-edges — every
        # generated scenario compiles at least one trace
        assert all(e["jit_eligible"] for e in corpus["entries"])

    def test_entries_consistent_with_generator(self, corpus):
        # the corpus records what the generator will actually produce —
        # if the generator changes, the corpus must be regenerated
        for e in corpus["entries"]:
            params = generate_params(e["seed"])
            assert params.fault_seed == e["fault_seed"]
            assert params.loop_class == e["loop_class"]

    def test_entries_unique(self, corpus):
        seeds = [e["seed"] for e in corpus["entries"]]
        assert len(set(seeds)) == len(seeds)


class TestCorpusReplay:
    def test_corpus_compiles_and_stays_divergence_free(self, corpus):
        pairs = [(e["seed"], e["fault_seed"]) for e in corpus["entries"]]
        report = DifferentialFuzzer(pairs=pairs).run(jobs=2)
        assert report.ok, report.summary(verbose=False)
        # all twelve digest axes executed for every entry (the crash run
        # records no digest): compile + run succeeded everywhere
        assert all(len(r.digests) == 12 for r in report.results)
        # and the recorded JIT/tree eligibility still holds
        by_seed = {r.params.seed: r for r in report.results}
        for e in corpus["entries"]:
            assert (by_seed[e["seed"]].compiles > 0) == e["jit_eligible"]
            assert (by_seed[e["seed"]].tree_links > 0) == e["tree_linked"]
