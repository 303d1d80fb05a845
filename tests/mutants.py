"""Mutants of ``src/`` that the tests must kill.

    python tests/mutants.py           # every entry
    python tests/mutants.py ID ...    # the named entries

Each entry of ``MUTANTS`` names a file under ``src/diffnet/``, a text that
must occur in it exactly once, the text that replaces it, and the pytest
node ids that must catch the change. The runner copies ``src/`` to a
temporary directory and first checks every entry: an old text that does
not occur exactly once is stale, and a refactor that moves it must update
the entry. It then runs all the named tests once on the unchanged copy,
where they must pass, and applies one entry at a time, running its tests
in one child ``pytest`` with ``PYTHONPATH`` at the copy and third-party
plugins not loaded. A failing test
kills the mutant; a timeout kills it too, and is reported as such. A
child that collects no test or stops on an error kills nothing. The run
fails on a stale entry, a surviving mutant or such an error.

Pytest does not collect this file: its name does not start with ``test_``.
A change that a test was written to catch adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120

NET = "tests/test_netbuild.py::"
ING = "tests/test_ingest.py::"
GRAPH = "tests/test_graphops.py::"
SYNTH = "tests/test_synth.py::"
EXP = "tests/test_experiments.py::"
GOLDEN = "tests/test_cli.py::test_chain_writes_the_recorded_bytes"
CYCLIC = "tests/test_cli.py::test_cyclic_chain_writes_the_recorded_bytes"
FEATURES_FILE = "tests/test_features.py::TestFeaturesFile::test_roundtrip_and_column_count"
LABELS_FILE = ING + "TestLabels::test_file_round_trip"


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # layers hold each arc once, in first-edge order
    Mutant("arcs-keep-repeats", "netbuild.py", "dict.fromkeys(p)", "list(p)", (
        NET + "TestBuildNetwork::test_retweet_direction_and_repeats",
        NET + "TestBuildNetwork::test_repeats_give_one_arc_self_interactions_none",
    )),
    Mutant("arcs-reversed", "netbuild.py", "dict.fromkeys(p)", "dict.fromkeys(reversed(p))", (
        NET + "TestBuildNetwork::test_mention_direction",
        NET + "TestBuildNetwork::test_matches_one_interaction_at_a_time",
    )),
    Mutant("merged-arcs-reversed", "netbuild.py",
           "for i, j in layer.arcs:", "for i, j in reversed(layer.arcs):", (
               NET + "TestLabelledLayers::test_merged_labels_follow_layer_order_not_tweet_order",
               NET + "TestLabelledLayers::test_aggregate_equals_union_of_edges",
           )),
    Mutant("merged-skips-a-layer", "netbuild.py",
           "for kind in LAYER_KINDS:\n        layer = net.layers[kind]",
           "for kind in LAYER_KINDS[1:]:\n        layer = net.layers[kind]", (
               NET + "TestLabelledLayers::test_merged_labels_follow_layer_order_not_tweet_order",
               NET + "TestLabelledLayers::test_aggregate_equals_union_of_edges",
           )),
    # the record contract: slotted, mutable, hashed and pickled by its fields
    Mutant("reduce-drops-a-field", "ingest.py",
           "self.reply_to, self.mentions)", "self.reply_to)", (
               ING + "TestRecordContract::test_pickle_round_trip",
           )),
    Mutant("record-unhashable", "ingest.py",
           "@dataclass(slots=True, unsafe_hash=True)", "@dataclass(slots=True)", (
               ING + "TestRecordContract::test_eq_and_hash_follow_the_fields",
           )),
    Mutant("record-frozen", "ingest.py",
           "@dataclass(slots=True, unsafe_hash=True)", "@dataclass(frozen=True, slots=True)", (
               ING + "TestRecordContract::test_slotted",
           )),
    Mutant("record-unslotted", "ingest.py",
           "@dataclass(slots=True, unsafe_hash=True)", "@dataclass(unsafe_hash=True)", (
               ING + "TestRecordContract::test_slotted",
               ING + "TestRecordContract::test_retained_bytes_per_tweet",
           )),
    # the one record builder after both decoders
    Mutant("mention-not-interned", "ingest.py",
           "kept.append(intern(m, m))", "kept.append(m)", (
               ING + "TestRecordContract::test_ids_are_shared_strings",
               ING + "TestCanonicalLinesMatchReference::test_ids_are_shared_across_both_paths",
           )),
    Mutant("reply-target-kept-in-mentions", "ingest.py",
           "seen = {reply_to}", "seen = set()", (
               ING + "TestParseRecords::test_reply_target_removed_from_mentions",
           )),
    Mutant("mentions-left-a-list", "ingest.py",
           "                    tuple(mentions),\n", "                    mentions,\n", (
               ING + "TestParseRecords::test_mentions_dedup",
           )),
    Mutant("mention-entry-unchecked", "ingest.py",
           "                        if not (isinstance(m, str) and m):\n"
           '                            raise ValueError("mentions must be nonempty strings")\n',
           "", (
               ING + "TestValidatorMatchesReference::test_table[9]",
               ING + "TestCanonicalLinesMatchReference::test_table[9]",
           )),
    Mutant("duplicate-test-before-build", "ingest.py",
           "                if mentions:\n",
           "                if tweet_id in seen_ids:\n"
           "                    result.duplicates += 1\n"
           "                    continue\n"
           "                if mentions:\n", (
               ING + "TestValidatorMatchesReference::test_whole_table_with_duplicates",
               ING + "TestValidatorMatchesReference::test_seeded_fuzz",
           )),
    # the one CSV writer
    Mutant("csv-quoting-none", "ingest.py",
           'csv.writer(fh, lineterminator="\\n")',
           'csv.writer(fh, lineterminator="\\n", quoting=csv.QUOTE_NONE)',
           (FEATURES_FILE, LABELS_FILE)),
    Mutant("csv-single-quote", "ingest.py",
           'csv.writer(fh, lineterminator="\\n")',
           'csv.writer(fh, lineterminator="\\n", quotechar="\'")',
           (FEATURES_FILE, LABELS_FILE)),
    Mutant("csv-latin-1", "ingest.py",
           'open(path, "w", encoding="utf-8", newline="")',
           'open(path, "w", encoding="latin-1", newline="")',
           (FEATURES_FILE, LABELS_FILE)),
    Mutant("csv-crlf", "ingest.py",
           'csv.writer(fh, lineterminator="\\n")', 'csv.writer(fh, lineterminator="\\r\\n")',
           (LABELS_FILE, GOLDEN)),
    # graph kernels
    Mutant("tree-pair-sum-halved", "graphops.py",
           "return diameter, 2 * total", "return diameter, total", (
               GRAPH + "TestDistances::test_path_of_three_diameter_and_virality",
           )),
    Mutant("first-source-block-only", "graphops.py",
           "for start in range(0, n, block):", "for start in range(0, min(n, block), block):", (
               GRAPH + "TestDistanceKernelOracle::test_many_source_blocks",
           )),
    Mutant("forest-kcore-ignores-reciprocal-pairs", "graphops.py",
           "return 2 if g._reciprocal_pairs() else 1", "return 1", (
               GRAPH + "TestKCore::test_reciprocal_pair_counts_twice",
           )),
    # the last bits of a clustering coefficient follow the order of its terms
    Mutant("clustering-terms-reversed", "graphops.py",
           "for l2, k in zip(links2[nonzero].tolist(), degree[core][nonzero].tolist()):",
           "for l2, k in reversed(list(zip(links2[nonzero].tolist(),"
           " degree[core][nonzero].tolist()))):",
           (CYCLIC,)),
    # the generator: one tweet builder, one loop over the articles
    Mutant("tweet-numbered-from-zero", "synth.py",
           'f"{article_id}_t{len(records) + 1:05d}"', 'f"{article_id}_t{len(records):05d}"', (
               SYNTH + "test_ids_count_up_within_each_article",
           )),
    Mutant("pure-author-not-counted", "synth.py",
           "                who = new_user()\n",
           '                who = f"{article_id}_u{len(users) + 1:05d}"\n',
           (GOLDEN,)),
    Mutant("quote-and-retweet-swapped", "synth.py",
           "tweet(author, t, quote_of=parent, mentions=mentions)\n"
           "            else:\n"
           "                tweet(author, t, retweet_of=parent, mentions=mentions)",
           "tweet(author, t, retweet_of=parent, mentions=mentions)\n"
           "            else:\n"
           "                tweet(author, t, quote_of=parent, mentions=mentions)",
           (GOLDEN,)),
    Mutant("article-start-shifted", "synth.py",
           "BASE_TIME + 97 * i", "BASE_TIME + 97 * (i + 1)", (GOLDEN,)),
    Mutant("size-overflow-not-clipped", "synth.py",
           "except OverflowError:  # a draw past", "except ZeroDivisionError:  # a draw past", (
               SYNTH + "test_a_size_draw_past_the_float_range_is_size_max",
           )),
    Mutant("gap-overflow-not-named", "synth.py",
           "except OverflowError:  # a gap past", "except ZeroDivisionError:  # a gap past", (
               SYNTH + "test_a_gap_past_the_float_range_names_inter_arrival_mean",
           )),
    Mutant("time-past-int64-not-checked", "synth.py", "if t + 60 >= 2**63:", "if False:", (
        SYNTH + "test_a_time_past_int64_names_inter_arrival_mean",
        "tests/test_cli.py::test_time_past_int64_ends_in_one_invariant_line",
    )),
    Mutant("synth-seed-flag-ignored", "cli.py",
           "config = dataclasses.replace(config, seed=args.seed)", "config = config", (
               "tests/test_cli.py::test_synth_seed_flag_replaces_the_config_seed",
           )),
    # lifetime truncation keeps the tweets at the cutoff
    Mutant("truncate-drops-the-cutoff", "netbuild.py",
           "from bisect import bisect_right", "from bisect import bisect_left as bisect_right", (
               NET + "TestTruncate::test_cutoff_is_inclusive",
               NET + "TestTruncate::test_matches_linear_scan",
           )),
    # a reciprocal pair in a forest is one strongly connected component
    Mutant("forest-scc-ignores-reciprocal-pairs", "graphops.py",
           "if g._reciprocal_pairs():", "if False:", (
               GRAPH + "TestComponents::test_two_node_cycle_is_one_scc",
               GRAPH + "TestForestShortcuts::test_random_forests",
           )),
    # the one featurizer of an article row, and the one column layout
    Mutant("baseline-row-over-four-layers", "experiments.py",
           "featurize_network(cascade, merged)", "featurize_network(cascade, net)", (
               EXP + "TestSingleLayer::test_eleven_features_and_names",
               EXP + "TestSingleLayer::test_matches_merged_layer_reference_on_mini_corpus",
           )),
    Mutant("t-and-u-swapped", "features.py", '+ ("T", "U")', '+ ("U", "T")', (
        "tests/test_features.py::TestVector::test_names_layout",
        EXP + "TestLayerIndices::test_names_derived_from_the_record_keep_their_values",
    )),
    Mutant("ablation-indices-from-another-layer", "experiments.py",
           "enumerate(FEATURE_NAMES) if", "enumerate(FEATURE_NAMES[9:]) if", (
               EXP + "TestLayerIndices::test_offsets",
               EXP + "TestAblation::test_informative_layer_beats_empty_layer",
           )),
)


def _pytest(env: dict, tests) -> tuple[int | None, float]:
    """Exit code of one child pytest on ``tests`` (None on a timeout), and
    its wall time."""
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main(argv: list[str]) -> int:
    ids = [m.id for m in MUTANTS]
    assert len(set(ids)) == len(ids), "mutant ids must be unique"
    unknown = set(argv) - set(ids)
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        sources = {m.file: (copy / "diffnet" / m.file).read_text() for m in chosen}
        for m in chosen:
            count = sources[m.file].count(m.old)
            if count != 1:
                print(f"STALE     {m.id}: its old text occurs {count} times in {m.file}")
                failures += 1
        if failures:
            return 1
        # no bytecode in the copy: a mutated module is compiled afresh
        # no test uses a third-party pytest plugin, and loading the installed
        # ones costs each child about a second
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1",
                   PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        where = subprocess.run(
            [sys.executable, "-c", "import diffnet; print(diffnet.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(copy)):
            print(f"ERROR     the child imports diffnet from {where!r}, not the copy")
            return 1
        named = list(dict.fromkeys(t for m in chosen for t in m.tests))
        code, seconds = _pytest(env, named)
        if code != 0:
            print(f"ERROR     the named tests do not pass unmutated (exit {code})")
            return 1
        print(f"baseline  {len(named)} node ids pass unmutated ({seconds:.1f} s)")
        killed = 0
        for m in chosen:
            path = copy / "diffnet" / m.file
            path.write_text(sources[m.file].replace(m.old, m.new))
            try:
                code, seconds = _pytest(env, m.tests)
            finally:
                path.write_text(sources[m.file])
            if code in (1, None):
                killed += 1
                verdict = "killed" if code == 1 else "TIMEOUT"
            else:
                failures += 1
                verdict = "SURVIVED" if code == 0 else f"ERROR {code}"
            print(f"{verdict:<9} {m.id} ({seconds:.1f} s)")
    print(f"{killed} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
