"""Tour of the synthetic corpus and the four-layer network view.

Generates a small labeled corpus, rebuilds the per-article cascades the
way a consumer of serialized files would, then dissects the largest
article: how many tweets of each interaction type it holds, and what the
retweet/reply/quote/mention layers look like side by side against the
single merged graph that a layer-blind analysis would use.

Run with:  python demos/01_corpus_tour.py
"""

from collections import Counter

from diffnet.features import extract_layer_features
from diffnet.ingest import group_cascades
from diffnet.netbuild import aggregate_layer, aggregate_user_count, build_network
from diffnet.synth import default_config, generate_corpus

config = default_config(seed=11)
records, labels = generate_corpus(config)
label_map = {lab.article_id: lab for lab in labels}
cascades, _ = group_cascades(records, label_map)

print(f"corpus: {len(records)} tweets across {len(cascades)} articles")
by_class = Counter(c.label.class_label for c in cascades)
print(f"labels: {by_class['D']} disinformation, {by_class['M']} mainstream")

sizes = sorted(len(c.tweets) for c in cascades)
print(f"article sizes: min {sizes[0]}, median {sizes[len(sizes) // 2]}, "
      f"max {sizes[-1]}")

big = max(cascades, key=lambda c: len(c.tweets))
print(f"\nlargest article: {big.article_id} "
      f"({big.label.class_label}, source {big.label.source})")

kinds = Counter()
for t in big.tweets:
    if t.retweet_of:
        kinds["retweet"] += 1
    elif t.quote_of:
        kinds["quote"] += 1
    elif t.reply_to:
        kinds["reply"] += 1
    else:
        kinds["original"] += 1
    kinds["with mentions"] += bool(t.mentions)
for kind in ("original", "retweet", "reply", "quote", "with mentions"):
    print(f"  {kind:>13}: {kinds[kind]}")

net = build_network(big)
print(f"\nper-layer view of {big.article_id} "
      f"(T={len(big.tweets)}, U={aggregate_user_count(net)}):")
header = f"  {'layer':>9} {'nodes':>6} {'edges':>6} {'LWCC':>6} " \
         f"{'LSCC':>6} {'KC':>4} {'SV':>8}"
print(header)
for kind in ("RT", "R", "Q", "M"):
    layer = net.layers[kind]
    f = extract_layer_features(layer)
    print(f"  {kind:>9} {len(layer.nodes()):>6} {len(layer.edges):>6} "
          f"{f.lwcc:>6} {f.lscc:>6} {f.kc:>4} {f.sv:>8.3f}")

merged = aggregate_layer(net)
f = extract_layer_features(merged)
print(f"  {'merged':>9} {len(merged.nodes()):>6} {len(merged.edges):>6} "
      f"{f.lwcc:>6} {f.lscc:>6} {f.kc:>4} {f.sv:>8.3f}")
print("\nThe merged row is what a single-graph analysis sees; the class "
      "signal carried by mention volume lives only in the M row.")
