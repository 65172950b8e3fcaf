"""Span self times for the traced run.

The driver writes spans.tsv: request, span, parent, name, start_ns, end_ns
(parent 0 = a root). A span's self time is its duration minus the part of
its own interval that its children cover; a child running outside its
parent's interval (the in-process replay of a request, say) covers none of it.
"""
from collections import defaultdict

STAGES = ("classify", "tag", "conditions", "assemble", "render_sql", "plan",
          "execute", "rank")


def read_spans(path):
    spans = []
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        if header != ["request", "span", "parent", "name", "start_ns", "end_ns"]:
            raise ValueError(f"unexpected spans header: {header}")
        for line in f:
            request, span, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append({"request": int(request), "span": int(span),
                          "parent": int(parent), "name": name,
                          "start": int(start), "end": int(end)})
    return spans


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Maps span id to its self time in ns."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["span"]: (s["end"] - s["start"]) - covered(s["start"], s["end"],
                                                          children[s["span"]])
            for s in spans}


def mean_self_us(spans):
    """Mean self time per span name, in microseconds."""
    selfs = self_times(spans)
    sums, counts = defaultdict(float), defaultdict(int)
    for s in spans:
        sums[s["name"]] += selfs[s["span"]] / 1000.0
        counts[s["name"]] += 1
    return {name: sums[name] / counts[name] for name in sums}


def layer_metrics(spans):
    """The span-derived per-layer metrics; 0 for a layer no span reached."""
    means = mean_self_us(spans)
    out = {f"stage.{stage}_us": means.get(stage, 0.0) for stage in STAGES}
    out["protocol.encode_us"] = means.get("protocol.encode", 0.0)
    out["protocol.decode_us"] = means.get("protocol.decode", 0.0)
    return out
