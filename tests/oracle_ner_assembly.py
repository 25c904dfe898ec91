"""Literal per-span mention assembly: the ORACLE for the NER stage's
columnar mention table (``gliner_cpp_ray.stages.ner._mention_table``).

A straight row-by-row statement of the table's definition, used by
tests/test_ner_assembly.py to cross-check the vectorized assembly.  Keep
it dumb and literal.
"""

from __future__ import annotations

import pyarrow as pa

from gliner_cpp_ray.stages.ner import MENTIONS_SCHEMA, _GAP_CAP_BYTES


def assemble_mentions_oracle(
    texts: list[str],
    doc_ids: list[str],
    urls: list[str],
    spans_by_doc: list[list],
) -> pa.Table:
    cols: dict[str, list] = {name: [] for name in MENTIONS_SCHEMA.names}
    for j, spans in enumerate(spans_by_doc):
        if not spans:
            continue
        spans = sorted(spans, key=lambda s: (s.start, s.end))
        tb = texts[j].encode("utf-8")
        did, u = doc_ids[j], urls[j]
        for k, s in enumerate(spans):
            cols["doc_id"].append(did)
            cols["url"].append(u)
            cols["start"].append(s.start)
            cols["end"].append(s.end)
            cols["text"].append(s.text)
            cols["label"].append(s.label)
            cols["prob"].append(s.prob)
            if k + 1 < len(spans):
                nxt = spans[k + 1]
                gap_len = nxt.start - s.end
                gap = (
                    tb[s.end : nxt.start].decode("utf-8")
                    if 0 <= gap_len <= _GAP_CAP_BYTES
                    else ""
                )
                cols["gap_next"].append(gap)
                cols["next_text"].append(nxt.text)
                cols["next_label"].append(nxt.label)
                cols["next_prob"].append(nxt.prob)
            else:
                cols["gap_next"].append("")
                cols["next_text"].append("")
                cols["next_label"].append("")
                cols["next_prob"].append(0.0)
    return pa.table(cols, schema=MENTIONS_SCHEMA)
