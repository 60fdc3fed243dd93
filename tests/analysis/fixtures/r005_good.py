"""R005 known-good: the trace-engine registry holds the complete
exact/vectorized pair."""


def run_trace_vectorized(hierarchy, addresses, streaming_mask=None):
    return addresses


def _exact_levels(hierarchy, addresses, streaming_mask):
    return addresses


def _vectorized_levels(hierarchy, addresses, streaming_mask):
    return run_trace_vectorized(hierarchy, addresses, streaming_mask)


TRACE_ENGINES = {
    "exact": _exact_levels,
    "vectorized": _vectorized_levels,
}
