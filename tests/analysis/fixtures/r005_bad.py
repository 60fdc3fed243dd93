"""R005 known-bad: a trace-engine registry missing its vectorized half
and pointing the exact slot at a name that is not a module-level
function."""

TRACE_ENGINES = {
    "exact": _missing_engine,  # noqa: F821 -- deliberately unresolvable
}
