"""Fixture-driven rule tests: each rule passes its known-good file and
flags its known-bad file, and every finding can be silenced in place."""

from pathlib import Path

import pytest

from repro.analysis.core import run_analysis
from repro.analysis.registry import rules_for

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule code, expected finding count in the known-bad fixture)
CASES = [
    ("R001", 4),
    ("R002", 4),
    ("R003", 4),
    ("R004", 4),
    ("R005", 2),
    ("R006", 4),
    ("R007", 4),
    ("R009", 4),
    ("R010", 4),
    ("R012", 3),
    ("R013", 4),
]


def _run(code, path):
    return run_analysis([path], rules_for([code]), root=FIXTURES)


class TestKnownGoodKnownBad:
    @pytest.mark.parametrize("code,_n", CASES)
    def test_good_fixture_is_clean(self, code, _n):
        report = _run(code, FIXTURES / f"{code.lower()}_good.py")
        assert report.exit_code == 0
        assert report.findings == []

    @pytest.mark.parametrize("code,n", CASES)
    def test_bad_fixture_flagged(self, code, n):
        report = _run(code, FIXTURES / f"{code.lower()}_bad.py")
        assert report.exit_code == 1
        assert len(report.findings) == n
        assert all(f.rule == code for f in report.findings)

    @pytest.mark.parametrize("code,n", CASES)
    def test_every_finding_suppressible_in_place(self, code, n, tmp_path):
        bad = FIXTURES / f"{code.lower()}_bad.py"
        report = _run(code, bad)
        lines = bad.read_text().splitlines()
        for f in report.findings:
            lines[f.line - 1] += f"  # repro: noqa[{code}]"
        patched = tmp_path / bad.name
        patched.write_text("\n".join(lines) + "\n")
        again = run_analysis([patched], rules_for([code]), root=tmp_path)
        assert again.exit_code == 0
        assert again.suppressed == n


class TestDeterminismSpecifics:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        assert _count(f, "R001") == 1

    def test_seeded_default_rng_clean(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("import numpy as np\nrng = np.random.default_rng(42)\n")
        assert _count(f, "R001") == 0

    def test_import_alias_resolved(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("from time import perf_counter as pc\nt = pc()\n")
        assert _count(f, "R001") == 1


class TestConcurrencySpecifics:
    def test_lock_guard_recognised_by_name(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "_trace_lock = threading.Lock()\n"
            "_memo = {}\n"
            "def fill(k, v):\n"
            "    with _trace_lock:\n"
            "        _memo[k] = v\n"
        )
        assert _count(f, "R002") == 0

    def test_non_lock_context_manager_is_no_guard(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "_memo = {}\n"
            "def fill(k, v, path):\n"
            "    with open(path) as fh:\n"
            "        _memo[k] = fh.read()\n"
        )
        assert _count(f, "R002") == 1

    def test_local_shadow_not_flagged(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "_memo = {}\n"
            "def fill(k, v):\n"
            "    _memo = {}\n"
            "    _memo[k] = v\n"
            "    return _memo\n"
        )
        assert _count(f, "R002") == 0


class TestUnitsSpecifics:
    def test_conversion_via_multiply_is_legal(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("def f(idle_latency_ns):\n    lat_s = idle_latency_ns * 1e-9\n")
        assert _count(f, "R003") == 0

    def test_bare_ns_is_not_nanoseconds(self, tmp_path):
        # `ns` is this codebase's thread-count array name; it must not
        # collide with the nanosecond suffix.
        f = tmp_path / "m.py"
        f.write_text("def f(ns, total_s):\n    return total_s + 0 if ns is None else total_s\n")
        assert _count(f, "R003") == 0

    def test_return_against_function_suffix(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("def stream_time_s(window_ns):\n    return window_ns\n")
        assert _count(f, "R003") == 1


class TestCatalogSpecifics:
    def test_bandwidth_overclaim_message_names_jedec(self):
        report = _run("R004", FIXTURES / "r004_bad.py")
        assert any("JEDEC peak" in f.message for f in report.findings)

    def test_table5_clock_anchor_enforced(self):
        report = _run("R004", FIXTURES / "r004_bad.py")
        assert any("paper measured 2 GHz" in f.message for f in report.findings)

    def test_unevaluable_arguments_skipped(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("def mk(size):\n    return CacheLevel(1, size, 'core', 4)\n")
        assert _count(f, "R004") == 0


class TestParityProjectChecks:
    def _mini_repo(self, tmp_path, *, builders, traces, kernels=("ft",)):
        npb = tmp_path / "npb"
        npb.mkdir()
        for k in kernels:
            stem = f"{k}_" if k in {"is"} else k
            (npb / f"{stem}.py").write_text(f"def run_{k}(n):\n    return n\n")
        builder_defs = "".join(
            f"def _build_{k}(npb_class):\n"
            "    return KernelSignature(name='x', display='X', npb_class=npb_class,\n"
            "        total_mops=1.0, work_per_op=1.0, dram_bytes_per_op=1.0,\n"
            "        working_set_bytes=1.0)\n"
            for k in builders
        )
        entries = ", ".join(f"'{k}': _build_{k}" for k in builders)
        (npb / "signatures.py").write_text(
            "from x import KernelSignature\n"
            f"{builder_defs}"
            f"SIGNATURE_BUILDERS = {{{entries}}}\n"
        )
        trace_entries = ", ".join(f"'{k}': None" for k in traces)
        (tmp_path / "trace.py").write_text(f"KERNEL_TRACES = {{{trace_entries}}}\n")
        return run_analysis([tmp_path], rules_for(["R005"]), root=tmp_path)

    def test_complete_registration_is_clean(self, tmp_path):
        report = self._mini_repo(tmp_path, builders=["ft"], traces=["ft"])
        assert report.findings == []

    def test_kernel_missing_from_builders(self, tmp_path):
        report = self._mini_repo(tmp_path, builders=[], traces=["ft"])
        assert any("SIGNATURE_BUILDERS" in f.message for f in report.findings)

    def test_orphan_builder_entry(self, tmp_path):
        report = self._mini_repo(tmp_path, builders=["ft", "zz"], traces=["ft"])
        assert any("registers `zz`" in f.message for f in report.findings)

    def test_kernel_missing_from_traces(self, tmp_path):
        report = self._mini_repo(tmp_path, builders=["ft"], traces=[])
        assert any("KERNEL_TRACES" in f.message for f in report.findings)

    def test_incomplete_signature_fields(self, tmp_path):
        npb = tmp_path / "npb"
        npb.mkdir()
        (npb / "ft.py").write_text("def run_ft(n):\n    return n\n")
        (npb / "signatures.py").write_text(
            "from x import KernelSignature\n"
            "def _build_ft(npb_class):\n"
            "    return KernelSignature(name='ft', npb_class=npb_class)\n"
            "SIGNATURE_BUILDERS = {'ft': _build_ft}\n"
        )
        report = run_analysis([tmp_path], rules_for(["R005"]), root=tmp_path)
        assert any("incomplete" in f.message for f in report.findings)


class TestEngineRegistrySpecifics:
    def test_missing_vectorized_entry_flagged(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "def _exact_levels(h, a, s):\n    return a\n"
            "TRACE_ENGINES = {'exact': _exact_levels}\n"
        )
        report = _run_path(f, "R005")
        assert any("omits the 'vectorized' engine" in x.message
                   for x in report.findings)

    def test_value_must_be_module_function(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "def _exact_levels(h, a, s):\n    return a\n"
            "def _vectorized_levels(h, a, s):\n    return a\n"
            "TRACE_ENGINES = {\n"
            "    'exact': _exact_levels,\n"
            "    'vectorized': lambda h, a, s: a,\n"
            "}\n"
        )
        report = _run_path(f, "R005")
        assert any("module-level engine function" in x.message
                   for x in report.findings)

    def test_unregistered_vectorized_entry_point_flagged(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("def run_trace_vectorized(h, a, s=None):\n    return a\n")
        report = _run_path(f, "R005")
        assert any("no TRACE_ENGINES registry" in x.message
                   for x in report.findings)

    def test_registry_in_sibling_module_satisfies_pairing(self, tmp_path):
        (tmp_path / "vec.py").write_text(
            "def run_trace_vectorized(h, a, s=None):\n    return a\n"
        )
        (tmp_path / "hier.py").write_text(
            "def _exact_levels(h, a, s):\n    return a\n"
            "def _vectorized_levels(h, a, s):\n    return a\n"
            "TRACE_ENGINES = {\n"
            "    'exact': _exact_levels,\n"
            "    'vectorized': _vectorized_levels,\n"
            "}\n"
        )
        report = run_analysis([tmp_path], rules_for(["R005"]), root=tmp_path)
        assert report.findings == []


class TestTelemetrySpecifics:
    def test_obs_package_is_exempt(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "obs"
        pkg.mkdir(parents=True)
        f = pkg / "recorder.py"
        f.write_text("import time\nt = time.perf_counter()\n")
        report = run_analysis([f], rules_for(["R006"]), root=tmp_path)
        assert report.findings == []

    def test_same_code_outside_obs_is_flagged(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("import time\nt = time.perf_counter()\n")
        assert _count(f, "R006") == 1

    def test_timing_message_points_to_host_timer(self):
        report = _run("R006", FIXTURES / "r006_bad.py")
        assert any("host_timer" in f.message for f in report.findings)

    def test_span_construction_message(self):
        report = _run("R006", FIXTURES / "r006_bad.py")
        assert any("open_span" in f.message for f in report.findings)

    def test_obs_helpers_not_flagged(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "from repro import obs\n"
            "def f(w):\n"
            "    with obs.host_timer('x') as t:\n"
            "        w()\n"
            "    return t.elapsed_s\n"
        )
        assert _count(f, "R006") == 0


class TestLockOrderSpecifics:
    def test_consistent_order_project_wide_is_clean(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "_a = threading.Lock()\n"
            "_b = threading.Lock()\n"
            "def one():\n"
            "    with _a:\n"
            "        with _b:\n"
            "            pass\n"
            "def two():\n"
            "    with _a:\n"
            "        with _b:\n"
            "            pass\n"
        )
        assert _count(f, "R009") == 0

    def test_inversion_across_files(self, tmp_path):
        (tmp_path / "locks.py").write_text(
            "import threading\n"
            "_a = threading.Lock()\n"
            "_b = threading.Lock()\n"
            "def forward():\n"
            "    with _a:\n"
            "        with _b:\n"
            "            pass\n"
        )
        (tmp_path / "other.py").write_text(
            "from locks import _a, _b, forward\n"
            "def backward():\n"
            "    with _b:\n"
            "        with _a:\n"
            "            pass\n"
        )
        report = run_analysis([tmp_path], rules_for(["R009"]), root=tmp_path)
        assert len(report.findings) == 2
        assert {f.path for f in report.findings} == {"locks.py", "other.py"}

    def test_self_deadlock_on_plain_lock(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "_a = threading.Lock()\n"
            "def nest():\n"
            "    with _a:\n"
            "        with _a:\n"
            "            pass\n"
        )
        report = _run_path(f, "R009")
        assert len(report.findings) == 1
        assert "self-deadlock" in report.findings[0].message

    def test_rlock_reentry_is_legal(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "_a = threading.RLock()\n"
            "def nest():\n"
            "    with _a:\n"
            "        with _a:\n"
            "            pass\n"
        )
        assert _count(f, "R009") == 0

    def test_acquire_release_pairs_tracked(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "_a = threading.Lock()\n"
            "_b = threading.Lock()\n"
            "def one():\n"
            "    _a.acquire()\n"
            "    with _b:\n"
            "        pass\n"
            "    _a.release()\n"
            "def two():\n"
            "    with _b:\n"
            "        with _a:\n"
            "            pass\n"
        )
        assert _count(f, "R009") == 2

    def test_release_ends_held_region(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "_a = threading.Lock()\n"
            "_b = threading.Lock()\n"
            "def one():\n"
            "    _a.acquire()\n"
            "    _a.release()\n"
            "    with _b:\n"
            "        pass\n"
            "def two():\n"
            "    with _b:\n"
            "        with _a:\n"
            "            pass\n"
        )
        assert _count(f, "R009") == 0


class TestBlockingSpecifics:
    def test_wait_outside_lock_is_clean(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "_l = threading.Lock()\n"
            "_e = threading.Event()\n"
            "def f():\n"
            "    with _l:\n"
            "        pass\n"
            "    _e.wait()\n"
        )
        assert _count(f, "R010") == 0

    def test_file_io_under_lock_hot_module_flagged(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        f = pkg / "hotpath.py"
        f.write_text(
            "import threading\n"
            "_l = threading.Lock()\n"
            "def f(path):\n"
            "    with _l:\n"
            "        return path.read_text()\n"
        )
        report = run_analysis([f], rules_for(["R010"]), root=tmp_path)
        assert len(report.findings) == 1
        assert ".read_text()" in report.findings[0].message

    def test_file_io_under_lock_cold_module_allowed(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "store"
        pkg.mkdir(parents=True)
        f = pkg / "store.py"
        f.write_text(
            "import threading\n"
            "_l = threading.Lock()\n"
            "def f(path):\n"
            "    with _l:\n"
            "        return path.read_text()\n"
        )
        report = run_analysis([f], rules_for(["R010"]), root=tmp_path)
        assert report.findings == []

    def test_sleep_alias_resolved(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            "import threading\n"
            "from time import sleep\n"
            "_l = threading.Lock()\n"
            "def f():\n"
            "    with _l:\n"
            "        sleep(1)\n"
        )
        assert _count(f, "R010") == 1

    def test_blocking_callee_seen_through_package_reexport(self, tmp_path):
        # `from .impl import slow` in a package __init__ must resolve to
        # repro.pkg.impl.slow, not one level up to repro.impl.slow.
        pkg = tmp_path / "src" / "repro" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("from .impl import slow\n")
        (pkg / "impl.py").write_text(
            "import time\n"
            "def slow():\n"
            "    time.sleep(1)\n"
        )
        user = tmp_path / "src" / "repro" / "user.py"
        user.write_text(
            "import threading\n"
            "from repro.pkg import slow\n"
            "_l = threading.Lock()\n"
            "def f():\n"
            "    with _l:\n"
            "        slow()\n"
        )
        report = run_analysis([tmp_path / "src"], rules_for(["R010"]), root=tmp_path)
        assert [(f.path, f.line) for f in report.findings] == [("src/repro/user.py", 6)]
        assert "time.sleep" in report.findings[0].message


def _count(path, code):
    return len(run_analysis([path], rules_for([code]), root=path.parent).findings)


def _run_path(path, code):
    return run_analysis([path], rules_for([code]), root=path.parent)
