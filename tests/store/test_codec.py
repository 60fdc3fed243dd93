"""The store's value codec: exact round-trips, loud failures.

:func:`encode_value` / :func:`decode_value` are the only path by which a
result reaches disk and comes back.  A restored value must be
bit-identical to the freshly computed one, and a payload the codec
cannot decode must raise (the store turns that into a miss, never into
a wrong answer).
"""

import dataclasses
import hashlib
import json
import struct

import pytest

from repro import obs
from repro.core.perfmodel import DNRError
from repro.core.sweep import ExperimentConfig, SweepEngine, expand_grid
from repro.machines.catalog import get_machine, machine_names
from repro.npb.params import KERNELS
from repro.store import ResultStore
from repro.store.store import _digest_key, decode_value, encode_value


@pytest.fixture(autouse=True)
def _telemetry_off():
    obs.disable()
    yield
    obs.disable()


def _through_disk(value):
    """Encode, serialise to JSON text, parse and decode -- as the store does."""
    return decode_value(json.loads(json.dumps(encode_value(value), sort_keys=True)))


def _one_result():
    config = ExperimentConfig(machine="sg2044", kernel="cg", npb_class="A")
    return SweepEngine().run(config)


@pytest.mark.parametrize("machine", machine_names())
def test_every_machine_round_trips_bit_identical(machine):
    engine = SweepEngine()
    threads = sorted({1, get_machine(machine).n_cores})
    grid = expand_grid(machine, KERNELS, classes=("A", "C"), thread_counts=threads)
    results = [r for r in engine.run_many(grid, on_dnr="none") if r is not None]
    assert results
    for result in results:
        assert _through_disk(result) == result  # == is exact, not approximate


def test_encoding_is_deterministic():
    result = _one_result()
    first = json.dumps(encode_value(result), sort_keys=True)
    assert json.dumps(encode_value(_through_disk(result)), sort_keys=True) == first


@pytest.mark.parametrize(
    "value",
    [0.1 + 0.2, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -0.0],
    ids=["inexact-sum", "third", "min-subnormal", "max-finite", "negative-zero"],
)
def test_float_edge_values_keep_their_bits(value):
    result = _one_result()
    sample = dataclasses.replace(result.samples[0], time_s=value)
    prediction = dataclasses.replace(result.prediction, t_sync=value)
    edited = dataclasses.replace(result, samples=(sample,), prediction=prediction)

    restored = _through_disk(edited)
    bits = struct.pack("<d", value)
    assert struct.pack("<d", restored.samples[0].time_s) == bits
    assert struct.pack("<d", restored.prediction.t_sync) == bits


def test_text_round_trips_verbatim():
    text = "machine,kernel,mops\r\nsg2044,ep,1.5e+03\nµs,✓\n"
    assert _through_disk(text) == text


def test_dnr_message_round_trips():
    config = ExperimentConfig(machine="allwinner-d1", kernel="ft", npb_class="B")
    with pytest.raises(DNRError) as exc:
        SweepEngine().run(config)
    restored = _through_disk(exc.value)
    assert type(restored) is DNRError
    assert str(restored) == str(exc.value)


def _without_prediction():
    payload = encode_value(_one_result())
    del payload["result"]["prediction"]
    return payload


def _short_sample():
    payload = encode_value(_one_result())
    payload["result"]["samples"] = [[0, 1.0]]
    return payload


@pytest.mark.parametrize(
    "make_payload",
    [
        lambda: {},
        lambda: {"text": 5},
        lambda: {"result": {"garbage": True}},
        _without_prediction,
        _short_sample,
    ],
    ids=["empty", "non-string-text", "garbage-result", "missing-prediction", "short-sample"],
)
def test_malformed_payload_raises(make_payload):
    with pytest.raises((KeyError, TypeError, ValueError)):
        decode_value(make_payload())


def test_undecodable_entry_is_a_counted_miss(tmp_path):
    """A verified entry whose payload the codec rejects is never served."""
    store = ResultStore(tmp_path / "store")
    key = ("k",)
    store.put(key, "placeholder")
    path = store._objects / f"{_digest_key(key)}.json"
    entry = json.loads(path.read_text())
    payload_text = json.dumps({"result": {"garbage": True}}, sort_keys=True)
    entry["payload"] = payload_text
    entry["sha256"] = hashlib.sha256(payload_text.encode()).hexdigest()
    path.write_text(json.dumps(entry))

    recorder = obs.install()
    try:
        assert ResultStore(tmp_path / "store").get(key) is None
    finally:
        obs.disable()
    assert recorder.counters_snapshot()["store.corrupt_entries"] == 1
    assert not path.exists()
