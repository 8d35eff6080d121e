"""Checkpoint bytes from outside the program: every input loads or raises ValueError."""

import functools
import struct
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfuse.pipeline import Pipeline, PipelineConfig
from coopfuse.serialize import MAGIC, VERSION, load_params, save_params


class TestCheckpointBytes:
    def test_every_truncation_rejected(self, tmp_path):
        raw = small_checkpoint()
        path = tmp_path / "p.catp"
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(ValueError):
                load_params(path)
        path.write_bytes(raw)
        assert sorted(load_params(path)) == ["decoder.bias", "decoder.kernel",
                                             "integrate.bias", "integrate.kernel"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: MAGIC + struct.pack("<I", VERSION) + b),
        st.builds(lambda start, cut, insert: (small_checkpoint()[:start] + insert
                                              + small_checkpoint()[start + cut:]),
                  st.integers(0, 800), st.integers(0, 16), st.binary(max_size=8))))
    def test_any_bytes_load_or_raise_value_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.catp"
        path.write_bytes(data)
        try:
            loaded = load_params(path)
        except ValueError:
            return
        assert all(isinstance(v, np.ndarray) for v in loaded.values())


@functools.cache
def small_checkpoint() -> bytes:
    """Checkpoint of the integrator and decoder blocks of a two-channel pipeline."""
    params = {n: p for n, p in Pipeline(PipelineConfig(channels=2)).parameters().items()
              if n.startswith(("integrate.", "decoder."))}
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.catp"
        save_params(path, params)
        return path.read_bytes()
