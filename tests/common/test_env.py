"""The three numeric environment variables, through their one reader."""

import pytest

from repro.common.errors import DataError, EngineError
from repro.data import bufferpool
from repro.net import worker

SITES = [
    ("REPRO_BUFFER_POOL_BYTES", bufferpool.default_capacity_bytes,
     bufferpool.DEFAULT_CAPACITY_BYTES, DataError, "4096", 4096),
    ("REPRO_WORKER_BLOCK_CACHE_BYTES", worker.default_block_cache_bytes,
     worker.DEFAULT_BLOCK_CACHE_BYTES, EngineError, "4096", 4096),
    ("REPRO_WORKER_TIMEOUT", worker.default_worker_timeout,
     worker.DEFAULT_WORKER_TIMEOUT, EngineError, " 7.5 ", 7.5),
]


@pytest.mark.parametrize(
    "name,read,default,error,valid,parsed", SITES,
    ids=[site[0] for site in SITES],
)
def test_numeric_env_variable(monkeypatch, name, read, default, error,
                              valid, parsed):
    monkeypatch.delenv(name, raising=False)
    assert read() == default
    for empty in ("", "   "):  # empty means unset, everywhere
        monkeypatch.setenv(name, empty)
        assert read() == default
    monkeypatch.setenv(name, valid)
    assert read() == parsed
    for bad in ("lots", "0", "-1", "inf", "-inf", "nan"):
        monkeypatch.setenv(name, bad)
        with pytest.raises(error, match=name):
            read()
