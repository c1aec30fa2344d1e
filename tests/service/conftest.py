"""Fixtures shared by the service tests."""

import pytest

from repro.service import server as server_mod


@pytest.fixture(params=["orjson", "stdlib"])
def decoder(request, monkeypatch):
    """Run the test once per request decoder."""
    if request.param == "stdlib":
        monkeypatch.setattr(server_mod, "_orjson", None)
    elif server_mod._orjson is None:
        pytest.skip("orjson is not installed")
    return request.param
