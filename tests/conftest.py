"""Shared fixtures."""

import pytest

from schreierkit import search


@pytest.fixture
def search_deadline_at_tick(monkeypatch):
    """arm(n): every search clock from now on times out at its n-th tick,
    however fast the host or warm the caches."""
    def arm(ticks: int) -> None:
        left = [ticks]

        def tick(self) -> None:
            left[0] -= 1
            if left[0] <= 0:
                raise search._TimeUp

        monkeypatch.setattr(search._Clock, "tick", tick)
    return arm
