"""RAID-5 parity accounting."""

import pytest

from repro.array.raid5 import Raid5Accounting, Raid5Config
from repro.common.errors import ConfigError


def test_config_validation():
    with pytest.raises(ConfigError):
        Raid5Config(num_devices=2)
    assert Raid5Config(num_devices=4).data_columns == 3


def test_full_stripe_write_pays_one_parity():
    acct = Raid5Accounting(Raid5Config(4))
    assert acct.add_chunks(3) == 1  # exactly one stripe
    assert acct.parity_chunks == 1


def test_small_writes_pay_parity_per_io():
    acct = Raid5Accounting(Raid5Config(4))
    p = sum(acct.add_chunks(1) for _ in range(3))
    # Three separate 1-chunk I/Os in one stripe: 3 parity updates.
    assert p == 3


def test_large_io_spanning_stripes():
    acct = Raid5Accounting(Raid5Config(4))
    assert acct.add_chunks(7) == 3  # ceil(7/3) stripes touched from offset 0


def test_offset_io_touches_extra_stripe():
    acct = Raid5Accounting(Raid5Config(4))
    acct.add_chunks(2)              # stripe fill at 2
    assert acct.add_chunks(2) == 2  # crosses into the next stripe


def test_parity_overhead_converges_for_full_stripes():
    acct = Raid5Accounting(Raid5Config(5))
    for _ in range(100):
        acct.add_chunks(4)  # always full stripes
    assert abs(acct.parity_overhead() - 0.25) < 1e-9


def test_zero_and_negative():
    acct = Raid5Accounting()
    assert acct.add_chunks(0) == 0
    assert acct.parity_overhead() == 0.0
    with pytest.raises(ValueError):
        acct.add_chunks(-1)
