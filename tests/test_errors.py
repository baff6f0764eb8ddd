from __future__ import annotations

import pytest

from pdffusion.errors import whole_number


@pytest.mark.parametrize("value", [10**400, -(10**400), "1" + "0" * 400], ids=["int", "negative-int", "string"])
def test_whole_number_beyond_float_range_is_named(value):
    # float() overflows for the ints and reads the string as inf; all get the same message
    with pytest.raises(ValueError, match=f"^x must be a whole number, got {value}$"):
        whole_number(value, "x")
