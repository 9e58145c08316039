"""The atomic writer leaves exactly the bytes written.

Temp files are preallocated before their write, so a wrong length there
would leave a zero tail (or a short file) behind the rename.
"""

import pytest

from repro.durable import atomic_write

SIZES = (0, 1, 5000)


def _data(size: int) -> bytes:
    return bytes(range(1, 256)) * (size // 255) + bytes(range(1, size % 255 + 1))


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize("size", SIZES)
def test_atomic_write_over_a_longer_file_leaves_exact_bytes(tmp_path, size):
    path = tmp_path / "record.json"
    path.write_bytes(b"\xff" * 9000)
    data = _data(size)
    assert len(data) == size
    atomic_write(path, data)
    assert path.read_bytes() == data
    assert _leftovers(tmp_path) == []
