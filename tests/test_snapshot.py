import struct

import numpy as np
import pytest

from fedmoe.federation.snapshot import MAGIC, read_snapshot, write_snapshot


def sample_entries():
    rng = np.random.default_rng(0)
    return {
        "norm/towers.t0/c1": rng.normal(0, 1, (1, 3, 2)),
        "norm/experts.l0.w_s/c1": rng.normal(0, 1, (2, 3, 2)),
        "ref/experts.l0.w_s": rng.normal(0, 1, (3, 2)),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3)),
    }


@pytest.fixture
def snapshot_file(tmp_path):
    path = tmp_path / "round_3.bin"
    write_snapshot(path, "main", 3, sample_entries())
    return path


# offset of the u64 entry count: magic, u32 strategy length, b"main", u64 round
N_ENTRIES_AT = len(MAGIC) + 4 + 4 + 8


class TestReadSnapshot:
    def test_round_trip(self, snapshot_file):
        strategy, round_index, entries = read_snapshot(snapshot_file)
        assert (strategy, round_index) == ("main", 3)
        expected = sample_entries()
        assert list(entries) == sorted(expected)
        for label, arr in expected.items():
            assert entries[label].shape == arr.shape
            assert np.array_equal(entries[label], arr)

    def test_rewrite_is_byte_identical(self, snapshot_file, tmp_path):
        again = tmp_path / "again.bin"
        write_snapshot(again, *read_snapshot(snapshot_file))
        assert again.read_bytes() == snapshot_file.read_bytes()

    def test_truncation_at_every_offset_names_the_file(self, snapshot_file, tmp_path):
        data = snapshot_file.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match="cut.bin"):
                read_snapshot(cut)

    def test_wrong_magic(self, snapshot_file):
        snapshot_file.write_bytes(b"NOTASNAP" + snapshot_file.read_bytes()[8:])
        with pytest.raises(ValueError, match="not a round snapshot"):
            read_snapshot(snapshot_file)

    def test_entry_count_past_end(self, snapshot_file):
        data = bytearray(snapshot_file.read_bytes())
        data[N_ENTRIES_AT:N_ENTRIES_AT + 8] = struct.pack("<Q", 2**63)
        snapshot_file.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="round_3.bin.*truncated"):
            read_snapshot(snapshot_file)

    def test_ndim_past_end(self, snapshot_file):
        data = bytearray(snapshot_file.read_bytes())
        label_at = N_ENTRIES_AT + 8
        (llen,) = struct.unpack("<I", data[label_at:label_at + 4])
        ndim_at = label_at + 4 + llen
        data[ndim_at:ndim_at + 4] = struct.pack("<I", 2**32 - 1)
        snapshot_file.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="round_3.bin.*extents"):
            read_snapshot(snapshot_file)

    def test_extent_past_end(self, snapshot_file):
        data = bytearray(snapshot_file.read_bytes())
        label_at = N_ENTRIES_AT + 8
        (llen,) = struct.unpack("<I", data[label_at:label_at + 4])
        extent_at = label_at + 4 + llen + 4
        data[extent_at:extent_at + 8] = struct.pack("<Q", 2**40)
        snapshot_file.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="round_3.bin.*values"):
            read_snapshot(snapshot_file)

    def test_trailing_bytes(self, snapshot_file):
        snapshot_file.write_bytes(snapshot_file.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            read_snapshot(snapshot_file)

    def test_repeated_label(self, tmp_path):
        def entry(label: bytes, value: float) -> bytes:
            return struct.pack("<I", len(label)) + label + struct.pack("<IQ", 1, 1) + struct.pack("<d", value)

        path = tmp_path / "twice.bin"
        header = MAGIC + struct.pack("<I", 4) + b"main" + struct.pack("<QQ", 1, 2)
        path.write_bytes(header + entry(b"ref/a", 1.0) + entry(b"ref/a", 2.0))
        with pytest.raises(ValueError, match="twice.bin: entry 1 repeats the label 'ref/a'"):
            read_snapshot(path)
        path.write_bytes(header + entry(b"ref/a", 1.0) + entry(b"ref/b", 2.0))  # the same file, distinct labels
        assert list(read_snapshot(path)[2]) == ["ref/a", "ref/b"]
