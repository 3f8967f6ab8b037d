import os

from singmod.cache import cache_path, load_ints, store_ints


def test_roundtrip(tmp_path):
    d = str(tmp_path)
    values = [1, -5, 10 ** 40, 0]
    store_ints(d, "classpoly:-23", values)
    assert load_ints(d, "classpoly:-23") == values


def test_missing_returns_none(tmp_path):
    assert load_ints(str(tmp_path), "absent") is None
    assert load_ints(str(tmp_path / "no-such-dir"), "absent") is None


def test_key_is_filesystem_safe(tmp_path):
    d = str(tmp_path)
    store_ints(d, "jcoeffs:128", [7])
    path = cache_path(d, "jcoeffs:128")
    assert os.path.exists(path)
    assert ":" not in os.path.basename(path)
    assert "/" not in os.path.basename(cache_path(d, "a/b"))


def test_corruption_invalidates(tmp_path):
    d = str(tmp_path)
    store_ints(d, "k", [1, 2, 3])
    path = cache_path(d, "k")
    body = open(path).read()
    open(path, "w").write(body.replace("2", "9", 1))
    assert load_ints(d, "k") is None


def test_key_mismatch_invalidates(tmp_path):
    d = str(tmp_path)
    store_ints(d, "k1", [1, 2])
    # copy the valid file under another key's path
    open(cache_path(d, "k2"), "w").write(open(cache_path(d, "k1")).read())
    assert load_ints(d, "k2") is None


def test_version_mismatch_invalidates(tmp_path):
    d = str(tmp_path)
    store_ints(d, "k", [4])
    path = cache_path(d, "k")
    lines = open(path).read().splitlines()
    lines[0] = "999"
    open(path, "w").write("\n".join(lines) + "\n")
    assert load_ints(d, "k") is None


def test_garbage_file_invalid(tmp_path):
    d = str(tmp_path)
    with open(cache_path(d, "k"), "w") as fh:
        fh.write("not\na\ncache\n")
    assert load_ints(d, "k") is None


def test_overwrite(tmp_path):
    d = str(tmp_path)
    store_ints(d, "k", [1])
    store_ints(d, "k", [2, 3])
    assert load_ints(d, "k") == [2, 3]


def test_non_ascii_entry_invalid(tmp_path):
    d = str(tmp_path)
    store_ints(d, "k", [1, 2])
    with open(cache_path(d, "k"), "ab") as fh:
        fh.write(b"\xff\n")
    assert load_ints(d, "k") is None
