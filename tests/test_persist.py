import hashlib
import json
import shutil

import numpy as np
import pytest

from gmc.errors import DataError, FormatError
from gmc.model import GmcModel
from gmc.persist import (
    _TWIN_HEADER,
    CHECKPOINT_MAGIC,
    TWIN_MAGIC,
    _read_twin,
    format_float,
    load_checkpoint,
    load_dataset,
    read_matrix_csv,
    save_checkpoint,
    save_dataset,
    twin_path,
    write_atomic,
    write_csv,
    write_json,
    write_manifest,
)
from gmc.synthdata import SynthConfig, generate


@pytest.fixture()
def model():
    m = GmcModel.build((5, 3), d=8, s=6, hidden=8, seed=11)
    # perturb away from the deterministic init so a stale load would show
    gen = np.random.default_rng(7)
    m.replace_parameters(
        {k: p + 0.1 * gen.standard_normal(p.shape) for k, p in m.parameters().items()}
    )
    return m


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, model, tmp_path):
        path = tmp_path / "m.gmc"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.base_specs == model.base_specs
        assert loaded.head_spec == model.head_spec
        assert loaded.seed == model.seed
        for name, p in model.parameters().items():
            q = loaded.parameters()[name]
            assert q.tobytes() == p.tobytes()
            assert not q.flags.writeable

    def test_save_is_deterministic(self, model, tmp_path):
        save_checkpoint(tmp_path / "a.gmc", model)
        save_checkpoint(tmp_path / "b.gmc", model)
        assert (tmp_path / "a.gmc").read_bytes() == (tmp_path / "b.gmc").read_bytes()

    def test_save_load_save_reproduces_bytes(self, model, tmp_path):
        save_checkpoint(tmp_path / "a.gmc", model)
        save_checkpoint(tmp_path / "b.gmc", load_checkpoint(tmp_path / "a.gmc"))
        assert (tmp_path / "a.gmc").read_bytes() == (tmp_path / "b.gmc").read_bytes()

    def test_loaded_model_encodes_identically(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        loaded = load_checkpoint(tmp_path / "m.gmc")
        x = np.linspace(-1.0, 1.0, 20).reshape(4, 5)
        assert np.array_equal(loaded.encode_modality(0, x), model.encode_modality(0, x))

    def test_magic_is_first_four_bytes(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        assert (tmp_path / "m.gmc").read_bytes()[:4] == CHECKPOINT_MAGIC == b"GMC1"

    def test_bad_magic_rejected(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        blob = (tmp_path / "m.gmc").read_bytes()
        (tmp_path / "evil.gmc").write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(tmp_path / "evil.gmc")

    def test_unsupported_version_rejected(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        blob = (tmp_path / "m.gmc").read_bytes()
        header_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + header_len])
        header["version"] = 99
        raised = json.dumps(header, sort_keys=True).encode()
        out = blob[:4] + len(raised).to_bytes(4, "little") + raised + blob[8 + header_len :]
        (tmp_path / "v99.gmc").write_bytes(out)
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(tmp_path / "v99.gmc")

    def test_truncated_payload_rejected(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        blob = (tmp_path / "m.gmc").read_bytes()
        (tmp_path / "cut.gmc").write_bytes(blob[:-16])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(tmp_path / "cut.gmc")

    def test_trailing_bytes_rejected(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        blob = (tmp_path / "m.gmc").read_bytes()
        (tmp_path / "fat.gmc").write_bytes(blob + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(tmp_path / "fat.gmc")

    def test_non_finite_value_names_the_first_parameter_holding_one(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        blob = bytearray((tmp_path / "m.gmc").read_bytes())
        end = 8 + int.from_bytes(blob[4:8], "little")
        first = json.loads(blob[8:end])["parameters"][0]
        last_of_first = end + 8 * (int(np.prod(first["shape"])) - 1)
        for at in (last_of_first, len(blob) - 8):
            blob[at : at + 8] = np.array([np.inf], dtype="<f8").tobytes()
        (tmp_path / "inf.gmc").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"'{first['name']}' holds a non-finite value"):
            load_checkpoint(tmp_path / "inf.gmc")

    def test_corrupt_header_rejected(self, model, tmp_path):
        save_checkpoint(tmp_path / "m.gmc", model)
        blob = bytearray((tmp_path / "m.gmc").read_bytes())
        blob[8] = ord("!")  # clobber the JSON
        (tmp_path / "hdr.gmc").write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "hdr.gmc")


class TestFloatFormatting:
    @pytest.mark.parametrize(
        "x", [0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308, 2.5e-17, -0.0, 123456789.123456789]
    )
    def test_seventeen_digits_round_trip(self, x):
        assert float(format_float(x)) == x

    def test_random_doubles_round_trip(self):
        gen = np.random.default_rng(0)
        for x in gen.standard_normal(500) * 10.0 ** gen.integers(-30, 30, 500):
            assert float(format_float(float(x))) == x


class TestCsv:
    def test_write_read_round_trip_is_exact(self, tmp_path):
        gen = np.random.default_rng(3)
        mat = gen.standard_normal((13, 4)) * 10.0 ** gen.integers(-12, 12, (13, 4))
        write_csv(tmp_path / "m.csv", ["a", "b", "c", "d"], mat)
        header, back = read_matrix_csv(tmp_path / "m.csv")
        assert header == ["a", "b", "c", "d"]
        assert np.array_equal(back, mat)

    def test_int_and_bool_cells(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["i", "f"], [(np.int64(3), True), (-1, False)])
        text = (tmp_path / "t.csv").read_text()
        assert text == "i,f\n3,1\n-1,0\n"

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "e.csv").write_text("")
        with pytest.raises(DataError, match="empty"):
            read_matrix_csv(tmp_path / "e.csv")

    def test_non_numeric_cell_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b\n1.0,oops\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_matrix_csv(tmp_path / "x.csv")

    @pytest.mark.parametrize("body", ["1.0,2.0\n3.0\n", "1.0,2.0\n3.0,4.0,5.0\n", "1.0\n3.0\n"])
    def test_ragged_row_named(self, tmp_path, body):
        (tmp_path / "r.csv").write_text("a,b\n" + body)
        with pytest.raises(DataError, match="ragged CSV .*: data row [12] has"):
            read_matrix_csv(tmp_path / "r.csv")

    def test_header_only_gives_zero_rows(self, tmp_path):
        write_csv(tmp_path / "h.csv", ["a", "b"], [])
        header, mat = read_matrix_csv(tmp_path / "h.csv")
        assert header == ["a", "b"]
        assert mat.shape[0] == 0


def _outcome(path):
    try:
        header, mat = read_matrix_csv(path)
    except DataError as err:
        return ("error", str(err))
    return header, mat.shape, mat.tobytes()


def _flip(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestTwin:
    """A twin that is missing, stale or corrupt is never trusted: the read
    gives exactly what parsing the CSV alone gives, result or error."""

    MAT = np.arange(12.0).reshape(4, 3) / 7.0 - 0.5

    @pytest.fixture()
    def csv(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b", "c"], self.MAT)
        return path

    def _assert_ignored(self, path):
        raw = path.read_bytes()
        assert _read_twin(path, raw, hashlib.sha256(raw).digest()) is None
        with_twin = _outcome(path)
        shutil.move(twin_path(path), path.parent / "kept.f64")
        assert with_twin == _outcome(path)
        return with_twin

    def test_layout(self, csv):
        blob = twin_path(csv).read_bytes()
        payload = blob[_TWIN_HEADER.size :]
        assert _TWIN_HEADER.size == 84
        assert blob[:4] == TWIN_MAGIC == b"GMCM"
        assert blob[4:36] == hashlib.sha256(csv.read_bytes()).digest()
        assert blob[36:68] == hashlib.sha256(payload).digest()
        assert blob[68:84] == (4).to_bytes(8, "little") + (3).to_bytes(8, "little")
        assert payload == self.MAT.astype("<f8").tobytes()
        header, mat = read_matrix_csv(csv)
        assert mat.flags.writeable and mat.dtype == np.float64
        assert (header, mat.tobytes()) == (["a", "b", "c"], self.MAT.tobytes())

    @pytest.mark.parametrize("keep", [0, 1, 83, 84, 100, -1])
    def test_truncated_twin(self, csv, keep):
        twin = twin_path(csv)
        twin.write_bytes(twin.read_bytes()[:keep])
        assert self._assert_ignored(csv)[1] == (4, 3)

    @pytest.mark.parametrize("offset", [0, 3, 4, 35, 36, 67, 68, 75, 76, 83])
    def test_flipped_header_byte(self, csv, offset):
        _flip(twin_path(csv), offset)
        assert self._assert_ignored(csv)[1] == (4, 3)

    @pytest.mark.parametrize("value", [0, 5, 11])
    def test_flipped_payload_byte(self, csv, value):
        # the lowest mantissa byte: still a finite value, so only the
        # payload hash can tell
        _flip(twin_path(csv), _TWIN_HEADER.size + 8 * value)
        assert self._assert_ignored(csv)[1] == (4, 3)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.replace("a,b,c", "x,y,z"),
            lambda t: t[:-2] + "9\n",
            lambda t: t.replace("\n", "\r\n"),
            lambda t: t + "\n",
            lambda t: t[:-3] + "nan\n",
            lambda t: t.rsplit("\n", 2)[0] + ",1\n",
            lambda t: t.split("\n", 1)[0] + "\n",
            lambda t: "",
        ],
        ids=["header", "value", "crlf", "blank-line", "non-finite", "ragged", "header-only", "empty"],
    )
    def test_stale_twin_after_the_csv_is_edited(self, csv, edit):
        csv.write_bytes(edit(csv.read_text()).encode())
        self._assert_ignored(csv)

    def test_twin_copied_from_another_csv(self, csv, tmp_path):
        other = tmp_path / "other.csv"
        write_csv(other, ["a", "b", "c"], self.MAT[::-1].copy())
        shutil.copy(twin_path(other), twin_path(csv))
        assert self._assert_ignored(csv) == (["a", "b", "c"], (4, 3), self.MAT.tobytes())

    def test_twin_of_a_non_finite_matrix_is_not_trusted(self, tmp_path):
        mat = self.MAT.copy()
        mat[2, 1] = np.inf
        write_csv(tmp_path / "m.csv", ["a", "b", "c"], mat)
        assert self._assert_ignored(tmp_path / "m.csv") == (
            "error",
            f"non-finite cell in {tmp_path / 'm.csv'}: data row 3, column b",
        )

    def test_header_width_must_match(self, tmp_path):
        write_csv(tmp_path / "m.csv", ["a", "b"], self.MAT)
        assert self._assert_ignored(tmp_path / "m.csv")[0] == "error"

    @pytest.mark.parametrize("name", ["", "a\rb", "a\nb", "a\r\nb"])
    def test_header_with_a_line_break_or_no_text(self, tmp_path, name):
        # the parse reads such a header otherwise than it was written
        write_csv(tmp_path / "m.csv", [name], self.MAT[:, :1].copy())
        self._assert_ignored(tmp_path / "m.csv")

    @pytest.mark.parametrize("extra", [b"", bytes(8), bytes(3)], ids=["short", "long", "ragged"])
    def test_payload_length_must_fit_the_shape(self, csv, extra):
        # hashes that match a payload of the wrong length: well-formedness
        # alone must reject it, or the reshape would raise
        payload = self.MAT.astype("<f8").tobytes()[: -8 if not extra else None] + extra
        digest = hashlib.sha256(csv.read_bytes()).digest()
        header = _TWIN_HEADER.pack(TWIN_MAGIC, digest, hashlib.sha256(payload).digest(), 4, 3)
        twin_path(csv).write_bytes(header + payload)
        assert self._assert_ignored(csv)[1] == (4, 3)

    def test_zero_row_twin_is_not_trusted(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, ["a", "b", "c"], [])
        digest = hashlib.sha256(path.read_bytes()).digest()
        empty = hashlib.sha256(b"").digest()
        twin_path(path).write_bytes(_TWIN_HEADER.pack(TWIN_MAGIC, digest, empty, 0, 3))
        assert self._assert_ignored(path) == (["a", "b", "c"], (0,), b"")

    def test_no_twin_for_rows_that_are_not_a_float_matrix(self, tmp_path):
        assert list(write_csv(tmp_path / "i.csv", ["a"], np.arange(3).reshape(3, 1))) == [tmp_path / "i.csv"]
        assert list(write_csv(tmp_path / "t.csv", ["a", "b"], [(1.0, 2.0)])) == [tmp_path / "t.csv"]
        assert list(write_csv(tmp_path / "e.csv", ["a"], np.empty((0, 1)))) == [tmp_path / "e.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv", "i.csv", "t.csv"]

    def test_non_utf8_csv_is_a_data_error(self, csv):
        csv.write_bytes(csv.read_bytes() + b"\xfe\xff")
        outcome = self._assert_ignored(csv)
        assert outcome[0] == "error" and outcome[1].startswith(f"CSV is not UTF-8 text: {csv} (")


class TestDatasetDirectory:
    def test_round_trip_is_exact(self, tmp_path):
        ds = generate(SynthConfig(n_samples=60, n_classes=3, modality_dims=(5, 4), style_dim=2, seed=9))
        save_dataset(tmp_path, ds)
        back = load_dataset(tmp_path)
        assert back.modality_count == 2
        for m in range(2):
            assert np.array_equal(back.modalities[m], ds.modalities[m])
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.is_train, ds.is_train)
        assert np.array_equal(back.complete, ds.complete)
        assert back.config is None

    def test_missing_labels_rejected(self, tmp_path):
        with pytest.raises(DataError, match="labels.csv"):
            load_dataset(tmp_path)

    def test_single_modality_rejected(self, tmp_path):
        ds = generate(SynthConfig(n_samples=20, n_classes=2, modality_dims=(5, 4), style_dim=0, seed=1))
        save_dataset(tmp_path, ds)
        (tmp_path / "modality_2.csv").unlink()
        with pytest.raises(DataError, match="at least 2"):
            load_dataset(tmp_path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        ds = generate(SynthConfig(n_samples=20, n_classes=2, modality_dims=(5, 4), style_dim=0, seed=1))
        save_dataset(tmp_path, ds)
        lines = (tmp_path / "modality_1.csv").read_text().splitlines()
        (tmp_path / "modality_1.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="row count"):
            load_dataset(tmp_path)


class TestManifest:
    def test_hash_matches_hashlib(self, tmp_path, model):
        """Every writer returns the sha256 of the bytes now in each file."""
        records = [
            write_atomic(tmp_path / "f.bin", b"abc" * 1000),
            write_json(tmp_path / "r.json", {"b": [1.5], "a": None}),
            save_checkpoint(tmp_path / "m.gmc", model),
            write_csv(tmp_path / "m.csv", ["a", "b"], np.arange(6.0).reshape(3, 2)),
            write_csv(tmp_path / "t.csv", ["a"], [(1,), (2,)]),
        ]
        for record in records:
            for path, digest in record.items():
                assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), path
        assert sorted(p.name for r in records for p in r) == sorted(p.name for p in tmp_path.iterdir())
        assert (tmp_path / "r.json").read_text() == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}\n'

    def test_manifest_bytes_are_stable(self, tmp_path):
        (tmp_path / "sub").mkdir()
        written = write_csv(tmp_path / "sub" / "out.csv", ["a"], [(1,)])
        for name in ("m1.json", "m2.json"):
            write_manifest(tmp_path / name, "demo", {"alpha": 1}, inputs={}, outputs=written)
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        entry = {"path": str(tmp_path / "sub" / "out.csv"), "sha256": written[tmp_path / "sub" / "out.csv"]}
        assert json.loads((tmp_path / "m1.json").read_text())["outputs"] == {"sub/out.csv": entry}

    def test_manifest_carries_no_timestamps(self, tmp_path):
        write_manifest(tmp_path / "m.json", "demo", {"a": 1}, inputs={}, outputs={})
        obj = json.loads((tmp_path / "m.json").read_text())
        assert set(obj) == {"command", "config", "inputs", "outputs", "tool_version"}
