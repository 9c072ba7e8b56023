import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ccx import data
from ccx.bridge import OOVError, word_tokens
from ccx.model import build_vocabulary
from ccx.rng import Rng
from ccx.tensor_io import read_cct1


def _dir_digest(d: Path):
    h = hashlib.sha256()
    for p in sorted(d.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class TestGenerate:
    def test_byte_exact_repeatable(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        data.generate_dataset(6, seed=7, out_dir=a)
        data.generate_dataset(6, seed=7, out_dir=b)
        assert _dir_digest(a) == _dir_digest(b)

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        data.generate_dataset(6, seed=7, out_dir=a)
        data.generate_dataset(6, seed=8, out_dir=b)
        assert _dir_digest(a) != _dir_digest(b)

    def test_manifest_contents(self, tmp_path):
        manifest = data.generate_dataset(5, seed=3, out_dir=tmp_path)
        records = data.load_manifest(manifest)
        assert len(records) == 5
        for rec in records:
            assert len(rec.captions) == 5
            i1, i2 = data.load_images(rec, tmp_path)
            assert i1.shape == (32, 32, 3) and i2.shape == (32, 32, 3)
            assert 0.0 <= i1.min() and i1.max() <= 1.0

    def test_none_event_means_identical_images(self, tmp_path):
        # scan enough pairs to hit several "no change" records
        manifest = data.generate_dataset(40, seed=11, out_dir=tmp_path)
        records = data.load_manifest(manifest)
        none_records = [r for r in records if "there is no change" in r.captions]
        assert none_records, "expected some unchanged pairs at ~25% rate"
        for rec in none_records:
            i1, i2 = data.load_images(rec, tmp_path)
            assert i1.tobytes() == i2.tobytes()

    def test_changed_pairs_differ(self, tmp_path):
        manifest = data.generate_dataset(40, seed=11, out_dir=tmp_path)
        records = data.load_manifest(manifest)
        changed = [r for r in records if "there is no change" not in r.captions]
        assert changed
        differing = sum(
            data.load_images(r, tmp_path)[0].tobytes()
            != data.load_images(r, tmp_path)[1].tobytes()
            for r in changed)
        # an event can occasionally be visually occluded; most must differ
        assert differing >= 0.8 * len(changed)

    def test_all_captions_covered_by_vocabulary(self, tmp_path):
        vocab = build_vocabulary()
        manifest = data.generate_dataset(50, seed=21, out_dir=tmp_path)
        for rec in data.load_manifest(manifest):
            for cap in rec.captions:
                vocab.encode(cap)  # OOVError would fail the test

    def test_duplicate_captions_mode(self, tmp_path):
        manifest = data.generate_dataset(4, seed=2, out_dir=tmp_path,
                                         duplicate_captions=True)
        for rec in data.load_manifest(manifest):
            assert len(set(rec.captions)) == 1

    def test_zero_pairs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            data.generate_dataset(0, seed=1, out_dir=tmp_path)

    @pytest.mark.parametrize("kwargs", [{"weight": 0}, {"image_size": 10},
                                        {"image_size": 0}, {"image_size": -5}],
                             ids=["weight-0", "size-10", "size-0", "size-minus-5"])
    def test_bad_argument_rejected_before_writing(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            data.generate_dataset(2, seed=1, out_dir=tmp_path / "out", **kwargs)
        assert not (tmp_path / "out").exists()

    def test_weight_and_split_round_trip(self, tmp_path):
        manifest = data.generate_dataset(3, seed=5, out_dir=tmp_path,
                                         split="val", weight=3)
        for rec in data.load_manifest(manifest):
            assert rec.split == "val" and rec.weight == 3


class TestTemplates:
    def test_five_surface_forms_per_event(self):
        for kind, tpls in data.CAPTION_TEMPLATES.items():
            assert len(tpls) == 5, kind
            assert len(set(tpls)) == 5, kind

    def test_captions_for_fills_placeholders(self):
        obj = data.SceneObject("tree", 8, 8, 4, 0.9)
        ev = data.ChangeEvent("add", obj, "top-left")
        caps = data.captions_for(ev)
        assert caps[0] == "a tree is built at the top-left"
        assert all("{" not in c for c in caps)

    def test_template_words_tokenizer_stable(self):
        for w in data.template_vocabulary_words():
            assert word_tokens(w) == [w]


class TestManifestErrors:
    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        good = json.dumps({"id": "x", "pathA": "a", "pathB": "b",
                           "captions": ["c"] * 5})
        p.write_text(good + "\nnot json\n")
        with pytest.raises(data.ManifestError, match=":2:"):
            data.load_manifest(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"id": "x", "pathA": "a", "captions": ["c"] * 5}) + "\n")
        with pytest.raises(data.ManifestError, match="pathB"):
            data.load_manifest(p)

    def test_wrong_caption_count(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"id": "x", "pathA": "a", "pathB": "b",
                                 "captions": ["c"] * 4}) + "\n")
        with pytest.raises(data.ManifestError, match="5 captions"):
            data.load_manifest(p)

    def test_bad_weight(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"id": "x", "pathA": "a", "pathB": "b",
                                 "captions": ["c"] * 5, "weight": 0}) + "\n")
        with pytest.raises(data.ManifestError, match="weight"):
            data.load_manifest(p)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_split_as_a_text_file_does(self, tmp_path, newline):
        p = tmp_path / "m.jsonl"
        caption = json.dumps({"id": "x", "pathA": "a", "pathB": "b",
                              "captions": ["c\u2028d"] * 5}, ensure_ascii=False)
        p.write_bytes(newline.join([caption, "", "not json", ""]).encode())
        with pytest.raises(data.ManifestError, match=":3:"):
            data.load_manifest(p)
        p.write_bytes((caption + newline).encode())
        assert data.load_manifest(p)[0].captions[0] == "c\u2028d"

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_bytes(b"\xff\n")
        with pytest.raises(data.ManifestError, match="m.jsonl: not UTF-8 text$"):
            data.load_manifest(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("\n" + json.dumps({"id": "x", "pathA": "a", "pathB": "b",
                                        "captions": ["c"] * 5}) + "\n\n")
        assert len(data.load_manifest(p)) == 1


class TestReadLines:
    @pytest.mark.parametrize("text,lines", [
        ("", []),
        ("\n", [""]),
        ("a\n\nb", ["a", "", "b"]),
        ("a\r\nb\rc\n", ["a", "b", "c"]),
        ("a\u2028b\x85c\x0cd\x1ce\n", ["a\u2028b\x85c\x0cd\x1ce"]),
    ])
    def test_split_at_newline_only(self, tmp_path, text, lines):
        p = tmp_path / "t.txt"
        p.write_bytes(text.encode())
        assert data.read_lines(p) == lines


def _records(n, captions=None, weight=1):
    caps = captions or [f"caption {i}" for i in range(5)]
    return [data.CaptionRecord(id=f"r{i}", pathA="a", pathB="b",
                               captions=list(caps), weight=weight)
            for i in range(n)]


class TestIteration:
    def test_flatten_distinct_captions(self):
        recs = _records(3)
        items = data.iterate(recs, data.IterationMode("flatten", seed=1), epoch=0)
        assert len(items) == 15
        per_rec = {}
        for rec, cap in items:
            per_rec.setdefault(rec.id, set()).add(cap)
        assert all(len(v) == 5 for v in per_rec.values())

    def test_flatten_dedupes_repeated_captions(self):
        recs = _records(2, captions=["same sentence"] * 5)
        items = data.iterate(recs, data.IterationMode("flatten", seed=1), epoch=0)
        assert len(items) == 2

    def test_weight_multiplies_stream(self):
        recs = _records(2, weight=3)
        items = data.iterate(recs, data.IterationMode("flatten", seed=1), epoch=0)
        assert len(items) == 30

    def test_random_choice_one_per_record(self):
        recs = _records(4)
        items = data.iterate(recs, data.IterationMode("random_choice", seed=1), epoch=0)
        assert len(items) == 4
        for rec, cap in items:
            assert cap in rec.captions

    def test_random_choice_deterministic_per_epoch(self):
        recs = _records(6)
        mode = data.IterationMode("random_choice", seed=9)
        a = data.iterate(recs, mode, epoch=2)
        b = data.iterate(recs, mode, epoch=2)
        assert [(r.id, c) for r, c in a] == [(r.id, c) for r, c in b]

    def test_random_choice_varies_across_epochs(self):
        recs = _records(8)
        mode = data.IterationMode("random_choice", seed=9)
        seqs = {tuple((r.id, c) for r, c in data.iterate(recs, mode, epoch=e))
                for e in range(4)}
        assert len(seqs) > 1

    def test_shuffle_changes_order_not_content(self):
        recs = _records(5)
        mode = data.IterationMode("flatten", seed=3)
        a = data.iterate(recs, mode, epoch=0)
        b = data.iterate(recs, mode, epoch=1)
        assert sorted((r.id, c) for r, c in a) == sorted((r.id, c) for r, c in b)
        assert [(r.id, c) for r, c in a] != [(r.id, c) for r, c in b]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            data.iterate([], data.IterationMode("flatten", seed=0), epoch=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            data.IterationMode("bogus", seed=0)
