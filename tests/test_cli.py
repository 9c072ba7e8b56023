import json
import os
import shutil
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccx import cli, data, metrics, trainer, verify
from ccx.bridge import OOVError
from ccx.cli import EXIT_IO, EXIT_NUMERIC, EXIT_USAGE, main
from ccx.config import ConfigError
from ccx.metrics import CorpusTooSmall
from ccx.model import CaptionModel
from ccx.optim import AdamW
from ccx.tensor import ShapeError
from ccx.tensor_io import FormatError, read_cct1, write_cct1

DATA = Path(__file__).parent / "data"

# seeds outside Rng's [0, 2**64): negative, one past the top, far past it
BAD_SEEDS = ["-5", "18446744073709551616", str(10**30)]
SEED_ERROR = "seed must be an integer in [0, 2**64), got "

SMALL_CONFIG = """
encoder.image_size = 16
encoder.depth = 4
encoder.d_model = 8
encoder.heads = 2
encoder.taps = -3,-2
decoder.c_model = 12
decoder.depth = 2
decoder.heads = 2
decoder.max_len = 12
stage1.epochs = 1
stage2.epochs = 1
stage3.epochs = 1
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny dataset plus one completed training run."""
    root = tmp_path_factory.mktemp("cli")
    datadir = root / "data"
    assert main(["gen-data", "--pairs", "3", "--seed", "5",
                 "--out", str(datadir), "--image-size", "16"]) == 0
    cfg_path = root / "train.cfg"
    cfg_path.write_text(SMALL_CONFIG
                        + f"data.manifest = {datadir / 'manifest.jsonl'}\n"
                        + f"train.out = {root / 'run'}\n")
    assert main(["train", "--config", str(cfg_path)]) == 0
    return {"root": root, "config": cfg_path,
            "manifest": datadir / "manifest.jsonl",
            "checkpoint": root / "run" / "stage3"}


def _golden_files(tmp_path):
    hyps, refs = [], []
    for line in (DATA / "golden_corpus.jsonl").read_text().splitlines():
        o = json.loads(line)
        hyps.append(o["hyp"])
        refs.append(" ||| ".join(o["refs"]))
    h = tmp_path / "hyp.txt"
    r = tmp_path / "ref.txt"
    h.write_text("\n".join(hyps) + "\n")
    r.write_text("\n".join(refs) + "\n")
    return h, r


class TestExitCodes:
    """``main`` alone turns a handler's exception into one error line and
    the documented exit code; any other exception keeps its traceback."""

    @pytest.mark.parametrize("exc,code", [
        (ConfigError("bad config"), EXIT_USAGE),
        (CorpusTooSmall("too few entries"), EXIT_USAGE),
        (trainer.NumericAbort("non-finite loss"), EXIT_NUMERIC),
        (OSError("disk gone"), EXIT_IO),
        (FormatError("bad file"), EXIT_IO),
        (data.ManifestError("bad line"), EXIT_IO),
        (ShapeError("bad shape"), EXIT_IO),
        (OOVError("unknown word"), EXIT_IO),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_exception_family(self, tmp_path, monkeypatch, capsys, exc, code):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_config_init", handler)
        assert main(["config-init", "--out", str(tmp_path / "x.cfg")]) == code
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_other_exception_propagates(self, tmp_path, monkeypatch):
        def handler(args):
            raise TypeError("a bug")

        monkeypatch.setattr(cli, "cmd_config_init", handler)
        with pytest.raises(TypeError, match="a bug"):
            main(["config-init", "--out", str(tmp_path / "x.cfg")])


class TestGenData:
    def test_repeatable_checksum(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            assert main(["gen-data", "--pairs", "4", "--seed", "9",
                         "--out", str(tmp_path / name)]) == 0
            lines = capsys.readouterr().out.splitlines()
            outs.append(next(l.split()[-1] for l in lines
                             if l.startswith("manifest-sha256:")))
        assert outs[0] == outs[1]

    def test_zero_pairs_usage_error(self, tmp_path):
        assert main(["gen-data", "--pairs", "0",
                     "--out", str(tmp_path / "x")]) == EXIT_USAGE

    @pytest.mark.parametrize("args", [["--weight", "0"], ["--image-size", "0"],
                                      ["--image-size", "-5"], ["--image-size", "4"]],
                             ids=["weight-0", "size-0", "size-minus-5", "size-4"])
    def test_bad_argument_usage_error_before_writing(self, tmp_path, capsys, args):
        assert main(["gen-data", "--pairs", "2", "--out", str(tmp_path / "x"),
                     *args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_out_of_range_usage_error_before_writing(self, tmp_path, capsys, seed):
        assert main(["gen-data", "--pairs", "2", "--seed", seed,
                     "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {SEED_ERROR}{seed}\n"
        assert not (tmp_path / "x").exists()

    def test_largest_seed_generates(self, tmp_path):
        assert main(["gen-data", "--pairs", "1", "--seed", str(2**64 - 1),
                     "--out", str(tmp_path / "x"), "--image-size", "16"]) == 0


class TestConfigInit:
    def test_toy_profile_round_trips(self, tmp_path, capsys):
        from ccx import config as cfgmod
        out = tmp_path / "toy.cfg"
        assert main(["config-init", "--out", str(out)]) == 0
        cfg = cfgmod.load_config(out)
        assert cfg == dict(cfgmod.DEFAULTS)
        assert (cfg["stage1.mode"], cfg["stage2.mode"], cfg["stage3.mode"]) == \
            ("flatten", "flatten", "random_choice")

    def test_published_profile_differs(self, tmp_path):
        from ccx import config as cfgmod
        out = tmp_path / "published.cfg"
        assert main(["config-init", "--out", str(out), "--profile", "published"]) == 0
        cfg = cfgmod.load_config(out)
        assert cfg["stage2.batch_size"] == 256
        assert cfg["stage2.base_lr"] == pytest.approx(1e-5)

    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_commented_out_key_stays_commented_out(self, tmp_path, brk):
        """A config line ends at "\n" only, so a key after another line
        break character stays inside its comment."""
        from ccx import config as cfgmod
        path = tmp_path / "c.cfg"
        path.write_text(f"# was: {brk}train.seed = 5\n", encoding="utf-8")
        assert cfgmod.load_config(path) == dict(cfgmod.DEFAULTS)


class TestTrain:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == EXIT_USAGE

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.cfg"
        p.write_bytes("# caf\xe9\n".encode("latin-1"))
        assert main(["train", "--config", str(p)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {p}: not UTF-8 text\n"

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, seed):
        p = tmp_path / "bad.cfg"
        p.write_text(f"train.seed = {seed}\n")
        assert main(["train", "--config", str(p)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {p}: train.seed: {SEED_ERROR}{seed}\n"

    def test_unknown_key_is_usage_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus.key = 1\n")
        assert main(["train", "--config", str(p)]) == EXIT_USAGE

    def test_infinite_grad_clip_is_no_clipping(self, tmp_path):
        from ccx import config as cfgmod
        p = tmp_path / "c.cfg"
        p.write_text("train.grad_clip = inf\n")
        assert cfgmod.load_config(p)["train.grad_clip"] == float("inf")

    @pytest.mark.parametrize("line", ["encoder.depth = abc", "train.grad_clip = 1.0.0"])
    def test_bad_number_is_usage_error(self, tmp_path, capsys, line):
        p = tmp_path / "bad.cfg"
        p.write_text("# comment\n" + line + "\n")
        assert main(["train", "--config", str(p)]) == EXIT_USAGE
        err = capsys.readouterr().err
        key = line.split(" =")[0]
        assert err.startswith(f"error: {p}:2: {key}: expected ")
        assert err.count("\n") == 1

    def test_non_finite_checkpoint_is_numeric_error(self, trained, tmp_path, capsys,
                                                     monkeypatch):
        real = AdamW.step

        def step(self, lr_map):
            real(self, lr_map)
            self.v[self.params[0].name][...] = 1e39  # beyond float32

        monkeypatch.setattr(AdamW, "step", step)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(trained["config"].read_text() + f"train.out = {tmp_path / 'run'}\n")
        assert main(["train", "--config", str(cfg), "--stage", "1"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "non-finite" in captured.err
        assert captured.err.count("\n") == 1
        assert f"{tmp_path / 'run' / 'stage1' / 'optim'}{os.sep}" in captured.err

    def test_full_run_writes_stage_checkpoints(self, trained):
        for stage in (1, 2, 3):
            ck = trained["root"] / "run" / f"stage{stage}"
            assert (ck / "state").exists()
            assert (ck / "vocab.txt").exists()
            assert any((ck / "params").iterdir())


CORRUPT_STATES = pytest.mark.parametrize("text,message", [
    ("[]\n", "expected a JSON object, got list"),
    ('{"t": 3, "fingerprint": 5}\n', "fingerprint must be a string, got 5"),
    ('{"t": "3"}\n', "t must be an int, got '3'"),
    ('{"t": true}\n', "t must be an int, got True"),
    ("{not json\n", "not JSON: "),
], ids=["list", "fingerprint-int", "t-string", "t-bool", "not-json"])


def _corrupt_state(trained, tmp_path, text):
    """A copy of the trained checkpoint whose ``state`` file holds ``text``."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained["checkpoint"], ckpt)
    (ckpt / "state").write_text(text)
    return ckpt


# edits of a checkpoint's vocab.txt lines (header, then one token per line:
# line 6 holds token id 5, the first word after the specials)
VOCAB_EDITS = pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:6] + [lines[7], lines[6]] + lines[8:], "at id 5"),
    (lambda lines: ["garbage"], "missing CCVOCAB 1 header"),
    (lambda lines: lines[:-1], "at id {last}"),
    (lambda lines: lines + lines[-1:], "a token is listed twice"),
    (lambda lines: lines[:1] + lines[2:], "specials out of place"),
    (lambda lines: lines + [f"w{i}" for i in range(512)], "exceeds 512"),
], ids=["swapped", "garbage", "token-missing", "token-repeated", "special-missing",
        "too-many-tokens"])


def _vocab_copy(trained, tmp_path, edit):
    """A copy of the trained checkpoint whose ``vocab.txt`` lines pass
    through ``edit``, and the id of its last token."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained["checkpoint"], ckpt)
    lines = (ckpt / "vocab.txt").read_text().split("\n")[:-1]
    (ckpt / "vocab.txt").write_text("\n".join(edit(lines)) + "\n")
    return ckpt, len(lines) - 2


def _manifest_copy(trained, path, edit=lambda obj: obj, extra=""):
    """The CLI dataset's manifest, written to ``path`` with absolute image
    paths, each record's JSON object passed through ``edit``, then ``extra``."""
    lines = []
    for line in trained["manifest"].read_text().splitlines():
        obj = json.loads(line)
        for key in ("pathA", "pathB"):
            obj[key] = str(trained["manifest"].parent / obj[key])
        lines.append(json.dumps(edit(obj)))
    path.write_text("\n".join(lines) + "\n" + extra)
    return path


def _set_last_caption(text):
    def edit(obj):
        if obj["id"] == "pair0002":
            obj["captions"][0] = text
        return obj
    return edit


class TestTrainInputErrors:
    """Bad training input is one error line and exit 3, before any step."""

    def _train(self, trained, tmp_path, monkeypatch, capsys, lines, resume=None):
        steps = []
        monkeypatch.setattr(AdamW, "step", lambda self, lr_map: steps.append(lr_map))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(trained["config"].read_text()
                       + f"train.out = {tmp_path / 'run'}\n{lines}")
        code = main(["train", "--config", str(cfg),
                     *(["--resume", str(resume)] if resume else [])])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not steps
        return err

    @pytest.mark.parametrize("edit,extra,message", [
        (lambda obj: obj, "{not json\n", ":4: malformed JSON"),
        (_set_last_caption("a zebra appeared"), "", "out-of-vocabulary word 'zebra'"),
        (_set_last_caption("a road is built " * 4), "", "17 tokens with <eos>, "
                                                         "over decoder.max_len 12"),
        (lambda obj: {**obj, "split": "test"}, "", "no records with split 'train'"),
        (lambda obj: obj, "[1, 2]\n", ":4: expected a JSON object, got list"),
        (lambda obj: {**obj, "captions": [1, 2, 3, 4, 5]}, "",
         ":1: captions: expected 5 captions, a list of strings"),
        (lambda obj: {**obj, "captions": "abcde"}, "",
         ":1: captions: expected 5 captions, a list of strings"),
        (lambda obj: {**obj, "pathA": 5}, "", ":1: pathA must be a string"),
        (lambda obj: {**obj, "id": None}, "", ":1: id must be a string"),
        (lambda obj: {**obj, "source": ["x"]}, "", ":1: source must be a string"),
        (lambda obj: {**obj, "weight": "x"}, "", ":1: weight must be an integer >= 1"),
        (lambda obj: {**obj, "weight": 1.5}, "", ":1: weight must be an integer >= 1"),
        (lambda obj: {**obj, "id": "pair0000"}, "", ":2: id 'pair0000' repeats line 1"),
    ], ids=["malformed-line", "oov-word", "caption-too-long", "no-train-records",
            "array-line", "caption-numbers", "captions-string", "pathA-number",
            "id-null", "source-list", "weight-string", "weight-float", "repeated-id"])
    def test_bad_manifest(self, trained, tmp_path, monkeypatch, capsys, edit, extra, message):
        manifest = _manifest_copy(trained, tmp_path / "manifest.jsonl", edit, extra)
        err = self._train(trained, tmp_path, monkeypatch, capsys,
                          f"data.manifest = {manifest}\n")
        assert message in err

    def test_resume_shape_mismatch(self, trained, tmp_path, monkeypatch, capsys):
        err = self._train(trained, tmp_path, monkeypatch, capsys, "decoder.c_model = 16\n",
                          resume=trained["checkpoint"])
        assert err.startswith("error: checkpoint shape mismatch")

    def test_resume_model_config_mismatch(self, trained, tmp_path, monkeypatch, capsys):
        err = self._train(trained, tmp_path, monkeypatch, capsys, "decoder.heads = 4\n",
                          resume=trained["checkpoint"])
        assert err == (f"error: {trained['checkpoint']}: checkpoint was trained "
                       "with decoder.heads=2 (config: 4)\n")

    @CORRUPT_STATES
    def test_resume_corrupt_state(self, trained, tmp_path, monkeypatch, capsys, text, message):
        ckpt = _corrupt_state(trained, tmp_path, text)
        err = self._train(trained, tmp_path, monkeypatch, capsys, "", resume=ckpt)
        assert err.startswith(f"error: {ckpt / 'state'}: {message}")

    @VOCAB_EDITS
    def test_resume_vocabulary_mismatch(self, trained, tmp_path, monkeypatch, capsys,
                                        edit, message):
        ckpt, last = _vocab_copy(trained, tmp_path, edit)
        err = self._train(trained, tmp_path, monkeypatch, capsys, "", resume=ckpt)
        assert err.startswith(f"error: {ckpt / 'vocab.txt'}: ")
        assert message.format(last=last) in err

    def test_resume_malformed_cct1(self, trained, tmp_path, monkeypatch, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained["checkpoint"], ckpt)
        bad = sorted((ckpt / "params").iterdir())[0]
        bad.write_bytes(bad.read_bytes()[:-4])
        err = self._train(trained, tmp_path, monkeypatch, capsys, "", resume=ckpt)
        assert err.startswith(f"error: {bad}: payload size")


def _poison_first_value(path):
    """Overwrite the first float32 value of the CCT1 file ``path`` with NaN."""
    blob = bytearray(path.read_bytes())
    start = 5 + 4 * blob[4]
    blob[start:start + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))


class TestNonFiniteInputs:
    """A NaN in a checkpoint or an image is one error line naming the file,
    and exit 3, before any training step or caption."""

    def _poisoned(self, trained, tmp_path, where):
        """(config, checkpoint, manifest, poisoned file) with one NaN value."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained["checkpoint"], ckpt)
        first = data.load_manifest(trained["manifest"])[0]
        if where == "checkpoint":
            bad = ckpt / "params" / "decoder.head.w.cct1"
        else:
            bad = tmp_path / "pixel.cct1"
            shutil.copy(trained["manifest"].parent / first.pathA, bad)

        def edit(obj):  # the poisoned image replaces the first record's image A
            image = where == "image" and obj["id"] == first.id
            return {**obj, "pathA": str(bad)} if image else obj

        manifest = _manifest_copy(trained, tmp_path / "manifest.jsonl", edit)
        _poison_first_value(bad)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(trained["config"].read_text() + f"train.out = {tmp_path / 'run'}\n"
                       + f"data.manifest = {manifest}\n")
        return cfg, ckpt, manifest, bad

    @pytest.mark.parametrize("where", ["checkpoint", "image"])
    @pytest.mark.parametrize("command", ["caption", "eval-metrics", "train"])
    def test_nan_value_is_io_error(self, trained, tmp_path, capsys, monkeypatch,
                                   command, where):
        cfg, ckpt, manifest, bad = self._poisoned(trained, tmp_path, where)

        def reached(*args):
            raise AssertionError("a step or a caption ran on a non-finite input")

        monkeypatch.setattr(AdamW, "step", reached)
        monkeypatch.setattr(CaptionModel, "generate", reached)
        args = {"caption": ["--checkpoint", str(ckpt), "--manifest", str(manifest),
                            "--pair", "pair0000"],
                "eval-metrics": ["--checkpoint", str(ckpt), "--manifest", str(manifest)],
                "train": ["--resume", str(ckpt)] if where == "checkpoint" else []}[command]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *args]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {bad}: non-finite value in float32 payload\n"


class TestCaption:
    def test_deterministic_output(self, trained, capsys):
        outs = []
        for _ in range(2):
            assert main(["caption", "--checkpoint", str(trained["checkpoint"]),
                         "--config", str(trained["config"]),
                         "--manifest", str(trained["manifest"]),
                         "--pair", "pair0000"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_unknown_pair_usage_error(self, trained, capsys):
        assert main(["caption", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(trained["config"]),
                     "--manifest", str(trained["manifest"]),
                     "--pair", "nope"]) == EXIT_USAGE
        capsys.readouterr()

    def test_reads_parameters_only(self, trained, capsys, monkeypatch):
        reads = []
        real = trainer.read_cct1
        monkeypatch.setattr(trainer, "read_cct1",
                            lambda path: reads.append(path) or real(path))
        assert main(["caption", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(trained["config"]),
                     "--manifest", str(trained["manifest"]),
                     "--pair", "pair0000"]) == 0
        capsys.readouterr()
        assert sorted(reads) == sorted((trained["checkpoint"] / "params").iterdir())

    @pytest.mark.parametrize("command", [["caption", "--pair", "pair0000"], ["eval-metrics"]])
    def test_shape_mismatch_io_error(self, trained, tmp_path, capsys, command):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(trained["config"].read_text() + "decoder.c_model = 16\n")
        assert main([command[0], "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(cfg), "--manifest", str(trained["manifest"]),
                     *command[1:]]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "shape" in captured.err
        assert captured.err.count("\n") == 1

    def test_shape_mismatch_names_file_and_both_shapes(self, trained, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(trained["config"].read_text() + "encoder.d_model = 16\n")
        assert main(["caption", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(cfg), "--manifest", str(trained["manifest"]),
                     "--pair", "pair0000"]) == EXIT_IO
        file = trained["checkpoint"] / "params" / "encoder.patch.w.cct1"
        assert capsys.readouterr().err == (
            f"error: checkpoint shape mismatch: {file} holds shape (48, 8), "
            "the model's encoder.patch.w has (48, 16)\n")

    @pytest.mark.parametrize("command", [["caption", "--pair", "pair0000"], ["eval-metrics"]])
    def test_model_config_mismatch_io_error(self, trained, tmp_path, capsys, command):
        cfg = tmp_path / "heads.cfg"
        cfg.write_text(trained["config"].read_text() + "decoder.heads = 4\n")
        assert main([command[0], "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(cfg), "--manifest", str(trained["manifest"]),
                     *command[1:]]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == (f"error: {trained['checkpoint']}: checkpoint was trained "
                       "with decoder.heads=2 (config: 4)\n")

    def test_checkpoint_without_fingerprint_loads(self, trained, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained["checkpoint"], ckpt)
        state = json.loads((ckpt / "state").read_text())
        del state["fingerprint"]
        (ckpt / "state").write_text(json.dumps(state))
        outs = []
        for path in (trained["checkpoint"], ckpt):
            assert main(["caption", "--checkpoint", str(path),
                         "--config", str(trained["config"]),
                         "--manifest", str(trained["manifest"]),
                         "--pair", "pair0000"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @VOCAB_EDITS
    @pytest.mark.parametrize("command", [["caption", "--pair", "pair0000"], ["eval-metrics"]])
    def test_vocabulary_mismatch_io_error(self, trained, tmp_path, capsys, command,
                                          edit, message):
        """Token ids index the embedding and output rows: a checkpoint
        whose vocabulary is not the model's does not decode."""
        ckpt, last = _vocab_copy(trained, tmp_path, edit)
        assert main([command[0], "--checkpoint", str(ckpt),
                     "--config", str(trained["config"]), "--manifest", str(trained["manifest"]),
                     *command[1:]]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt / 'vocab.txt'}: ")
        assert message.format(last=last) in err and err.count("\n") == 1
        assert capsys.readouterr().out == ""

    def test_checkpoint_without_vocabulary_loads(self, trained, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(trained["checkpoint"], ckpt)
        (ckpt / "vocab.txt").unlink()
        outs = []
        for path in (trained["checkpoint"], ckpt):
            assert main(["caption", "--checkpoint", str(path),
                         "--config", str(trained["config"]),
                         "--manifest", str(trained["manifest"]),
                         "--pair", "pair0000"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @CORRUPT_STATES
    @pytest.mark.parametrize("command", [["caption", "--pair", "pair0000"], ["eval-metrics"]])
    def test_corrupt_state_io_error(self, trained, tmp_path, capsys, command, text, message):
        ckpt = _corrupt_state(trained, tmp_path, text)
        assert main([command[0], "--checkpoint", str(ckpt),
                     "--config", str(trained["config"]), "--manifest", str(trained["manifest"]),
                     *command[1:]]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt / 'state'}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["caption", "--pair", "pair0000"], ["eval-metrics"]])
    def test_missing_config_is_usage_error(self, trained, tmp_path, capsys, command):
        cfg = tmp_path / "nope.cfg"
        assert main([command[0], "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(cfg), "--manifest", str(trained["manifest"]),
                     *command[1:]]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}: No such file or directory\n"

    def _caption_with_new_images(self, trained, tmp_path, image_size, drop_image=False):
        datadir = tmp_path / "data"
        assert main(["gen-data", "--pairs", "1", "--seed", "8", "--out", str(datadir),
                     "--image-size", str(image_size)]) == 0
        manifest = datadir / "manifest.jsonl"
        if drop_image:
            (datadir / data.load_manifest(manifest)[0].pathA).unlink()
        return main(["caption", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(trained["config"]), "--manifest", str(manifest),
                     "--pair", "pair0000"])

    def test_image_size_mismatch_io_error(self, trained, tmp_path, capsys):
        assert self._caption_with_new_images(trained, tmp_path, 32) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: image shape (32, 32, 3)")
        assert err.count("\n") == 1

    def test_missing_image_io_error(self, trained, tmp_path, capsys):
        assert self._caption_with_new_images(trained, tmp_path, 16, drop_image=True) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["caption", "--pair", "pair0000"], ["eval-metrics"]])
    def test_bad_number_config_is_usage_error(self, trained, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("encoder.depth = abc\n")
        assert main([command[0], "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(cfg), "--manifest", str(trained["manifest"]),
                     *command[1:]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:1: encoder.depth: expected ")
        assert err.count("\n") == 1


class TestModelConfigErrors:
    """Values each key accepts alone but the model or the trainer rejects
    are usage errors when the config is read, before any work starts."""

    @pytest.mark.parametrize("command", ["train", "caption", "eval-metrics"])
    @pytest.mark.parametrize("lines,key", [
        ("decoder.c_model = 10\ndecoder.heads = 4", "decoder"),
        ("encoder.taps = a,b", "encoder"),
        ("encoder.depth = 3\nencoder.taps = -2,3", "encoder"),
        ("encoder.taps = -2,-2", "encoder"),
        ("enhancer.heads = 3", "enhancer"),
        ("stage3.mode = sideways", "stage3.mode"),
        ("encoder.heads = 0", "encoder"),
        ("enhancer.heads = 0", "enhancer"),
        ("decoder.heads = 0", "decoder"),
        ("encoder.patch_size = 0", "encoder"),
        ("encoder.patch_size = -4", "encoder"),
        ("encoder.image_size = 0", "encoder"),
        ("encoder.d_model = 0", "encoder"),
        ("decoder.c_model = 0", "decoder"),
        ("decoder.max_len = 0", "decoder"),
        ("decoder.depth = -1", "decoder"),
        ("stage1.batch_size = 0", "stage1.batch_size"),
        ("stage1.epochs = -1", "stage1.epochs"),
        ("stage1.base_lr = -1", "stage1.base_lr"),
        ("stage2.base_lr = nan", "stage2.base_lr"),
        ("train.grad_clip = -1", "train.grad_clip"),
        ("train.grad_clip = 0", "train.grad_clip"),
        ("train.weight_decay = -0.01", "train.weight_decay"),
        ("train.encoder_lr_ratio = -0.2", "train.encoder_lr_ratio"),
        ("stage1.base_lr = inf", "stage1.base_lr"),
        ("train.weight_decay = inf", "train.weight_decay"),
        ("train.encoder_lr_ratio = inf", "train.encoder_lr_ratio"),
    ], ids=["decoder-heads", "encoder-taps", "encoder-tap-past-depth",
            "encoder-tap-repeated", "enhancer-heads", "stage3-mode",
            "encoder-heads-0", "enhancer-heads-0", "decoder-heads-0", "patch-size-0",
            "patch-size-negative", "image-size-0", "encoder-width-0", "decoder-width-0",
            "max-len-0", "decoder-depth-negative", "batch-size-0", "epochs-negative",
            "base-lr-negative", "base-lr-nan", "grad-clip-negative", "grad-clip-0",
            "weight-decay-negative", "encoder-lr-ratio-negative", "base-lr-inf",
            "weight-decay-inf", "encoder-lr-ratio-inf"])
    def test_usage_error(self, trained, tmp_path, capsys, command, lines, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(trained["config"].read_text()
                       + f"train.out = {tmp_path / 'run'}\n{lines}\n")
        inputs = ["--checkpoint", str(trained["checkpoint"]),
                  "--manifest", str(trained["manifest"])]
        extra = {"train": [], "caption": [*inputs, "--pair", "pair0000"],
                 "eval-metrics": inputs}[command]
        assert main([command, "--config", str(cfg), *extra]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {key}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()


class TestEvalMetrics:
    def test_golden_fixture_json(self, tmp_path, capsys):
        h, r = _golden_files(tmp_path)
        out = tmp_path / "report.json"
        assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r),
                     "--json-out", str(out)]) == 0
        capsys.readouterr()
        got = json.loads(out.read_text())
        gold = json.loads((DATA / "golden_metrics.json").read_text())
        for key, val in gold.items():
            assert got[key] == pytest.approx(val, abs=1e-9), key

    def test_json_out_missing_directory_io_error(self, tmp_path, capsys):
        h, r = _golden_files(tmp_path)
        out = tmp_path / "missing" / "report.json"
        assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r),
                     "--json-out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert err.count("\n") == 1

    def test_identical_files_score_perfect(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        r = tmp_path / "r.txt"
        h.write_text("a road is built\nthe tree is gone\n")
        r.write_text("a road is built\nthe tree is gone\n")
        out = tmp_path / "report.json"
        assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r),
                     "--json-out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["bleu4"] == pytest.approx(100.0)

    def test_lines_split_at_newline_only(self, tmp_path, capsys):
        """U+2028, U+0085 and the other breaks str.splitlines knows stay in
        their line, so each hypothesis keeps its own references."""
        def report(hyp, ref):
            h, r, out = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "report.json"
            h.write_text(hyp, encoding="utf-8")
            r.write_text(ref, encoding="utf-8")
            assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r),
                         "--json-out", str(out)]) == 0
            return json.loads(out.read_text())

        hyps = "a road{}is built\n\nthe tree is gone\n"  # the blank line is an empty hypothesis
        refs = "a road is built ||| a new road\nno change\nthe tree{}is gone\n"
        want = report(hyps.format(" "), refs.format(" "))
        got = report(hyps.format("\u2028"), refs.format("\x85"))
        assert got == want

    @pytest.mark.parametrize("line", ["a b |||", "||| a b", "a ||| ||| b", "x ||| ",
                                      "|||", "a |||   ||| b", "a ||||||b"])
    def test_empty_reference_io_error(self, tmp_path, capsys, line):
        """An empty or blank piece between separators, or a separator at
        either end, names its line: '|||' is never scored as a word."""
        h, r = tmp_path / "h.txt", tmp_path / "r.txt"
        h.write_text("a b\na b\n")
        r.write_text(f"a b ||| b a\n{line}\n")
        assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {r}:2: empty reference (references are separated by '|||')\n")

    def test_separator_needs_no_spaces(self, tmp_path, capsys):
        def report(refs):
            h, r, out = tmp_path / "h.txt", tmp_path / "r.txt", tmp_path / "report.json"
            h.write_text("a road is built\nthe tree is gone\n")
            r.write_text(refs)
            assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r),
                         "--json-out", str(out)]) == 0
            return json.loads(out.read_text())

        want = report("a road is built ||| a new road\nthe tree is gone ||| trees\n")
        assert report("a road is built|||a new road\nthe tree is gone   |||trees\n") == want

    def test_line_count_mismatch_io_error(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        r = tmp_path / "r.txt"
        h.write_text("a\nb\n")
        r.write_text("a\n")
        assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r)]) == EXIT_IO
        capsys.readouterr()

    @pytest.mark.parametrize("lines", [0, 1])
    def test_corpus_too_small_is_usage_error(self, tmp_path, capsys, lines):
        h = tmp_path / "h.txt"
        r = tmp_path / "r.txt"
        h.write_text("a road is built\n" * lines)
        r.write_text("a road is built\n" * lines)
        assert main(["eval-metrics", "--hyp", str(h), "--ref", str(r)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: scoring needs at least 2 entries; the corpus has {lines}\n"

    @pytest.mark.parametrize("split", [None, "test"])
    def test_one_record_split_is_usage_error(self, trained, tmp_path, capsys, monkeypatch,
                                             split):
        base = trained["manifest"].parent
        records = data.load_manifest(trained["manifest"])
        for rec in records:
            rec.pathA, rec.pathB = str(base / rec.pathA), str(base / rec.pathB)
        records[0].split = "test"
        manifest = tmp_path / "manifest.jsonl"
        data.write_manifest(records if split else records[:1], manifest)

        def generate(*args):
            raise AssertionError("captioned before the split size was checked")

        monkeypatch.setattr(CaptionModel, "generate", generate)
        assert main(["eval-metrics", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(trained["config"]), "--manifest", str(manifest),
                     *(["--split", split] if split else [])]) == EXIT_USAGE
        err = capsys.readouterr().err
        what = "the manifest" if split is None else "split 'test'"
        assert err == f"error: scoring needs at least 2 entries; {what} has 1\n"

    def test_mixed_image_sizes_io_error(self, trained, tmp_path, capsys):
        big = tmp_path / "big"
        assert main(["gen-data", "--pairs", "1", "--seed", "6", "--out", str(big),
                     "--image-size", "32"]) == 0
        records = data.load_manifest(trained["manifest"])[:2] + data.load_manifest(
            big / "manifest.jsonl")
        records[2].id = "big0000"
        for rec, base in zip(records, [trained["manifest"].parent] * 2 + [big]):
            rec.pathA, rec.pathB = str(base / rec.pathA), str(base / rec.pathB)
        manifest = tmp_path / "manifest.jsonl"
        data.write_manifest(records, manifest)
        capsys.readouterr()
        assert main(["eval-metrics", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(trained["config"]),
                     "--manifest", str(manifest)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: image shape (32, 32, 3) of record big0000 (")
        assert err.count("\n") == 1

    def test_missing_inputs_usage_error(self, capsys):
        assert main(["eval-metrics"]) == EXIT_USAGE
        capsys.readouterr()

    def test_checkpoint_mode(self, trained, capsys):
        assert main(["eval-metrics", "--checkpoint", str(trained["checkpoint"]),
                     "--config", str(trained["config"]),
                     "--manifest", str(trained["manifest"])]) == 0
        out = capsys.readouterr().out
        assert "bleu4" in out and "cider_d" in out


def _text_lines(text):
    """The lines of a text file: "\r\n" and "\r" read as "\n", and a final
    newline ends the last line."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n") if text else []


# pieces that the line and reference rules turn on, mixed with any character
_TEXT = st.lists(st.one_of(
    st.sampled_from(["a", "b", " ", "\n", "\r", "\r\n", "|", "|||", " ||| ", ".", "\t",
                     "\x85", "\u2028", "\x00"]),
    st.characters(codec="utf-8")), max_size=24).map("".join)


@pytest.fixture
def scored(monkeypatch):
    """The corpora that ``metrics.evaluate`` was called on."""
    corpora = []
    evaluate = metrics.evaluate
    monkeypatch.setattr(metrics, "evaluate", lambda c: corpora.append(c) or evaluate(c))
    return corpora


class TestTextInputFuzz:
    """Any text in the --hyp and --ref files gives one entry per line, one
    error line with exit 3, or exit 2 for fewer than 2 entries; never a
    traceback."""

    @settings(max_examples=150, deadline=timedelta(seconds=2),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hyp=_TEXT, ref=_TEXT)
    def test_any_text(self, tmp_path, capsys, scored, hyp, ref):
        h, r = tmp_path / "h.txt", tmp_path / "r.txt"
        h.write_bytes(hyp.encode())
        r.write_bytes(ref.encode())
        scored.clear()
        code = main(["eval-metrics", "--hyp", str(h), "--ref", str(r)])
        err = capsys.readouterr().err
        hyps, refs = _text_lines(hyp), _text_lines(ref)
        if code == 0:
            [corpus] = scored
            assert len(corpus) == len(hyps) == len(refs)
            for entry, line in zip(corpus, refs):
                assert len(entry.references) == len(line.split("|||"))
                assert not any("|||" in w for ref_words in entry.references for w in ref_words)
            assert err == ""
        else:
            assert code in (EXIT_USAGE, EXIT_IO)
            assert err.startswith("error: ") and err.count("\n") == 1
            if code == EXIT_USAGE:
                assert len(hyps) == len(refs) < 2


class TestGradcheck:
    def test_enhancer_suite_passes(self, capsys):
        assert main(["gradcheck", "--module", "enhancer"]) == 0
        assert "enhancer" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "0", "inf"])
    def test_bad_tolerance_is_usage_error(self, monkeypatch, capsys, tolerance):
        def check_module(*args, **kwargs):
            raise AssertionError("a check ran under a bad tolerance")

        monkeypatch.setattr(verify, "check_module", check_module)
        assert main(["gradcheck", "--module", "bridge", "--tolerance", tolerance]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: --tolerance must be a positive finite number, got {float(tolerance)}\n")

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_out_of_range_is_usage_error(self, monkeypatch, capsys, seed):
        def check_module(*args, **kwargs):
            raise AssertionError("a check ran under a bad seed")

        monkeypatch.setattr(verify, "check_module", check_module)
        assert main(["gradcheck", "--module", "bridge", "--seed", seed]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --seed: {SEED_ERROR}{seed}\n"


def _main_on_manifest(trained, tmp_path, command, manifest):
    """``main`` running ``command`` on ``manifest`` with the trained config
    (and, but for ``train``, the trained checkpoint)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(trained["config"].read_text() + f"train.out = {tmp_path / 'run'}\n"
                   + f"data.manifest = {manifest}\n")
    ckpt = ["--checkpoint", str(trained["checkpoint"]), "--manifest", str(manifest)]
    args = {"caption": [*ckpt, "--pair", "pair0000"], "eval-metrics": ckpt, "train": []}
    return main([command, "--config", str(cfg), *args[command]])


def _not_utf8(path):
    path.write_bytes(b"\xff" + "a road is built\n".encode())
    return path


class TestNotUtf8:
    """A text input that is not UTF-8 is one error line naming the file, and exit 3."""

    @pytest.mark.parametrize("bad", ["--hyp", "--ref"])
    def test_hyp_or_ref(self, tmp_path, capsys, bad):
        files = dict(zip(("--hyp", "--ref"), _golden_files(tmp_path)))
        files[bad] = _not_utf8(files[bad])
        assert main(["eval-metrics", *(str(v) for kv in files.items() for v in kv)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {files[bad]}: not UTF-8 text\n"

    @pytest.mark.parametrize("command", ["caption", "eval-metrics", "train"])
    def test_manifest(self, trained, tmp_path, capsys, command):
        manifest = _not_utf8(tmp_path / "manifest.jsonl")
        assert _main_on_manifest(trained, tmp_path, command, manifest) == EXIT_IO
        assert capsys.readouterr().err == f"error: {manifest}: not UTF-8 text\n"


class TestImageShapes:
    """Every image a command reads must be one [S, S, 3] image, S the
    config's ``encoder.image_size``: anything else is one error line
    naming the record and its file, and exit 3, before any step or caption."""

    def _run(self, trained, tmp_path, monkeypatch, capsys, command, manifest):
        def reached(*args):
            raise AssertionError("a step or a caption ran on a bad image")

        monkeypatch.setattr(AdamW, "step", reached)
        monkeypatch.setattr(CaptionModel, "generate", reached)
        capsys.readouterr()
        assert _main_on_manifest(trained, tmp_path, command, manifest) == EXIT_IO
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["caption", "eval-metrics", "train"])
    def test_stacked_pair_images(self, trained, tmp_path, monkeypatch, capsys, command):
        def stack(obj):  # each image stored as [2, H, W, 3]
            for key in ("pathA", "pathB"):
                path = tmp_path / Path(obj[key]).name
                image = read_cct1(obj[key])
                write_cct1(path, np.stack([image, image]))
                obj[key] = str(path)
            return obj

        manifest = _manifest_copy(trained, tmp_path / "manifest.jsonl", stack)
        err = self._run(trained, tmp_path, monkeypatch, capsys, command, manifest)
        assert err == (f"error: image shape (2, 16, 16, 3) of record pair0000 "
                       f"({tmp_path / 'pair0000_a.cct1'}) does not match config (16, 16, 3)\n")

    def test_train_on_larger_images(self, trained, tmp_path, monkeypatch, capsys):
        datadir = tmp_path / "data"
        assert main(["gen-data", "--pairs", "2", "--seed", "8", "--out", str(datadir),
                     "--image-size", "32"]) == 0
        err = self._run(trained, tmp_path, monkeypatch, capsys, "train",
                        datadir / "manifest.jsonl")
        assert err == (f"error: image shape (32, 32, 3) of record pair0000 "
                       f"({datadir / 'pair0000_a.cct1'}) does not match config (16, 16, 3)\n")
