"""Deterministic synthetic bi-temporal scenes with templated captions.

Each record renders a small scene (buildings, roads, trees) at time t1,
applies one change event (add / remove / widen_road / none), renders
t2, and emits five paraphrased reference captions. Images are written
in the CCT1 tensor format; the manifest is JSON-lines. Everything is a
pure function of the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import Rng
from .tensor_io import read_cct1, write_cct1

OBJECT_KINDS = ("building", "road", "tree")
CHANGE_KINDS = ("add", "remove", "widen_road", "none")
LOCATIONS = ("top-left", "top-right", "bottom-left", "bottom-right", "center")

# five surface forms per event kind; {obj}/{loc} filled from the event
CAPTION_TEMPLATES = {
    "add": (
        "a {obj} is built at the {loc}",
        "a new {obj} appears in the {loc}",
        "a {obj} has been added at the {loc}",
        "there is a new {obj} at the {loc}",
        "one {obj} shows up in the {loc}",
    ),
    "remove": (
        "the {obj} at the {loc} is removed",
        "a {obj} disappears from the {loc}",
        "the {obj} in the {loc} is gone",
        "a {obj} has been demolished at the {loc}",
        "the {loc} {obj} vanishes",
    ),
    "widen_road": (
        "the road at the {loc} is widened",
        "the {loc} road becomes wider",
        "the road in the {loc} has been expanded",
        "a wider road replaces the old one at the {loc}",
        "the narrow road at the {loc} grows wide",
    ),
    "none": (
        "there is no change",
        "nothing has changed",
        "the two scenes look the same",
        "no difference can be seen",
        "the scene remains the same",
    ),
}


@dataclass
class SceneObject:
    kind: str
    row: int
    col: int
    size: int
    intensity: float


@dataclass
class Scene:
    size: int
    background: float
    objects: list = field(default_factory=list)


@dataclass
class ChangeEvent:
    kind: str
    obj: SceneObject = None
    location: str = None


@dataclass
class CaptionRecord:
    id: str
    pathA: str
    pathB: str
    captions: list
    split: str = "train"
    source: str = "synthetic"
    weight: int = 1


class ManifestError(ValueError):
    pass


def _location_of(row, col, size):
    third = size / 3.0
    if third <= row < 2 * third and third <= col < 2 * third:
        return "center"
    vert = "top" if row < size / 2 else "bottom"
    horiz = "left" if col < size / 2 else "right"
    return f"{vert}-{horiz}"


def render(scene: Scene):
    img = np.full((scene.size, scene.size, 3), scene.background)
    yy, xx = np.mgrid[0:scene.size, 0:scene.size]
    for o in scene.objects:
        if o.kind == "building":
            h = o.size // 2
            img[max(o.row - h, 0):o.row + h + 1, max(o.col - h, 0):o.col + h + 1, 0] = o.intensity
            img[max(o.row - h, 0):o.row + h + 1, max(o.col - h, 0):o.col + h + 1, 1] = o.intensity * 0.6
        elif o.kind == "road":
            h = max(o.size // 4, 1)
            img[max(o.row - h, 0):o.row + h + 1, :, :] = o.intensity
        elif o.kind == "tree":
            disc = (yy - o.row) ** 2 + (xx - o.col) ** 2 <= (o.size // 2) ** 2
            img[disc, 1] = o.intensity
            img[disc, 0] = o.intensity * 0.3
            img[disc, 2] = o.intensity * 0.3
    return np.clip(img, 0.0, 1.0)


def _sample_object(r: Rng, size, kind=None):
    kind = kind or OBJECT_KINDS[r.randint(len(OBJECT_KINDS))]
    margin = 5
    sz = 4 + r.randint(4)
    row = margin + r.randint(size - 2 * margin)
    col = margin + r.randint(size - 2 * margin)
    intensity = 0.5 + 0.5 * r.uniform()
    return SceneObject(kind, row, col, sz, intensity)


def _sample_scene(r: Rng, size):
    scene = Scene(size=size, background=0.05 + 0.1 * r.uniform())
    for _ in range(1 + r.randint(3)):
        scene.objects.append(_sample_object(r, size))
    return scene


def _sample_event(r: Rng, scene: Scene):
    u = r.uniform()
    roads = [o for o in scene.objects if o.kind == "road"]
    if u < 0.25:
        return ChangeEvent("none")
    if u < 0.45 and scene.objects:
        victim = scene.objects[r.randint(len(scene.objects))]
        return ChangeEvent("remove", victim, _location_of(victim.row, victim.col, scene.size))
    if u < 0.60 and roads:
        road = roads[r.randint(len(roads))]
        return ChangeEvent("widen_road", road, _location_of(road.row, road.col, scene.size))
    obj = _sample_object(r, scene.size)
    return ChangeEvent("add", obj, _location_of(obj.row, obj.col, scene.size))


def apply_event(scene: Scene, event: ChangeEvent):
    after = Scene(scene.size, scene.background, list(scene.objects))
    if event.kind == "add":
        after.objects = after.objects + [event.obj]
    elif event.kind == "remove":
        after.objects = [o for o in after.objects if o is not event.obj]
    elif event.kind == "widen_road":
        widened = SceneObject("road", event.obj.row, event.obj.col,
                              event.obj.size * 3, event.obj.intensity)
        after.objects = [widened if o is event.obj else o for o in after.objects]
    return after


def captions_for(event: ChangeEvent):
    tpls = CAPTION_TEMPLATES[event.kind]
    if event.kind == "none":
        return list(tpls)
    obj = "road" if event.kind == "widen_road" else event.obj.kind
    return [t.format(obj=obj, loc=event.location) for t in tpls]


def template_vocabulary_words():
    words = set()
    for kind, tpls in CAPTION_TEMPLATES.items():
        for t in tpls:
            for obj in OBJECT_KINDS:
                for loc in LOCATIONS:
                    words.update(t.format(obj=obj, loc=loc).split())
    return sorted(words)


def generate_dataset(n_pairs, seed, out_dir, image_size=32, split="train",
                     weight=1, duplicate_captions=False):
    """Render ``n_pairs`` bi-temporal records under ``out_dir``.

    With ``duplicate_captions`` each record repeats one surface form
    five times (the overfit fixture: a deterministic image->caption
    mapping). Returns the manifest path.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if weight < 1:
        raise ValueError("weight must be >= 1")
    if image_size < 11:  # _sample_object keeps object centres 5 pixels inside
        raise ValueError("image_size must be >= 11")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root = Rng(seed)
    records = []
    for i in range(n_pairs):
        r = root.fork(f"pair{i}")
        scene = _sample_scene(r, image_size)
        event = _sample_event(r, scene)
        after = apply_event(scene, event)
        img_a = render(scene)
        img_b = render(after)
        path_a = out / f"pair{i:04d}_a.cct1"
        path_b = out / f"pair{i:04d}_b.cct1"
        write_cct1(path_a, img_a)
        write_cct1(path_b, img_b)
        caps = captions_for(event)
        if duplicate_captions:
            caps = [caps[0]] * 5
        records.append(CaptionRecord(
            id=f"pair{i:04d}", pathA=path_a.name, pathB=path_b.name,
            captions=caps, split=split, weight=weight))
    manifest = out / "manifest.jsonl"
    write_manifest(records, manifest)
    return manifest


def write_manifest(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "id": rec.id, "pathA": rec.pathA, "pathB": rec.pathB,
                "captions": rec.captions, "split": rec.split,
                "source": rec.source, "weight": rec.weight,
            }, sort_keys=True) + "\n")


def load_manifest(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ManifestError(f"{path}:{lineno}: expected a JSON object, "
                                    f"got {type(obj).__name__}")
            missing = {"id", "pathA", "pathB", "captions"} - obj.keys()
            if missing:
                raise ManifestError(f"{path}:{lineno}: missing fields {sorted(missing)}")
            for key in ("id", "pathA", "pathB", "split", "source"):
                if not isinstance(obj.get(key, ""), str):
                    raise ManifestError(f"{path}:{lineno}: {key} must be a string")
            caps = obj["captions"]
            if not (isinstance(caps, list) and len(caps) == 5
                    and all(isinstance(c, str) for c in caps)):
                raise ManifestError(f"{path}:{lineno}: captions: expected 5 captions, "
                                    "a list of strings")
            weight = obj.get("weight", 1)
            if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
                raise ManifestError(f"{path}:{lineno}: weight must be an integer >= 1")
            records.append(CaptionRecord(
                id=obj["id"], pathA=obj["pathA"], pathB=obj["pathB"],
                captions=caps, split=obj.get("split", "train"),
                source=obj.get("source", "synthetic"), weight=weight))
    return records


def load_images(record: CaptionRecord, base_dir):
    base = Path(base_dir)
    return read_cct1(base / record.pathA), read_cct1(base / record.pathB)


@dataclass
class IterationMode:
    mode: str = "flatten"  # or "random_choice"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("flatten", "random_choice"):
            raise ValueError(f"unknown iteration mode {self.mode!r}")


def iterate(records, mode: IterationMode, epoch):
    """Yield (record, caption) pairs for one epoch, deterministically.

    flatten: every distinct caption once per record, times weight.
    random_choice: one caption per record occurrence (times weight),
    drawn from (seed, epoch, record id). Both orders are shuffled
    deterministically per epoch.
    """
    if not records:
        raise ValueError("empty manifest")
    items = []
    for rec in records:
        for w in range(rec.weight):
            if mode.mode == "flatten":
                for cap in dict.fromkeys(rec.captions):
                    items.append((rec, cap))
            else:
                r = Rng(mode.seed).fork(f"choice/{epoch}/{rec.id}/{w}")
                items.append((rec, rec.captions[r.randint(len(rec.captions))]))
    shuffler = Rng(mode.seed).fork(f"order/{epoch}")
    return shuffler.shuffle(items)
