"""Values that hold numpy arrays compare and hash by identity, so `==`
between two of them, or between records that hold them, returns a bool and
`hash()` works, instead of numpy raising on an array truth value."""

import ast
from pathlib import Path

import numpy as np
import pytest

from scatterkit.annotio import InstanceAnnotation, parse_annotation, parse_predictions
from scatterkit.ascmodel import Scatterer, SeparablePsf, SynthChip, lay_out_regions
from scatterkit.decouple import ScatterRegion
from scatterkit.metrics import Detection, OrientedBox
from scatterkit.raster import AmplitudeRaster, ComplexRaster, WindowRaster
from scatterkit.supervision import FeatureGrid, ScatterMap

SRC = Path(__file__).resolve().parent.parent / "src" / "scatterkit"
EVAL_RUN = Path(__file__).resolve().parent / "data" / "eval_default"

_REGION = ScatterRegion((2, 3), np.array([1, 4]), np.array([0.5, 1.0]))
ARRAY_TYPES = {
    "ComplexRaster": lambda: ComplexRaster(np.ones((2, 3), dtype=np.complex128)),
    "AmplitudeRaster": lambda: AmplitudeRaster(np.ones((2, 3))),
    "WindowRaster": lambda: WindowRaster(np.array([0.5, 1.0, 0.5]), np.array([1.0, 0.5])),
    "ScatterMap": lambda: ScatterMap(np.full((2, 3), 0.5)),
    "FeatureGrid": lambda: FeatureGrid(np.ones((2, 2, 3))),
    "SeparablePsf": lambda: SeparablePsf(np.array([1.0, 0.5]), np.array([0.25, 1.0, 0.5])),
    "ScatterRegion": lambda: ScatterRegion((2, 3), np.array([1, 4]), np.array([0.5, 1.0])),
    "OrientedBox": lambda: OrientedBox.from_rect(0, 0, 4, 2),
    "LaidOutRegion": lambda: lay_out_regions([_REGION])[0],  # twins: two layouts of one region
}


def _holds_ndarray(annotation: ast.expr) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "ndarray"
               and isinstance(node.value, ast.Name) and node.value.id == "np"
               for node in ast.walk(annotation))


def _dataclass_eq(decorator: ast.expr) -> bool | None:
    """What `eq` a `@dataclass` decorator gives, or None for another
    decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    name = call.func if call else decorator
    if not (isinstance(name, ast.Name) and name.id == "dataclass"):
        return None
    for kw in call.keywords if call else ():
        if kw.arg == "eq":
            return not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
    return True


def _base_names(node: ast.ClassDef) -> set[str]:
    return {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}


def test_every_array_holding_dataclass_declares_eq_false():
    """A dataclass with a field annotated `np.ndarray`, or with a base that
    holds one, must pass `eq=False`: the generated `__eq__` compares field
    tuples, so two distinct instances raise on the arrays' truth value, and
    a frozen one's `__hash__` hashes an array."""
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            eqs = [eq for eq in map(_dataclass_eq, node.decorator_list) if eq is not None]
            if eqs:
                classes[node.name] = (f"{path.name}:{node.lineno}", node, eqs[0])
    holders = {name for name, (_, node, _) in classes.items()
               if any(isinstance(s, ast.AnnAssign) and _holds_ndarray(s.annotation)
                      for s in node.body)}
    grown = True
    while grown:  # a dataclass whose base holds an array inherits the field
        heirs = {name for name, (_, node, _) in classes.items()
                 if _base_names(node) & holders}
        grown = not heirs <= holders
        holders |= heirs
    raising = [f"{where} {name}" for name, (where, _, eq) in classes.items()
               if name in holders and eq]
    assert raising == []
    assert holders == set(ARRAY_TYPES)


def _array_named_tuples(source: str) -> list[str]:
    """The `NamedTuple` classes of `source` with a field annotated
    `np.ndarray`: a tuple compares its fields, so `==` raises on them."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                    for base in node.bases)
            and any(isinstance(s, ast.AnnAssign) and _holds_ndarray(s.annotation)
                    for s in node.body)]


def test_no_named_tuple_holds_an_array():
    assert _array_named_tuples("class A(typing.NamedTuple):\n    x: np.ndarray\n"
                               "class B(NamedTuple):\n    y: int\n"
                               "class C(NamedTuple):\n    z: tuple[np.ndarray, int]\n") \
        == ["A", "C"]
    assert [(path.name, name) for path in sorted(SRC.glob("*.py"))
            for name in _array_named_tuples(path.read_text())] == []


@pytest.mark.parametrize("name", sorted(ARRAY_TYPES))
def test_a_distinct_twin_compares_unequal_and_hashes(name):
    a, b = ARRAY_TYPES[name](), ARRAY_TYPES[name]()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
    assert hash(a) == hash(a) and len({a, b}) == 2


def _records(box: OrientedBox, image: ComplexRaster) -> list:
    return [Detection(box, 0.5, 1), InstanceAnnotation(box, "tank", 1),
            SynthChip(image, (Scatterer(1.0, 2.0, 1.0),), box)]


def test_records_holding_arrays_compare_by_field_and_hash():
    """`Detection`, `InstanceAnnotation` and `SynthChip` compare their fields,
    an array-holding field by identity: equal on one box and image, unequal
    on a twin box, and hashable either way."""
    box, twin_box = OrientedBox.from_rect(0, 0, 4, 2), OrientedBox.from_rect(0, 0, 4, 2)
    image = ComplexRaster(np.ones((8, 8), dtype=np.complex128))
    for a, same, twin in zip(_records(box, image), _records(box, image),
                             _records(twin_box, image)):
        assert (a == same) is True and hash(a) == hash(same)
        assert (a == twin) is False and (a != twin) is True
        assert len({a, same, twin}) == 2


def test_parsed_files_compare_without_raising_and_go_into_a_set():
    path = EVAL_RUN / "gts" / "img0.txt"
    first, second = parse_annotation(path), parse_annotation(path)
    assert len(first) > 1
    assert (first == second) is False  # each parse builds its own boxes
    assert [a.box.corners.tobytes() for a in first] == \
        [a.box.corners.tobytes() for a in second]
    assert len(set(first) | set(second)) == 2 * len(first)

    preds = parse_predictions(EVAL_RUN / "preds.txt")
    dets = [d for ds in preds.values() for d in ds]
    again = [d for ds in parse_predictions(EVAL_RUN / "preds.txt").values() for d in ds]
    assert len(dets) > 1 and (dets == again) is False
    assert len(set(dets) | set(again)) == 2 * len(dets)
