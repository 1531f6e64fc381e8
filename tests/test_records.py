"""The contract of every record the library returns or takes: it is built
from its fields positionally or by keyword, reads them back, cannot be
changed, compares and hashes by value, and normalizes or rejects its input
as before.  Each record is built once by the library code that makes it, on
the segment and simplex examples."""

from __future__ import annotations

import pytest

from lexfan.config import (
    Hull,
    MarkedCell,
    MarkedSubdivision,
    PointConfig,
    ValidationReport,
    hull_of,
    validate_subdivision,
)
from lexfan.degeneration import (
    ComponentCertificate,
    FanAlgebraPresentation,
    SRIdeal,
    gr_v_present,
    stanley_reisner,
)
from lexfan.errors import DimensionError, SchemaError
from lexfan.exactlex import WeightMatrix
from lexfan.gkzfan import (
    ConditionCone,
    ConditionGenerator,
    PiecewiseLinearMap,
    SignLedger,
    closed_member,
    condition_cone,
    condition_generators,
)
from lexfan.lp import LpResult, solve_lp
from lexfan.quasival import (
    AccumulationReport,
    DeltaImage,
    Expr,
    NuTable,
    TruncatedSemigroup,
    ValuationReport,
    delta_image,
    power_seq,
    v_quasi,
    windowed_accumulation,
)

RECORDS = [
    PointConfig, WeightMatrix, MarkedCell, MarkedSubdivision, Expr, Hull,
    ValidationReport, LpResult, ConditionGenerator, ConditionCone, SignLedger,
    PiecewiseLinearMap, ValuationReport, DeltaImage, AccumulationReport,
    ComponentCertificate, FanAlgebraPresentation, SRIdeal,
]
# the records used as set members and dict keys
HASHED = [MarkedCell, MarkedSubdivision, PointConfig, WeightMatrix, Expr, ConditionGenerator]
# the fields of the records that are not tuples
PLAIN = {PointConfig: ("dim", "points"), WeightMatrix: ("rows",), Expr: ("terms",)}


def fields(cls) -> tuple:
    return PLAIN.get(cls) or cls._fields


def by_name(classes):
    return pytest.mark.parametrize("cls", classes, ids=lambda c: c.__name__)


@pytest.fixture(scope="module")
def examples(seg_cfg, seg_psi, seg_sub, seg_plm, simplex_cfg, simplex_q2) -> dict:
    """One instance of each record, by class."""
    f = Expr.from_terms([((1, -2), 1), ((1, 4), "1/2")])
    cone = condition_cone(seg_cfg, seg_sub)
    pres = gr_v_present(TruncatedSemigroup(seg_cfg, seg_sub, 4))
    built = [
        seg_cfg, seg_psi, seg_sub.cells[0], seg_sub, f,
        hull_of(seg_cfg.points), validate_subdivision(seg_cfg, seg_sub),
        solve_lp([1], [[1]], [2]), condition_generators(seg_cfg, seg_sub)[0], cone,
        closed_member(seg_cfg, seg_psi, seg_sub), seg_plm, v_quasi(seg_plm, f),
        delta_image(seg_cfg, seg_psi, seg_plm, 3),
        windowed_accumulation(power_seq(NuTable(seg_cfg, seg_psi, 6), f, 6)),
        pres.certificates[0], pres, stanley_reisner(simplex_cfg, simplex_q2),
    ]
    assert [type(r) for r in built] == RECORDS
    return {type(r): r for r in built}


@by_name(RECORDS)
def test_record_builds_positionally_and_by_keyword(cls, examples):
    rec = examples[cls]
    values = {name: getattr(rec, name) for name in fields(cls)}
    for built in (cls(*values.values()), cls(**values)):
        assert type(built) is cls and built == rec
        assert {name: getattr(built, name) for name in values} == values


@by_name(RECORDS)
def test_record_is_immutable(cls, examples):
    rec = examples[cls]
    before = {name: getattr(rec, name) for name in fields(cls)}
    for name in (*before, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    for name in before:
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert {name: getattr(rec, name) for name in before} == before


@by_name(HASHED)
def test_equal_records_compare_and_hash_equal(cls, examples):
    """A record built again from its fields is equal and hashes equal, as
    its field tuple hashes, so sets of records keep their order; records
    of different values differ."""
    rec = examples[cls]
    values = tuple(getattr(rec, name) for name in fields(cls))
    twin = cls(*values)
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec) == hash(values) and len({rec, twin}) == 1
    assert all(rec != other for other in examples.values() if other is not rec)


def test_marked_cells_and_subdivisions_are_canonical():
    cell = MarkedCell(vertices=[2, 0, 2], marking=(3, 0, 2, 0))
    assert (cell.vertices, cell.marking) == ((0, 2), (0, 2, 3))
    assert cell == MarkedCell((0, 2), [0, 3, 2])
    a, b, c = MarkedCell((0, 1), (0, 1)), MarkedCell((0, 1), (0, 1, 2)), MarkedCell((1, 2), (1, 2))
    s = MarkedSubdivision([c, b, a])
    assert s.cells == (a, b, c) and s == MarkedSubdivision(cells=(b, a, c))
    # a repeated cell is kept, for validate_subdivision to report
    assert MarkedSubdivision((c, a, c)).cells == (a, c, c)


@pytest.mark.parametrize("build, error", [
    (lambda: PointConfig(1, ((0,), (0,))), SchemaError),  # a repeated point
    (lambda: PointConfig(1, ()), SchemaError),
    (lambda: PointConfig(1, ((0,), (True,))), SchemaError),
    (lambda: PointConfig(2, ((0, 0), (1, 1), (2, 2))), SchemaError),  # collinear
    (lambda: PointConfig(2, ((0,), (1,))), DimensionError),
    (lambda: WeightMatrix(((1, 2), (3,))), DimensionError),
    (lambda: WeightMatrix(((0.5,),)), SchemaError),
    (lambda: WeightMatrix((("1e3",),)), SchemaError),
])
def test_invalid_input_raises_its_typed_error(build, error):
    with pytest.raises(error):
        build()


def test_weight_matrix_normalizes_and_renders_its_rows():
    psi = WeightMatrix(rows=[[1, "1/2"], ["0", -3]])
    assert psi == WeightMatrix(((1, "2/4"), (0, -3)))
    assert repr(psi) == "WeightMatrix([1, 1/2]; [0, -3])"


def test_expr_has_no_tuple_arithmetic(examples):
    f = examples[Expr]
    assert not isinstance(f, tuple)
    for op in (
        lambda: f + f, lambda: 2 * f, lambda: f * 2, lambda: len(f), lambda: f[0], lambda: iter(f)
    ):
        with pytest.raises(TypeError):
            op()
